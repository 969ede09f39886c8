"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from swnkms.algebra import AlgebraElement, N, X, Y
from swnkms.funcspace import ONE, X_VAR, FunctionExpr
from swnkms.recovery import NotExtendable, chi_fit, ladder_peel
from swnkms.reps import build_rep, relation_residuals
from swnkms.states import (
    CartanMeasure,
    SpectralMeasure,
    StateSpec,
    cartan_restriction,
    chi_closed_form,
    eval_kms_recursion,
    eval_trace,
    save_state,
)
from swnkms.verify import gram_psd_check, kms_check, support_positivity_check

LAMBDA_GRID = [0.3, 1.0, 1.5, 2.0, 3.7]
BETA_GRID = [0.5, math.log(2.0), 1.0, 2.0]
MIX_LOCATIONS = (0.8, 2.5, 5.2)


def grid_states(beta):
    states = [StateSpec.gibbs(lam, beta) for lam in LAMBDA_GRID]
    states.append(StateSpec.vacuum(beta))
    for m1 in (0.0, 0.3):
        atoms = tuple((lam, (1.0 - m1) / 3.0) for lam in MIX_LOCATIONS)
        states.append(StateSpec.mixture(SpectralMeasure(m1, atoms), beta))
    return states


def conclude(number, passed, detail):
    line = f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_relation_suite():
    start = time.time()
    functions = [X_VAR, FunctionExpr.x_power(2), FunctionExpr.exponential(0.7)]
    worst = 0.0
    adjoint_worst = 0.0
    for lam in LAMBDA_GRID:
        rep = build_rep(lam, 64)
        for f in functions:
            report = relation_residuals(rep, f)
            worst = max(worst, report.commutator, report.shift_x, report.shift_y)
            adjoint_worst = max(adjoint_worst, report.adjointness)
    elapsed = time.time() - start
    conclude(
        1,
        worst <= 1e-10 and adjoint_worst == 0.0 and elapsed < 5.0,
        f"relation residuals <= {worst:.2e} (tol 1e-10), adjointness {adjoint_worst}, "
        f"{elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_characteristic_functional():
    start = time.time()
    ts = np.linspace(-10.0, 10.0, 101)
    worst = 0.0
    for lam in LAMBDA_GRID:
        for beta in BETA_GRID:
            state = StateSpec.gibbs(lam, beta)
            closed = chi_closed_form(state, ts)
            for t, expected in zip(ts, closed):
                traced = eval_trace(state, N(FunctionExpr.exponential(float(t))))
                worst = max(worst, abs(traced - expected))
    elapsed = time.time() - start
    conclude(
        2,
        worst <= 1e-8 and elapsed < 10.0,
        f"closed form vs truncated trace, max gap {worst:.2e} (tol 1e-8), "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_oracle_equivalence():
    start = time.time()
    functions = [
        ONE,
        X_VAR,
        FunctionExpr.x_power(2),
        FunctionExpr.x_power(3),
        FunctionExpr.x_power(4),
        FunctionExpr([(2, 0.7, 1.0)]),
        FunctionExpr([(0, -1.1, 1.0), (4, 0.0, 0.5)]),
    ]
    worst = 0.0
    for beta in BETA_GRID:
        for state in grid_states(beta):
            measure = state.measure
            for m in range(4):
                for f in functions:
                    a = AlgebraElement.monomial(m, m, f)
                    traced = eval_trace(state, a)
                    recursed = eval_kms_recursion(measure, beta, a)
                    worst = max(worst, abs(traced - recursed) / (1.0 + abs(traced)))
    pinned = eval_trace(StateSpec.gibbs(1.0, math.log(2.0)), X * Y)
    pinned_ok = abs(pinned - (-3.0)) <= 1e-8
    elapsed = time.time() - start
    conclude(
        3,
        worst <= 1e-8 and pinned_ok and elapsed < 60.0,
        f"trace vs recursion, max relative gap {worst:.2e} (tol 1e-8), "
        f"rho(XY)={pinned.real:+.6f} (pinned -3), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_kms_identity():
    worst = 0.0
    for beta in BETA_GRID:
        for state in grid_states(beta):
            report = kms_check(state, max_degree=4, trials=200, seed=42, tol=1e-8)
            worst = max(worst, report.max_residual)
            assert report.passed, (state, report.max_residual)
    control = kms_check(
        StateSpec.gibbs(1.5, 1.0),
        max_degree=4,
        trials=200,
        seed=42,
        tol=1e-8,
        dynamics_scale=2.0,
    )
    conclude(
        4,
        worst <= 1e-8 and control.max_residual > 1e-2,
        f"KMS identity max residual {worst:.2e} (tol 1e-8) over 200 seeded trials "
        f"per grid state; sabotaged control residual {control.max_residual:.2e} (> 1e-2)",
    )


def test_criterion_5_positivity():
    words = [
        AlgebraElement.one(),
        X,
        Y,
        X * Y,
        Y * X,
        N(X_VAR),
        X * N(X_VAR),
    ]
    min_margin = math.inf
    for beta in BETA_GRID:
        for state in grid_states(beta):
            result = gram_psd_check(state, words, tol=1e-8)
            assert result.passed, (state, result.min_eigenvalue)
            min_margin = min(min_margin, result.min_eigenvalue)
            assert support_positivity_check(state).passed
    control = support_positivity_check(CartanMeasure(atoms=((-1.0, 0.5), (1.0, 0.5))))
    conclude(
        5,
        not control.passed and control.offending_atom == -1.0,
        f"Gram PSD on 7-word set across grid (min eigenvalue {min_margin:.3e}), "
        f"support positivity holds; negative-support control fails at "
        f"{control.offending_atom}",
    )


def _random_acceptance_measure(rng):
    count = int(rng.integers(1, 6))
    while True:
        lams = np.sort(rng.uniform(0.2, 10.0, count))
        if count > 1 and np.min(np.diff(lams)) < 0.35:
            continue
        folded = np.sort(lams % 2.0)
        if count > 1 and np.min(np.diff(folded)) < 0.05:
            continue
        if np.min(folded) < 1e-3:
            continue
        break
    m1 = float(rng.choice([0.0, 0.3]))
    ws = rng.uniform(0.2, 1.0, count)
    ws = ws / ws.sum() * (1.0 - m1)
    return SpectralMeasure(m1, tuple(zip(lams.tolist(), ws.tolist())))


def test_criterion_6_theorem_roundtrip():
    start = time.time()
    rng = np.random.default_rng(2024)
    ts = np.linspace(-10.0, 10.0, 201)
    worst_peel = 0.0
    worst_fit = 0.0
    for index in range(25):
        beta = [0.5, 1.0, 2.0][index % 3]
        measure = _random_acceptance_measure(rng)
        state = StateSpec.mixture(measure, beta)

        peeled = ladder_peel(cartan_restriction(state), beta)
        assert len(peeled.measure.atoms) == len(measure.atoms)
        err = abs(peeled.measure.m1 - measure.m1)
        for (la, wa), (lb, wb) in zip(peeled.measure.atoms, measure.atoms):
            err = max(err, abs(la - lb), abs(wa - wb))
        worst_peel = max(worst_peel, err)

        samples = list(zip(ts, chi_closed_form(state, ts)))
        fitted = chi_fit(samples, beta, max_atoms=5)
        assert len(fitted.measure.atoms) == len(measure.atoms)
        err = abs(fitted.measure.m1 - measure.m1)
        for (la, wa), (lb, wb) in zip(fitted.measure.atoms, measure.atoms):
            err = max(err, abs(la - lb), abs(wa - wb))
        worst_fit = max(worst_fit, err)

        assert support_positivity_check(
            cartan_restriction(StateSpec.mixture(peeled.measure, beta))
        ).passed

    gaussian = [(float(t), complex(math.exp(-t * t))) for t in ts]
    try:
        chi_fit(gaussian, 1.0, max_atoms=5)
        control_failed = False
    except NotExtendable:
        control_failed = True
    elapsed = time.time() - start
    conclude(
        6,
        worst_peel <= 1e-6 and worst_fit <= 1e-6 and control_failed and elapsed < 120.0,
        f"25 measure roundtrips: peel err {worst_peel:.2e}, chi-fit err {worst_fit:.2e} "
        f"(tol 1e-6); Gaussian control NotExtendable; {elapsed:.1f}s (< 120s)",
    )


def _run_cli(*args):
    # a hanging subcommand fails the criterion instead of stalling the suite
    return subprocess.run(
        [sys.executable, "-m", "swnkms.cli", *args], capture_output=True, text=True, timeout=120
    )


def test_criterion_7_cli_determinism(tmp_path):
    state_path = tmp_path / "state.json"
    save_state(
        StateSpec.mixture(SpectralMeasure(0.3, ((1.2, 0.4), (4.0, 0.3))), 1.0),
        state_path,
    )
    restriction = cartan_restriction(StateSpec.gibbs(1.5, 1.0))
    cartan_path = tmp_path / "cartan.json"
    cartan_path.write_text(
        json.dumps(
            {
                "m0": restriction.m0,
                "atoms": [{"x": x, "mass": m} for x, m in restriction.atoms],
            }
        )
    )
    commands = [
        ("relations", "--lambda", "0.3,1,2", "--dim", "64"),
        ("eval", "--state", str(state_path), "--expr", "X Y N[x^2]", "--method", "both"),
        ("chi", "--state", str(state_path), "--steps", "51", "--cross-check"),
        ("kms-check", "--state", str(state_path), "--degree", "3", "--trials", "50",
         "--seed", "42"),
        ("recover", "--cartan", str(cartan_path), "--beta", "1.0"),
    ]
    identical = True
    for command in commands:
        first = _run_cli(*command)
        second = _run_cli(*command)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            identical = False
            break
        assert first.returncode == 0, (command, first.stderr)
    conclude(
        7,
        identical,
        "repeated CLI invocations with fixed seeds are byte-identical "
        f"({len(commands)} commands)",
    )
