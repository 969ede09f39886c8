"""The benchmark's four workloads.

Every workload turns (seed, op index) into op inputs, runs one op at a time
and checks each op's outcome after the timed window, against the mpmath
oracle, the true measure the inputs were made from, or the verdict the op
must reach.  Ops come in rounds: a fixed mix of op kinds, each with its own
inputs.  The runner always completes whole rounds, so every run sees the
same mix and the per-round spread of costs does not depend on where the
clock stops.  Round r holds the op indices r * len(SLOTS) ... + len(SLOTS)-1.

Each workload imports only the ``swnkms`` modules it needs, so a change to
what ``import swnkms`` pulls in shows in its set-up time.  The checks import
the mpmath oracle when they first run, after the timed window, so neither the
set-up time nor the peak memory of a run includes it.

An op's outcome is plain data: ("value", ...) when the call returned,
("rejected", exception name, message) when it raised NotExtendable or
IllPosed.  Any other exception is recorded by the runner as "raised".
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

POOL = 7_000_001  # rng key for per-run pools, distinct from any op index


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _digits(err: float) -> float:
    """-log10 of a relative error, capped at 16 digits."""
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))


def _beta_grid(count: int, lo: float = 0.5) -> list[float]:
    """``count`` evenly spaced inverse temperatures over [lo, 2].

    Costs and the recursion's error both change steeply with beta, so every
    run pairs the same state kinds with the same temperatures; the seed
    decides everything else about the states.
    """
    return np.linspace(lo, 2.0, count).tolist()


def _atoms(rng, count: int, m1: float, lo=0.3, hi=5.0, sep=0.5, avoid=None):
    """``count`` atom positions in [lo, hi) at least ``sep`` apart and at least
    0.15 from ``avoid``, weights summing to 1 - m1, each at least 5% of it."""
    while True:
        lams = np.sort(rng.uniform(lo, hi, count))
        if avoid is not None and np.min(np.abs(lams - avoid)) < 0.15:
            continue
        if count == 1 or np.min(np.diff(lams)) >= sep:
            break
    while True:
        ws = rng.dirichlet(np.full(count, 2.0))
        if np.min(ws) >= 0.05:
            break
    return tuple(zip(lams.tolist(), ((1.0 - m1) * ws).tolist()))


def _state_params(rng, kind: str, beta: float):
    """(m1, atoms, beta) for a vacuum, Gibbs or k-atom mixture state."""
    if kind == "vacuum":
        return (1.0, (), beta)
    if kind == "gibbs":
        return (0.0, ((float(rng.uniform(0.3, 5.0)), 1.0),), beta)
    m1 = float(rng.uniform(0.0, 0.5))
    return (m1, _atoms(rng, int(kind[-1]), m1), beta)


def _pairings(values: tuple, count: int) -> tuple:
    """Every value of ``values`` with every index below ``count``, as (value, index)."""
    return tuple((v, (i + j) % count) for j in range(count) for i, v in enumerate(values))


class Op:
    __slots__ = ("index", "kind", "args")

    def __init__(self, index: int, kind: str, args: tuple):
        self.index = index
        self.kind = kind
        self.args = args


class Workload:
    name = ""
    #: (op kind, per-kind parameter) for each op of a round.
    SLOTS: tuple = ()

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.first_round = self.make_round(0)

    def make_round(self, r: int) -> list[Op]:
        base = r * len(self.SLOTS)
        return [self.make_op(base + i, r, i) for i in range(len(self.SLOTS))]

    def op(self, index: int) -> Op:
        """The op with this index, rebuilt from (seed, index)."""
        r, slot = divmod(index, len(self.SLOTS))
        return self.make_op(index, r, slot)

    def make_op(self, index: int, r: int, slot: int) -> Op:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, outcome) -> tuple[bool, float | None]:
        """(right, accuracy digits or None) for one op's outcome."""
        raise NotImplementedError


# -- recursion --------------------------------------------------------------------

#: Error, relative to the sum of the absolute values of the terms, above which
#: a value is wrong, not just inaccurate.  Finer drift is what
#: accuracy_digits reports.
RECURSION_WRONG = 1e-3


class Recursion(Workload):
    """eval_kms_recursion on X^d Y^d N_F, checked against the 50-digit ladder sum."""

    name = "recursion"
    # Skewed low: the median op falls inside the d = 3 stratum (7-11 of 16 by
    # cost), and the ops beyond the tail percentile have d >= 6.
    DEGREES = (0, 0, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 5, 6, 7, 8)
    # Paired in order with the beta grid, coldest first.
    KINDS = ("gibbs", "mix2", "mix3", "vacuum", "gibbs", "mix2", "mix3", "gibbs")
    # (d, state): a round pairs every degree with every state, so the costliest
    # pairs (high d on the coldest states), which set the tail, make up the
    # same share of every run however many rounds it completes.
    SLOTS = _pairings(DEGREES, len(KINDS))

    def __init__(self, seed, root):
        from swnkms import states
        from swnkms.algebra import AlgebraElement
        from swnkms.funcspace import FunctionExpr

        # Functions under test are looked up on their module at call time, so
        # the tracer's wrappers see the call.
        self._states = states
        self._monomial = AlgebraElement.monomial
        self._function = FunctionExpr
        rng = _rng(seed, POOL)
        betas = _beta_grid(len(self.KINDS))
        self.states = [_state_params(rng, k, b) for k, b in zip(self.KINDS, betas)]
        self.measures = [states.SpectralMeasure(m1, atoms) for m1, atoms, _ in self.states]
        signs = rng.choice([-1.0, 1.0], 2)
        self.freqs = tuple(float(s * rng.uniform(0.2, 1.5)) for s in signs)
        super().__init__(seed, root)

    def make_op(self, index, r, slot):
        rng = _rng(self.seed, index)
        d, state = self.SLOTS[slot]
        # F = c0 x^n0 + up to two terms c x^n e^{itx}.  The term count and n0
        # cycle with the op index, so every degree and state meets every F
        # shape in equal shares; the non-oscillating x^n0 term is where the
        # recursion's error is largest.
        terms = [((index // 3) % 3, 0.0, complex(*rng.uniform(-1.0, 1.0, 2)))]
        for _ in range(index % 3):
            t = self.freqs[int(rng.integers(0, 2))]
            terms.append((int(rng.integers(0, 3)), t, complex(*rng.uniform(-1.0, 1.0, 2))))
        element = self._monomial(d, d, self._function(terms))
        return Op(index, f"d{d}", (state, d, element, terms))

    def execute(self, op):
        state, _, element, _ = op.args
        value = self._states.eval_kms_recursion(self.measures[state], self.states[state][2], element)
        return ("value", complex(value))

    def check(self, op, outcome):
        import oracle

        if outcome[0] != "value":
            return False, None
        state, d, _, terms = op.args
        # The reference takes F as drawn, not as the package stored it.
        args = self.states[state] + (d, terms)
        shared = {"freqs": (0.0,) + self.freqs, "max_d": 8}
        err = oracle.rel_error(
            outcome[1], oracle.state_value(*args, **shared), oracle.state_scale(*args, **shared)
        )
        return err <= RECURSION_WRONG, _digits(err)


# -- verify -------------------------------------------------------------------------


class Verify(Workload):
    """kms_check (and its sabotaged twin) and Gram/support positivity on powers."""

    name = "verify"
    SLOTS = (
        ("kms", 3), ("kms", 4), ("kms", 3), ("kms", 4),
        ("kms", 3), ("kms", 4), ("kms", 3), ("kms", 4),
        ("sabotage", 4), ("sabotage", 3),
        ("gram", 1), ("gram", 2), ("gram", 3), ("gram", 4), ("gram", 5),
    )
    KINDS = ("gibbs", "mix2", "mix3", "gibbs", "mix2", "mix3")
    TRIALS = 20
    # About 30% of random pairs are blind to the sabotage (weight-zero parts,
    # or products with zero trace), so 20 pairs miss it about once in 1400
    # checks; 60 pairs miss it about once in 2e9.
    SABOTAGE_TRIALS = 60

    def __init__(self, seed, root):
        from swnkms import verify
        from swnkms.algebra import ONE_EL, AlgebraElement, H, N, X, Y
        from swnkms.funcspace import FunctionExpr
        from swnkms.states import SpectralMeasure, StateSpec

        self._verify = verify
        self._function = FunctionExpr
        self._n = N
        self._monomial = AlgebraElement.monomial
        rng = _rng(seed, POOL)
        # Below beta ~1 kms_check's truncated traces leave residuals near its
        # 1e-8 tolerance on high-degree pairs, and valid states fail now and
        # then (residual 2e-8 at beta = 0.75); that edge is measured by
        # ``defect_probe`` rather than failing timed ops.
        betas = _beta_grid(len(self.KINDS), lo=1.0)
        self.params = [_state_params(rng, k, b) for k, b in zip(self.KINDS, betas)]
        self.states = [
            StateSpec.mixture(SpectralMeasure(m1, atoms), beta) for m1, atoms, beta in self.params
        ]
        self.freqs = (0.0, float(rng.uniform(0.2, 1.5)))
        self.base_words = (ONE_EL, X, Y)
        # (X+Y+H)^k is an input, built once here; the Gram check multiplies it.
        total = X + Y + H
        self.powers = {1: total}
        for k in range(2, 6):
            self.powers[k] = self.powers[k - 1] * total
        super().__init__(seed, root)

    def make_op(self, index, r, slot):
        kind, param = self.SLOTS[slot]
        state = (r + slot) % len(self.states)
        if kind == "gram":
            rng = _rng(self.seed, index)
            f = self._function(
                [(int(rng.integers(0, 3)), float(rng.uniform(-1, 1)), complex(*rng.uniform(-1, 1, 2)))]
            )
            words = list(self.base_words) + [self._n(f), self.powers[param]]
            return Op(index, f"gram{param}", (state, words))
        # A fresh pair seed per op: kms_check's pair cache never serves a timed op.
        # ``terms`` is F for the accuracy probe of the op's state (see check).
        rng = _rng(self.seed, index)
        terms = [(int(rng.integers(0, 3)), t, complex(*rng.uniform(-1.0, 1.0, 2))) for t in self.freqs]
        return Op(index, kind, (state, param, self.seed * 10_000_000 + index, terms))

    def execute(self, op):
        state = self.states[op.args[0]]
        if op.kind.startswith("gram"):
            gram = self._verify.gram_psd_check(state, op.args[1])
            support = self._verify.support_positivity_check(state)
            return ("value", (gram.min_eigenvalue, gram.passed, support.passed, support.min_position))
        _, degree, pair_seed, _ = op.args
        sabotage = op.kind == "sabotage"
        report = self._verify.kms_check(
            state, max_degree=degree, trials=self.SABOTAGE_TRIALS if sabotage else self.TRIALS,
            seed=pair_seed, dynamics_scale=2.0 if sabotage else 1.0,
        )
        return ("value", (report.passed, report.max_residual, report.worst_pair, report.pairs_tested))

    def check(self, op, outcome):
        if outcome[0] != "value":
            return False, None
        data = outcome[1]
        if op.kind.startswith("gram"):
            return bool(data[1] and data[2]), None
        passed, residual, _, pairs = data
        if op.kind == "sabotage":
            return (not passed) and pairs == self.SABOTAGE_TRIALS, None
        # The residual compares two of the package's own traces, so it cannot
        # tell a wrong trace from a right one.  Accuracy comes from the oracle
        # instead: the op state's eval_trace on X^d Y^d N_F, d = the op's degree,
        # computed here, off the clock.
        import oracle
        from swnkms.states import eval_trace

        state, degree, _, terms = op.args
        value = eval_trace(self.states[state], self._monomial(degree, degree, self._function(terms)))
        args = self.params[state] + (degree, terms)
        shared = {"freqs": self.freqs, "max_d": 4}
        err = oracle.rel_error(
            value, oracle.state_value(*args, **shared), oracle.state_scale(*args, **shared)
        )
        return passed and pairs == self.TRIALS and err <= RECURSION_WRONG, _digits(err)

    def defect_probe(self, count: int = 20) -> float:
        """Largest kms_check residual over ``count`` degree-4 checks of states at beta = 0.5."""
        from swnkms.states import SpectralMeasure, StateSpec

        worst = 0.0
        for i in range(count):
            rng = _rng(self.seed, POOL + 1 + i)
            m1, atoms, beta = _state_params(rng, self.KINDS[i % len(self.KINDS)], 0.5)
            state = StateSpec.mixture(SpectralMeasure(m1, atoms), beta)
            report = self._verify.kms_check(state, max_degree=4, trials=self.TRIALS,
                                            seed=self.seed * 10_000_000 + POOL + i)
            worst = max(worst, report.max_residual)
        return worst


# -- recover ------------------------------------------------------------------------

EXACT_ATOL = 1e-6  # positions, weights and m1 from noise-free data
NOISY_ATOL = (2e-2, 2e-3)  # (positions, weights and m1) from data with 1e-4 noise
NOISE = 1e-4
UNIFORM_TS = np.linspace(-10.0, 10.0, 101)
#: chi/g carries the vacuum term at frequency 2; an atom within ~0.1 below it
#: makes chi_fit add a spurious atom there (weight ~1e-8).
NEAR_TWO = 2.0


class Recover(Workload):
    """ladder_peel and chi_fit: accepts on admissible data, NotExtendable on the rest.

    Three kinds of input stay out of the timed mix because chi_fit gets a
    share of them wrong today, and a benchmark run must not fail at its
    baseline: admissible samples on a non-uniform grid (about one fit in four
    rejects them or adds an atom), noisy samples fitted with spare atoms
    (spurious atoms of weight ~1e-5), and measures with an atom near 2 (see
    NEAR_TWO).  ``defect_probe`` counts all three in the traced run.
    """

    name = "recover"
    # Rejections run at max_atoms=2, accepts at 3 (the atom count is 1-3).
    # Six of the 13 ops are uniform fits, so the median op falls in the middle
    # of that kind rather than on the edge between it and the peels.
    SLOTS = (
        ("peel", 1), ("uniform", 1), ("gauss", 2), ("uniform", 2), ("peel", 2),
        ("uniform", 3), ("expabs", 2), ("uniform", 1), ("peel", 3), ("uniform", 2),
        ("noisy", 2), ("uniform", 3), ("bad_ladder", 2),
    )
    REJECT = ("gauss", "expabs", "bad_ladder")
    MAX_ATOMS = 3
    # A rejection costs 0.8-1.2x its mean depending on the Gaussian width or
    # the e^{-|t|} rate and on beta.  Both step through fixed grids with the
    # round, so every run rejects the same mix of inputs.
    REJECT_SCALES = (0.5, 0.833, 1.167, 1.5)
    REJECT_BETAS = (0.5, 1.0, 1.5, 2.0)

    def __init__(self, seed, root):
        from swnkms import recovery
        from swnkms.states import SpectralMeasure, StateSpec, cartan_restriction, chi_closed_form

        self._recovery = recovery
        self._rejections = (recovery.NotExtendable, recovery.IllPosed)
        self._spectral = SpectralMeasure
        self._state = StateSpec.mixture
        self._restrict = cartan_restriction
        self._chi = chi_closed_form
        super().__init__(seed, root)

    def _truth(self, rng, k):
        m1 = float(rng.uniform(0.0, 0.5))
        return (m1, _atoms(rng, k, m1, avoid=NEAR_TWO), float(rng.uniform(0.5, 2.0)))

    def _samples(self, truth, ts):
        m1, atoms, beta = truth
        return self._chi(self._state(self._spectral(m1, atoms), beta), ts)

    def make_op(self, index, r, slot):
        kind, k = self.SLOTS[slot]
        rng = _rng(self.seed, index)
        truth = self._truth(rng, k)
        m1, atoms, beta = truth
        if kind in ("peel", "bad_ladder"):
            cartan = self._restrict(self._state(self._spectral(m1, atoms), beta))
            # Peeling at beta/2 subtracts ladders that decay too slowly, which
            # leaves negative mass: no KMS extension exists at that beta.
            return Op(index, kind, (truth, ("peel", cartan, beta if kind == "peel" else beta / 2)))
        ts = UNIFORM_TS
        max_atoms, tol = self.MAX_ATOMS, 1e-6
        if kind in ("gauss", "expabs"):
            step = (r + slot // 2) % len(self.REJECT_SCALES)
            scale, beta = self.REJECT_SCALES[step], self.REJECT_BETAS[-1 - step]
            truth = (m1, atoms, beta)
            shape = 0.5 * (scale * ts) ** 2 if kind == "gauss" else scale * np.abs(ts)
            chis = np.exp(-shape).astype(complex)
            max_atoms = k
        else:
            chis = self._samples(truth, ts)
        if kind == "noisy":
            chis = chis + NOISE * (rng.standard_normal(len(ts)) + 1j * rng.standard_normal(len(ts)))
            max_atoms, tol = k, 1e-3
        samples = list(zip(ts.tolist(), chis.tolist()))
        return Op(index, kind, (truth, ("chi", samples, beta, max_atoms, tol)))

    def _call(self, call):
        if call[0] == "peel":
            return self._recovery.ladder_peel(call[1], call[2])
        _, samples, beta, max_atoms, tol = call
        return self._recovery.chi_fit(samples, beta, max_atoms=max_atoms, tol=tol)

    def execute(self, op):
        try:
            result = self._call(op.args[1])
        except self._rejections as exc:
            return ("rejected", type(exc).__name__, str(exc))
        measure = result.measure
        return ("value", (measure.m1, measure.atoms, result.residual, result.method))

    def check(self, op, outcome):
        if op.kind in self.REJECT:
            return outcome[0] == "rejected" and outcome[1] == "NotExtendable", None
        if op.kind == "noisy" and outcome[0] == "rejected":
            return True, None
        if outcome[0] != "value":
            return False, None
        m1_true, atoms_true, _ = op.args[0]
        m1, atoms = outcome[1][0], outcome[1][1]
        if len(atoms) != len(atoms_true):
            return False, None
        pos_err = [abs(a[0] - b[0]) for a, b in zip(atoms, atoms_true)]
        mass_err = [abs(a[1] - b[1]) for a, b in zip(atoms, atoms_true)] + [abs(m1 - m1_true)]
        if op.kind == "noisy":
            return max(pos_err) <= NOISY_ATOL[0] and max(mass_err) <= NOISY_ATOL[1], None
        right = max(pos_err + mass_err) <= EXACT_ATOL
        rel = [e / b[0] for e, b in zip(pos_err, atoms_true)]
        rel += [abs(a[1] - b[1]) / b[1] for a, b in zip(atoms, atoms_true)]
        return right, _digits(max(rel + [abs(m1 - m1_true)]))

    def defect_probe(self, count: int = 6):
        """Outcomes on the inputs kept out of the timed mix, ``count`` two-atom measures each.

        Returns (non-uniform fits that missed, their median latency in ms,
        atoms beyond the true count from noisy fits given two spare atoms,
        uniform fits that missed with an atom just below 2).
        """
        nonuniform_misses, spurious, near_two_misses, latencies = 0, 0, 0, []
        for i in range(count):
            rng = _rng(self.seed, POOL + 1 + i)
            truth = self._truth(rng, 2)
            m1, atoms, beta = truth
            ts = np.sort(rng.uniform(-10.0, 10.0, UNIFORM_TS.size))
            op = self._chi_op("nonuniform", truth, ts, self._samples(truth, ts), self.MAX_ATOMS, 1e-6)
            t0 = time.perf_counter()
            outcome = self.execute(op)
            latencies.append((time.perf_counter() - t0) * 1e3)
            nonuniform_misses += not self.check(op, outcome)[0]

            chis = self._samples(truth, UNIFORM_TS)
            chis = chis + NOISE * (rng.standard_normal(chis.size) + 1j * rng.standard_normal(chis.size))
            outcome = self.execute(self._chi_op("noisy", truth, UNIFORM_TS, chis, 4, 1e-3))
            if outcome[0] == "value":
                spurious += max(0, len(outcome[1][1]) - 2)

            below_two = NEAR_TWO - float(rng.uniform(0.0, 0.08))
            near = (m1, ((below_two, atoms[0][1]), (float(rng.uniform(2.5, 5.0)), atoms[1][1])), beta)
            op = self._chi_op("uniform", near, UNIFORM_TS, self._samples(near, UNIFORM_TS), self.MAX_ATOMS, 1e-6)
            near_two_misses += not self.check(op, self.execute(op))[0]
        return nonuniform_misses, float(np.median(latencies)), spurious, near_two_misses

    @staticmethod
    def _chi_op(kind, truth, ts, chis, max_atoms, tol):
        return Op(-1, kind, (truth, ("chi", list(zip(ts.tolist(), chis.tolist())), truth[2], max_atoms, tol)))


# -- cli ----------------------------------------------------------------------------


class Cli(Workload):
    """``python -m swnkms`` subprocesses, one at a time, over every subcommand."""

    name = "cli"
    SLOTS = (
        ("help", 0), ("relations", 0), ("eval", 0), ("chi", 0), ("kms", 0),
        ("kms_sabotage", 1), ("gram", 0), ("recover_cartan", 0), ("recover_chi", 0), ("rep", 0),
    )
    TIMEOUT = 120

    def __init__(self, seed, root):
        from swnkms.states import (
            SpectralMeasure, StateSpec, cartan_restriction, chi_closed_form, save_state,
        )

        rng = _rng(seed, POOL)
        self.dir = os.path.join(root, ".bench_runs", f"cli-seed{seed}")
        os.makedirs(self.dir, exist_ok=True)
        m1 = float(rng.uniform(0.0, 0.5))
        beta = float(rng.uniform(0.5, 2.0))
        self.truth = (m1, _atoms(rng, 2, m1, hi=6.0, avoid=NEAR_TWO), beta)
        state = StateSpec.mixture(SpectralMeasure(m1, self.truth[1]), beta)
        state_path = os.path.join(self.dir, "state.json")
        save_state(state, state_path)
        cartan = cartan_restriction(state)
        cartan_path = os.path.join(self.dir, "cartan.json")
        with open(cartan_path, "w", encoding="utf-8") as fh:
            atoms = ",".join(f'{{"x": {x!r}, "mass": {m!r}}}' for x, m in cartan.atoms)
            fh.write(f'{{"m0": {cartan.m0!r}, "atoms": [{atoms}]}}\n')
        chi_path = os.path.join(self.dir, "chi.csv")
        with open(chi_path, "w", encoding="utf-8") as fh:
            fh.write("t,re_chi,im_chi\n")
            for t, c in zip(UNIFORM_TS.tolist(), chi_closed_form(state, UNIFORM_TS).tolist()):
                fh.write(f"{t!r},{c.real!r},{c.imag!r}\n")
        d = int(rng.integers(2, 4))
        t = round(float(rng.uniform(0.2, 1.5)), 3)
        a, b = (round(float(v), 3) for v in rng.uniform(0.2, 1.0, 2))
        f_text = f"{a}*x + {b}*exp({t})"
        self.eval_ref = (d, [(1, 0.0, a), (0, t, b)])
        self.rep_prefix = os.path.join(self.dir, "rep_")
        s = state_path
        self.jobs = {
            "help": ["--help"],
            "relations": ["relations", "--lambda", "0.3,1.7", "--dim", "32"],
            "eval": ["eval", "--state", s, "--expr", f"X^{d} Y^{d} N[{f_text}]", "--method", "both"],
            "chi": ["chi", "--state", s, "--t-min", "-5", "--t-max", "5", "--steps", "21", "--cross-check"],
            "kms": ["kms-check", "--state", s, "--degree", "3", "--trials", "20", "--seed", str(seed)],
            "kms_sabotage": ["kms-check", "--state", s, "--degree", "3",
                             "--trials", str(Verify.SABOTAGE_TRIALS), "--seed", str(seed),
                             "--sabotage-dynamics"],
            "gram": ["gram-check", "--state", s, "--word", "1", "--word", "X",
                     "--word", "X Y", "--word", "(X+Y+H)^2"],
            "recover_cartan": ["recover", "--cartan", cartan_path, "--beta", repr(beta)],
            "recover_chi": ["recover", "--chi", chi_path, "--beta", repr(beta), "--max-atoms", "3"],
            "rep": ["rep", "--lambda", "1.5", "--dim", "8", "--out", self.rep_prefix],
        }
        self.first_output: dict[str, tuple] = {}
        # Set by the runner for a traced phase: where children write their spans.
        self.trace_dir: str | None = None
        self.child_traces: list[str] = []
        self.child_wall: list[float] = []
        super().__init__(seed, root)

    def make_op(self, index, r, slot):
        kind, code = self.SLOTS[slot]
        return Op(index, kind, (code,))

    def execute(self, op):
        argv = self.jobs[op.kind]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "swnkms"] + argv
        else:
            out = os.path.join(self.trace_dir, f"op{op.index}.json")
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launcher.py")
            cmd = [sys.executable, launcher, out] + argv
            self.child_traces.append(out)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, timeout=self.TIMEOUT)
        if self.trace_dir is not None:
            self.child_wall.append(time.perf_counter() - start)
        files = ()
        if op.kind == "rep":
            files = tuple(_read(self.rep_prefix + name) for name in ("matx.csv", "maty.csv", "cartan.csv"))
        return ("value", (proc.returncode, proc.stdout, files))

    def check(self, op, outcome):
        if outcome[0] != "value":
            return False, None
        code, stdout, _ = outcome[1]
        first = self.first_output.setdefault(op.kind, outcome[1])
        right = code == op.args[0] and first == outcome[1]
        digits = None
        text = stdout.decode("utf-8", "replace")
        if op.kind == "eval":
            right, digits = self._check_eval(text, right)
        elif op.kind == "chi":
            right, digits = self._check_chi(text, right)
        elif op.kind.startswith("recover"):
            right = right and self._check_recover(text)
        return right, digits

    def _check_eval(self, text, right):
        import oracle

        m1, atoms, beta = self.truth
        d, terms = self.eval_ref
        ref = oracle.state_value(m1, atoms, beta, d, terms)
        scale = oracle.state_scale(m1, atoms, beta, d, terms)
        errs = []
        for line in text.splitlines():
            name, _, value = line.partition("=")
            if name.strip() in ("trace", "recursion"):
                errs.append(oracle.rel_error(_parse_complex(value), ref, scale))
        if len(errs) != 2:
            return False, None
        return right and max(errs) <= RECURSION_WRONG, _digits(max(errs))

    def _check_chi(self, text, right):
        import oracle

        m1, atoms, beta = self.truth
        errs = []
        for line in text.splitlines():
            if line.startswith(("t,", "#")) or not line:
                continue
            t, re_chi, im_chi, re_tr, im_tr = (float(v) for v in line.split(","))
            ref = oracle.chi(m1, atoms, beta, t)
            errs.append(oracle.rel_error(complex(re_chi, im_chi), ref))
            errs.append(oracle.rel_error(complex(re_tr, im_tr), ref))
        if not errs:
            return False, None
        return right and max(errs) <= 1e-8, _digits(max(errs))

    def _check_recover(self, text):
        m1_true, atoms_true, _ = self.truth
        data = json.loads(text)
        atoms = [(a["lambda"], a["w"]) for a in data["atoms"]]
        if len(atoms) != len(atoms_true):
            return False
        errs = [abs(data["m1"] - m1_true)]
        for (lam, w), (lam_t, w_t) in zip(atoms, atoms_true):
            errs += [abs(lam - lam_t), abs(w - w_t)]
        return max(errs) <= EXACT_ATOL


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _parse_complex(text: str) -> complex:
    """Parse the CLI's ``a + bi`` / ``a - bi`` rendering."""
    text = text.strip()
    if not text.endswith("i"):
        raise ValueError(f"not a complex value: {text!r}")
    for sep in (" + ", " - "):
        head, found, tail = text[:-1].rpartition(sep)
        if found:
            imag = float(tail)
            return complex(float(head), imag if sep == " + " else -imag)
    raise ValueError(f"not a complex value: {text!r}")


WORKLOADS = {w.name: w for w in (Recursion, Verify, Recover, Cli)}
