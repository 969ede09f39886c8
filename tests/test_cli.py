import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from swnkms.states import (
    SpectralMeasure, StateSpec, cartan_restriction, chi_closed_form, load_state, save_state,
)


CLI_TIMEOUT = 120  # seconds; a hanging subcommand fails its test instead of the suite


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "swnkms.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=CLI_TIMEOUT,
    )


@pytest.fixture
def gibbs_file(tmp_path):
    path = tmp_path / "gibbs1.json"
    save_state(StateSpec.gibbs(1.0, math.log(2.0)), path)
    return str(path)


@pytest.fixture
def vacuum_file(tmp_path):
    path = tmp_path / "vacuum.json"
    save_state(StateSpec.vacuum(1.0), path)
    return str(path)


class TestRelations:
    def test_grid_passes(self):
        result = run_cli("relations", "--lambda", "0.3,1,2", "--dim", "64")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["passed"]
        assert report["max_residual"] <= 1e-10

    def test_negative_lambda_exits_2(self):
        result = run_cli("relations", "--lambda", "-1", "--dim", "64")
        assert result.returncode == 2
        assert "lambda must be positive" in result.stderr

    def test_tiny_dim_warns_but_passes(self):
        result = run_cli("relations", "--lambda", "1", "--dim", "2")
        assert result.returncode == 0
        assert "safe subspace" in result.stderr

    @pytest.mark.parametrize("flag", ["--lambda=nan", "--lambda=1,inf", "--tol=nan", "--tol=0"])
    def test_bad_lambda_or_tol_exits_2(self, flag):
        result = run_cli("relations", "--lambda", "1", "--dim", "8", flag)
        assert result.returncode == 2
        assert "must be positive and finite" in result.stderr


@pytest.fixture
def tiny_beta_file(tmp_path):
    """Gibbs(1.5) at beta 1e-15: high-degree traces overflow."""
    path = tmp_path / "tiny_beta.json"
    save_state(StateSpec.gibbs(1.5, 1e-15), path)
    return str(path)


class TestNonFiniteExits2:
    @pytest.mark.parametrize("args", [
        ("eval", "--expr", "X^30 Y^30 N[x^4 + exp(0.3)]", "--method", "trace"),
        ("eval", "--expr", "X^30 Y^30 N[x^4 + exp(0.3)]", "--method", "recursion"),
        ("eval", "--expr", "X^30 Y^30 N[x^4 + exp(0.3)]", "--method", "both"),
        ("gram-check", "--word", "X^12", "--word", "1"),
        ("kms-check", "--degree", "12", "--trials", "40", "--seed", "3"),
    ], ids=["trace", "recursion", "both", "gram-check", "kms-check"])
    def test_route(self, tiny_beta_file, args):
        result = run_cli(args[0], "--state", tiny_beta_file, *args[1:])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "not finite at beta=1e-15" in result.stderr


class TestEval:
    def test_xy_value(self, gibbs_file):
        result = run_cli("eval", "--state", gibbs_file, "--expr", "X Y")
        assert result.returncode == 0
        assert result.stdout.startswith("trace      = -3.0")

    def test_vacuum_cartan(self, vacuum_file):
        result = run_cli("eval", "--state", vacuum_file, "--expr", "N[x^2+1]")
        assert result.returncode == 0
        assert result.stdout.startswith("trace      = 1.0")

    def test_both_methods_agree(self, gibbs_file):
        result = run_cli("eval", "--state", gibbs_file, "--expr", "X Y", "--method", "both")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 3
        assert float(lines[2].split("=")[1]) < 1e-6

    def test_parse_error_exits_3(self, gibbs_file):
        result = run_cli("eval", "--state", gibbs_file, "--expr", "X Q")
        assert result.returncode == 3
        assert "unexpected token 'Q' at column 3" in result.stderr

    def test_bad_state_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "thermal"}')
        result = run_cli("eval", "--state", str(bad), "--expr", "X Y")
        assert result.returncode == 2


    @pytest.mark.parametrize("field", ["w", "beta"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_state_value_exits_2(self, tmp_path, field, bad):
        values = {"w": "0.5", "beta": "1.0"}
        values[field] = bad
        path = tmp_path / "state.json"
        path.write_text(
            f'{{"beta": {values["beta"]}, "kind": "mixture", "m1": 0.5, '
            f'"atoms": [{{"lambda": 2.0, "w": {values["w"]}}}]}}'
        )
        result = run_cli("eval", "--state", str(path), "--expr", "X Y")
        assert result.returncode == 2
        assert "nan" not in result.stdout

    def test_both_methods_agree_at_small_beta(self, tmp_path):
        path = tmp_path / "gibbs.json"
        save_state(StateSpec.gibbs(1.5, 1e-6), path)
        result = run_cli("eval", "--state", str(path), "--expr", "X^2 Y^2 N[x]", "--method", "both")
        assert result.returncode == 0, result.stderr
        trace, recursion = (complex(line.split("=")[1].replace(" ", "").replace("i", "j"))
                            for line in result.stdout.splitlines()[:2])
        assert abs(trace) > 1e30
        assert abs(trace - recursion) <= 1e-12 * abs(recursion)

    @pytest.mark.parametrize("args", [
        ("eval", "--expr", "X Y"),
        ("chi",),
        ("kms-check",),
        ("gram-check", "--word", "X"),
    ], ids=["eval", "chi", "kms-check", "gram-check"])
    def test_beta_where_q_rounds_to_one_exits_2(self, tmp_path, args):
        # written as text: StateSpec refuses this beta, so it cannot save the file
        path = tmp_path / "gibbs.json"
        path.write_text('{"beta": 1e-17, "kind": "gibbs", "lambda": 1.5}\n')
        result = run_cli(args[0], "--state", str(path), *args[1:])
        assert result.returncode == 2
        assert "beta must be positive and above ~1e-16" in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("recover", "--cartan", '{"atoms": [{"x": null, "mass": 1}]}'),
        ("recover", "--cartan", '{"atoms": [1, 2]}'),
        ("eval", "--state", '{"beta": 1.0, "kind": "gibbs", "lambda": null}'),
        ("eval", "--state",
         '{"beta": 1.0, "kind": "mixture", "m1": 0.0, "atoms": [{"lambda": null, "w": 1.0}]}'),
        ("eval", "--state", '[{"beta": 1.0, "kind": "vacuum"}]'),
    ],
    ids=["cartan-null-x", "cartan-bare-numbers", "gibbs-null-lambda",
         "mixture-null-lambda", "state-array"],
)
def test_malformed_json_exits_2(tmp_path, command, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    extra = ["--beta", "1.0"] if command == "recover" else ["--expr", "X Y"]
    result = run_cli(command, flag, str(path), *extra)
    assert result.returncode == 2
    assert f"invalid {flag[2:]} file" in result.stderr
    assert "Traceback" not in result.stderr


class TestLazyRecoveryImport:
    """Only ``recover`` loads swnkms.recovery, and nothing in swnkms loads scipy."""

    def run_python(self, code):
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=CLI_TIMEOUT
        )

    def test_import_cli_skips_scipy(self):
        result = self.run_python("import sys, swnkms.cli; print('scipy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_eval_skips_scipy(self, gibbs_file):
        code = (
            "import sys; from swnkms.cli import main; "
            f"code = main(['eval', '--state', {gibbs_file!r}, '--expr', 'X Y', '--method', 'both']); "
            "print(code, 'scipy' in sys.modules)"
        )
        result = self.run_python(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_import_recovery_skips_scipy(self):
        result = self.run_python("import sys, swnkms.recovery; print('scipy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_recover_cartan_skips_scipy(self, tmp_path):
        restriction = cartan_restriction(StateSpec.gibbs(1.5, 1.0))
        cartan_path = tmp_path / "cartan.json"
        cartan_path.write_text(json.dumps({
            "m0": restriction.m0,
            "atoms": [{"x": x, "mass": m} for x, m in restriction.atoms],
        }))
        code = (
            "import sys; from swnkms.cli import main; "
            f"code = main(['recover', '--cartan', {str(cartan_path)!r}, '--beta', '1.0']); "
            "print(code, 'scipy' in sys.modules)"
        )
        result = self.run_python(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_chi_fit_runs_without_scipy(self, tmp_path):
        # With scipy blocked, so that importing any part of it raises, chi_fit
        # accepts in the box, falls back to BVLS off it and rejects a Gaussian,
        # and ``recover --chi`` runs; no scipy module is loaded afterwards.  The
        # negative atom makes five nodes in chi/g: at 2 atoms the pencil's
        # singular values reject it before any weight solve, at 3 BVLS runs.
        ts = np.linspace(-10.0, 10.0, 101)
        state = StateSpec.mixture(SpectralMeasure(0.2, [(1.3, 0.3), (3.7, 0.5)]), 1.0)
        chi_path, out_path = tmp_path / "chi.csv", tmp_path / "recovered.json"
        rows = zip(ts.tolist(), chi_closed_form(state, ts).tolist())
        text = "".join(f"{t!r},{c.real!r},{c.imag!r}\n" for t, c in rows)
        chi_path.write_text("t,re_chi,im_chi\n" + text)
        code = textwrap.dedent(f"""
            import math, sys
            sys.modules["scipy"] = None
            import numpy as np
            from swnkms import recovery
            from swnkms.cli import main
            from swnkms.states import SpectralMeasure, StateSpec, chi_closed_form

            bvls, calls = recovery.lsq_linear, []
            recovery.lsq_linear = lambda *args: calls.append(1) or bvls(*args)
            ts = np.linspace(-10.0, 10.0, 101)
            state = StateSpec.mixture(SpectralMeasure(0.2, [(1.3, 0.3), (3.7, 0.5)]), 1.0)
            chis = chi_closed_form(state, ts)
            geom = recovery._geometric_factor(ts, math.exp(-1.0))
            negative = chis - 0.05 * geom * np.exp(5j * ts)
            gaussian = np.exp(-ts * ts).astype(complex)
            for chi, max_atoms in ((chis, 2), (negative, 3), (gaussian, 2)):
                try:
                    recovery.chi_fit(list(zip(ts, chi)), 1.0, max_atoms)
                    print("accepted", len(calls) > 0)
                except recovery.NotExtendable:
                    print("rejected", len(calls) > 0)
                calls.clear()
            print("recover", main(["recover", "--chi", {str(chi_path)!r}, "--beta", "1.0",
                                   "--max-atoms", "2", "--out", {str(out_path)!r}]))
            assert sys.modules.pop("scipy") is None
            print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """)
        result = self.run_python(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "accepted False", "rejected True", "rejected False", "recover 0", "[]",
        ]
        report = json.loads(out_path.read_text())
        assert [atom["lambda"] for atom in report["atoms"]] == pytest.approx([1.3, 3.7])


class TestExports:
    """``swnkms.__all__`` is the package's whole public surface, and every name in it resolves."""

    EXPORTS = {
        "AlgebraElement", "CartanMeasure", "FunctionExpr", "H", "IllPosed", "KmsReport", "N",
        "NotExtendable", "ParseError", "RecoveryResult", "SpectralMeasure", "StateSpec",
        "TruncatedRep", "X", "Y", "build_rep", "cartan_moment", "cartan_restriction",
        "chi_closed_form", "chi_fit", "commutator", "eval_kms_recursion", "eval_trace",
        "eval_traces", "format_element", "format_function", "from_swn_basis", "gram_psd_check",
        "kms_check", "ladder_diagonal", "ladder_peel", "load_state", "parse_element",
        "parse_function", "reduce_word", "relation_residuals", "represent", "save_state",
        "scalar_product_weights", "state_from_dict", "state_to_dict", "support_positivity_check",
        "to_swn_basis",
    }

    def test_every_export_resolves(self):
        import swnkms

        assert set(swnkms.__all__) == self.EXPORTS
        assert len(swnkms.__all__) == len(self.EXPORTS)
        for name in swnkms.__all__:
            assert getattr(swnkms, name) is not None, name

    def test_no_public_name_outside_all(self):
        import types

        import swnkms

        public = {name for name, value in vars(swnkms).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public <= set(swnkms.__all__)

    def test_a_state_is_beta_and_measure(self):
        import dataclasses

        assert [field.name for field in dataclasses.fields(StateSpec)] == ["beta", "measure"]
        assert {name for name in vars(StateSpec) if not name.startswith("_")} == {
            "vacuum", "gibbs", "mixture"}


class TestChi:
    def test_header_and_endpoints(self, gibbs_file):
        result = run_cli(
            "chi", "--state", gibbs_file,
            "--t-min", "0", "--t-max", "3.141592653589793", "--steps", "3",
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "t,re_chi,im_chi"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0)
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(-1.0, abs=1e-12)

    def test_cross_check_discrepancy_small(self, gibbs_file):
        result = run_cli(
            "chi", "--state", gibbs_file, "--steps", "11", "--cross-check",
        )
        assert result.returncode == 0
        tail = result.stdout.splitlines()[-1]
        assert tail.startswith("# max_discrepancy,")
        assert float(tail.split(",")[1]) <= 1e-8

    def test_too_few_steps_exits_2(self, gibbs_file):
        result = run_cli("chi", "--state", gibbs_file, "--steps", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize("bound", ["--t-min=nan", "--t-max=inf", "--t-min=-inf", "--t-max=nan"])
    def test_non_finite_time_bound_exits_2(self, gibbs_file, bound):
        result = run_cli("chi", "--state", gibbs_file, "--steps", "3", bound)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "must be finite" in result.stderr


class TestKmsCheckCommand:
    def test_valid_state_exits_0(self, gibbs_file):
        result = run_cli(
            "kms-check", "--state", gibbs_file,
            "--degree", "3", "--trials", "30", "--seed", "42",
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["max_residual"] <= report["tolerance"]

    def test_sabotage_exits_1(self, gibbs_file):
        result = run_cli(
            "kms-check", "--state", gibbs_file,
            "--degree", "3", "--trials", "30", "--seed", "42",
            "--sabotage-dynamics",
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["max_residual"] > 1e-2

    def test_overflowing_dynamics_exits_2(self, tmp_path):
        # e^{beta |w|} at beta 200 and weight 4 is past the float range
        path = tmp_path / "cold.json"
        save_state(StateSpec.gibbs(1.5, 200.0), path)
        result = run_cli("kms-check", "--state", str(path), "--degree", "4")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "beta=200.0, dynamics_scale=1.0 on weight" in result.stderr

    def test_zero_trials_exits_2(self, gibbs_file):
        result = run_cli("kms-check", "--state", gibbs_file, "--trials", "0")
        assert result.returncode == 2

    def test_negative_degree_exits_2(self, gibbs_file):
        result = run_cli("kms-check", "--state", gibbs_file, "--trials", "2", "--degree", "-1")
        assert result.returncode == 2
        assert "max_degree must be >= 0" in result.stderr
        assert result.stdout == ""

    def test_seed_env_default(self, gibbs_file, monkeypatch):
        import os

        env = dict(os.environ, SWN_KMS_SEED="42")
        with_env = run_cli(
            "kms-check", "--state", gibbs_file, "--degree", "2", "--trials", "5",
            env=env,
        )
        with_flag = run_cli(
            "kms-check", "--state", gibbs_file, "--degree", "2", "--trials", "5",
            "--seed", "42",
        )
        assert with_env.stdout == with_flag.stdout

    @pytest.mark.parametrize("value", ["abc", "1e3", "-3"])
    def test_bad_seed_env_exits_2(self, gibbs_file, value):
        env = dict(os.environ, SWN_KMS_SEED=value)
        result = run_cli("kms-check", "--state", gibbs_file, "--trials", "2", env=env)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "SWN_KMS_SEED" in result.stderr

    def test_negative_seed_flag_exits_2(self, gibbs_file):
        result = run_cli("kms-check", "--state", gibbs_file, "--trials", "2", "--seed", "-1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "--seed" in result.stderr

    def test_other_subcommands_ignore_seed_env(self):
        env = dict(os.environ, SWN_KMS_SEED="abc")
        result = run_cli("relations", "--lambda", "1", "--dim", "8", env=env)
        assert result.returncode == 0

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_bad_tol_exits_2(self, gibbs_file, tol):
        result = run_cli("kms-check", "--state", gibbs_file, "--trials", "2", f"--tol={tol}")
        assert result.returncode == 2
        assert "tol must be positive and finite" in result.stderr


class TestGramCheckCommand:
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_bad_tol_exits_2(self, gibbs_file, tol):
        result = run_cli("gram-check", "--state", gibbs_file, "--word", "X", f"--tol={tol}")
        assert result.returncode == 2
        assert "tol must be positive and finite" in result.stderr


class TestRecover:
    def test_cartan_roundtrip(self, tmp_path):
        state = StateSpec.gibbs(1.5, 1.0)
        restriction = cartan_restriction(state)
        cartan_path = tmp_path / "cartan.json"
        cartan_path.write_text(json.dumps({
            "m0": restriction.m0,
            "atoms": [{"x": x, "mass": m} for x, m in restriction.atoms],
        }))
        result = run_cli("recover", "--cartan", str(cartan_path), "--beta", "1.0")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["m1"] == 0.0
        assert len(report["atoms"]) == 1
        assert report["atoms"][0]["lambda"] == pytest.approx(1.5, abs=1e-9)
        assert report["method"] == "ladder-peel"

    def test_chi_constant_is_vacuum(self, tmp_path):
        chi_path = tmp_path / "chi.csv"
        rows = ["t,re_chi,im_chi"]
        for t in np.linspace(-10, 10, 101):
            rows.append(f"{float(t)!r},1.0,0.0")
        chi_path.write_text("\n".join(rows) + "\n")
        result = run_cli("recover", "--chi", str(chi_path), "--beta", "1.0")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["m1"] == pytest.approx(1.0)
        assert report["atoms"] == []

    def test_tampered_ladder_exits_1(self, tmp_path):
        state = StateSpec.gibbs(1.5, 1.0)
        atoms = list(cartan_restriction(state).atoms)
        atoms[1] = (atoms[1][0], atoms[1][1] - 0.05)
        atoms.append((99.5, 0.05))
        cartan_path = tmp_path / "bad.json"
        cartan_path.write_text(json.dumps({
            "m0": 0.0,
            "atoms": [{"x": x, "mass": m} for x, m in atoms],
        }))
        result = run_cli("recover", "--cartan", str(cartan_path), "--beta", "1.0")
        assert result.returncode == 1
        assert "NotExtendable" in result.stderr

    def test_bare_delta_at_small_beta_exits_1(self, tmp_path):
        cartan_path = tmp_path / "delta.json"
        cartan_path.write_text(json.dumps({"m0": 0.0, "atoms": [{"x": 1.0, "mass": 1.0}]}))
        result = run_cli("recover", "--cartan", str(cartan_path), "--beta", "1e-5")
        assert result.returncode == 1
        assert "NotExtendable" in result.stderr

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "0"])
    def test_bad_beta_exits_2(self, tmp_path, beta):
        # a real ladder: with beta = nan, ladder_peel used to wait forever on it
        restriction = cartan_restriction(StateSpec.gibbs(1.5, 1.0))
        cartan_path = tmp_path / "cartan.json"
        cartan_path.write_text(json.dumps({
            "m0": restriction.m0,
            "atoms": [{"x": x, "mass": m} for x, m in restriction.atoms],
        }))
        result = run_cli("recover", "--cartan", str(cartan_path), f"--beta={beta}")
        assert result.returncode == 2
        assert "beta must be positive and finite" in result.stderr

    @pytest.mark.parametrize("source", ["cartan", "chi"])
    def test_beta_whose_ratio_rounds_to_one_exits_2(self, tmp_path, source):
        # e^{-1e-17} is 1.0: the peel used to die with ZeroDivisionError (exit 1)
        # and the fit with scipy's bare "array must not contain infs or NaNs"
        if source == "cartan":
            path = tmp_path / "cartan.json"
            path.write_text(json.dumps({"m0": 0.0, "atoms": [{"x": 1.5, "mass": 1.0}]}))
        else:
            path = tmp_path / "chi.csv"
            path.write_text("".join(f"{float(t)!r},1.0,0.0\n" for t in np.linspace(-10, 10, 101)))
        result = run_cli("recover", f"--{source}", str(path), "--beta", "1e-17")
        assert result.returncode == 2
        assert "beta must be positive and above ~1e-16" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_needs_exactly_one_input(self, tmp_path):
        result = run_cli("recover", "--beta", "1.0")
        assert result.returncode == 2

    @pytest.mark.parametrize("source, tol", [("cartan", "nan"), ("chi", "nan"), ("chi", "inf")])
    def test_bad_tol_exits_2(self, tmp_path, source, tol):
        # a ladder or chi table that recovers cleanly at the default tol
        state = StateSpec.gibbs(1.5, 1.0)
        if source == "cartan":
            restriction = cartan_restriction(state)
            path = tmp_path / "cartan.json"
            path.write_text(json.dumps({
                "m0": restriction.m0,
                "atoms": [{"x": x, "mass": m} for x, m in restriction.atoms],
            }))
        else:
            ts = np.linspace(-10, 10, 101)
            path = tmp_path / "chi.csv"
            path.write_text("".join(
                f"{float(t)!r},{float(c.real)!r},{float(c.imag)!r}\n"
                for t, c in zip(ts, chi_closed_form(state, ts))
            ))
        result = run_cli("recover", f"--{source}", str(path), "--beta", "1.0", f"--tol={tol}")
        assert result.returncode == 2
        assert "tol must be positive and finite" in result.stderr

    def test_negative_max_atoms_exits_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = run_cli("recover", "--chi", str(empty), "--beta", "1.0", "--max-atoms", "-1")
        assert result.returncode == 2
        assert result.stdout == ""

    def test_gaussian_chi_exits_1_with_the_bound(self, tmp_path):
        # on a uniform grid the pencil's singular values prove the rejection
        chi_path = tmp_path / "gauss.csv"
        rows = ["t,re_chi,im_chi"]
        rows += [f"{float(t)!r},{math.exp(-t * t)!r},0.0" for t in np.linspace(-10, 10, 101)]
        chi_path.write_text("\n".join(rows) + "\n")
        args = ("recover", "--chi", str(chi_path), "--beta", "1.0", "--max-atoms", "2")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 1
        assert first.stdout == ""
        assert first.stderr.startswith("NotExtendable: no fit with at most 2 atoms")
        assert (second.returncode, second.stdout, second.stderr) == (1, "", first.stderr)

    def test_non_finite_chi_row_exits_2(self, tmp_path):
        chi_path = tmp_path / "chi.csv"
        rows = ["t,re_chi,im_chi", "nan,1.0,0.0"]
        rows += [f"{float(t)!r},1.0,0.0" for t in np.linspace(-10, 10, 101)]
        chi_path.write_text("\n".join(rows) + "\n")
        result = run_cli("recover", "--chi", str(chi_path), "--beta", "1.0")
        assert result.returncode == 2
        assert "samples must be finite" in result.stderr
        assert result.stdout == ""


class TestDeterminism:
    def test_kms_report_bytes_identical(self, gibbs_file):
        args = ("kms-check", "--state", gibbs_file, "--degree", "3",
                "--trials", "20", "--seed", "7")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_chi_csv_bytes_identical(self, gibbs_file):
        args = ("chi", "--state", gibbs_file, "--steps", "51")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_relations_bytes_identical(self):
        args = ("relations", "--lambda", "0.3,1.5", "--dim", "32")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_recover_bytes_identical(self, tmp_path):
        state = StateSpec.mixture(SpectralMeasure(0.3, ((1.2, 0.4), (4.0, 0.3))), 1.0)
        chi_path = tmp_path / "chi.csv"
        ts = np.linspace(-10, 10, 101)
        rows = ["t,re_chi,im_chi"]
        for t, c in zip(ts, chi_closed_form(state, ts)):
            rows.append(f"{float(t)!r},{float(c.real)!r},{float(c.imag)!r}")
        chi_path.write_text("\n".join(rows) + "\n")
        args = ("recover", "--chi", str(chi_path), "--beta", "1.0")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout


# One mixture state, written as text so that no library spelling of a state is involved.
FIXTURE_STATE = (
    '{"atoms": [{"lambda": 0.7, "w": 0.45}, {"lambda": 2.9, "w": 0.3}], '
    '"beta": 0.8, "kind": "mixture", "m1": 0.25}\n'
)
FIXTURE_BETA = "0.8"
# (exit code, sha256 of stdout) per job, recorded before StateSpec became (beta, measure).
PINNED_OUTPUTS = {
    "eval": (0, "e1bf7c2388c6a1130d8aa62559f6748b0a8e06a95dc9a4689896e4faa0f0985a"),
    "chi": (0, "49d1611cc903e5999a2b507efbe9f1b3d0f580c7f3afa9678b8ca6fe39983625"),
    "kms": (0, "ddbf7864ed62e2beb904e820e3ab2d568f2c40be403c0a1f1d7c98853a93134f"),
    "kms_sabotage": (1, "42af23aa59a9128399d590154e585ca8c0c4452701b8eb747a9f548860e4503f"),
    "gram": (0, "45c8eb6760fe1ffcfb89ef703e31c3f6ec9ed2c961d5fb2c4620deb6976a394c"),
    "recover_chi": (0, "cb09d936457dcb7af030941af81118667e80dcc56e1121b3b0004400882d5fdf"),
    "relations": (0, "fbd4028045084c8a7e31b1e8af1b8c833ef6ea193a27f9f925180226d4c13a2c"),
}
# recover --cartan from the fixture's restriction: its input depends on where the
# ladder is cut, so its report is pinned by value.
PINNED_CARTAN_REPORT = {
    "atoms": [{"lambda": 0.7, "w": 0.45}, {"lambda": 2.9, "w": 0.3}],
    "beta": 0.8,
    "kind": "mixture",
    "m1": 0.25,
    "method": "ladder-peel",
    "residual": 6.946159991238355e-18,
}


@pytest.fixture
def fixture_files(tmp_path):
    state_path = tmp_path / "state.json"
    state_path.write_text(FIXTURE_STATE)
    state = json.loads(FIXTURE_STATE)
    measure = SpectralMeasure(state["m1"], [(a["lambda"], a["w"]) for a in state["atoms"]])
    ts = np.linspace(-10, 10, 101)
    rows = ["t,re_chi,im_chi"]
    for t, c in zip(ts, chi_closed_form(StateSpec.mixture(measure, state["beta"]), ts)):
        rows.append(f"{float(t)!r},{float(c.real)!r},{float(c.imag)!r}")
    chi_path = tmp_path / "chi.csv"
    chi_path.write_text("\n".join(rows) + "\n")
    return str(state_path), str(chi_path)


def fixture_jobs(state_path, chi_path):
    return {
        "eval": ("eval", "--state", state_path, "--expr", "X^2 Y^2 N[0.5*x + 0.3*exp(0.7)]",
                 "--method", "both"),
        "chi": ("chi", "--state", state_path, "--t-min", "-5", "--t-max", "5", "--steps", "21",
                "--cross-check"),
        "kms": ("kms-check", "--state", state_path, "--degree", "3", "--trials", "20", "--seed", "5"),
        "kms_sabotage": ("kms-check", "--state", state_path, "--degree", "3", "--trials", "60",
                         "--seed", "5", "--sabotage-dynamics"),
        "gram": ("gram-check", "--state", state_path, "--word", "1", "--word", "X",
                 "--word", "X Y", "--word", "(X+Y+H)^2"),
        "recover_chi": ("recover", "--chi", chi_path, "--beta", FIXTURE_BETA, "--max-atoms", "3"),
        "relations": ("relations", "--lambda", "0.3,1.7", "--dim", "32"),
    }


class TestPinnedFixtureOutputs:
    """The CLI's reports on one fixed state file keep their exit codes and bytes."""

    @pytest.mark.parametrize("job", sorted(PINNED_OUTPUTS))
    def test_stdout_is_pinned(self, fixture_files, job):
        result = run_cli(*fixture_jobs(*fixture_files)[job])
        digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
        assert (result.returncode, digest) == PINNED_OUTPUTS[job], result.stderr

    def test_recover_cartan_values_are_pinned(self, fixture_files, tmp_path):
        restriction = cartan_restriction(load_state(fixture_files[0]))
        cartan_path = tmp_path / "cartan.json"
        cartan_path.write_text(json.dumps({
            "m0": restriction.m0,
            "atoms": [{"x": x, "mass": m} for x, m in restriction.atoms],
        }))
        result = run_cli("recover", "--cartan", str(cartan_path), "--beta", FIXTURE_BETA)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        expected = PINNED_CARTAN_REPORT
        assert sorted(report) == sorted(expected)
        assert (report["kind"], report["method"], report["beta"]) == (
            expected["kind"], expected["method"], expected["beta"])
        assert report["m1"] == pytest.approx(expected["m1"], abs=1e-12)
        assert report["residual"] == pytest.approx(expected["residual"], abs=1e-12)
        assert len(report["atoms"]) == len(expected["atoms"])
        for got, want in zip(report["atoms"], expected["atoms"]):
            assert got["lambda"] == pytest.approx(want["lambda"], abs=1e-12)
            assert got["w"] == pytest.approx(want["w"], abs=1e-12)


class TestRepExport:
    def test_writes_matrices(self, tmp_path):
        prefix = str(tmp_path / "rep_")
        result = run_cli("rep", "--lambda", "1.0", "--dim", "4", "--out", prefix)
        assert result.returncode == 0
        matx = (tmp_path / "rep_matx.csv").read_text().splitlines()
        assert len(matx) == 4
        cartan = (tmp_path / "rep_cartan.csv").read_text().splitlines()
        assert [float(v) for v in cartan] == [1.0, 3.0, 5.0, 7.0]

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exits_2(self, tmp_path, lam):
        result = run_cli("rep", "--lambda", lam, "--dim", "4", "--out", str(tmp_path / "rep_"))
        assert result.returncode == 2
        assert "positive and finite" in result.stderr
        assert list(tmp_path.iterdir()) == []
