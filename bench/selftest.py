"""Self-test of the benchmark: the oracle, the tracer, the result format.

Usage, from the root of a checkout:  python3 bench/selftest.py

* The oracle pins rho(XY) = -3 for Gibbs(lambda=1, beta=ln 2) to 1e-40,
  agrees with ``eval_trace`` to 1e-12 for d <= 3 (relative to the sum of
  the terms' absolute values, as the benchmark's checks measure) and with
  ``chi_closed_form`` to 1e-13.
* The tracer replaces a function in every namespace that bound it and
  restores the originals.
* A short traced run of every workload is correct, gives bit-identical
  outcomes traced and untraced, and keeps the bypass predictions: no
  ``recovery`` calls on recursion and verify, no ``eval_kms_recursion``
  calls on verify and recover, and calls into every layer named for a
  workload.
* The speed correction: an interval's time at reference speed takes the
  handler's time out and scales by the samples around it; a sampler started
  and stopped takes samples and restores the SIGALRM handler.
* Making a workload's inputs does not import the oracle (mpmath), so set-up
  time and peak memory are the program's.
* BENCHMARK.json names exactly the metrics the runs print.
* In a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero and prints no result.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import mpmath as mp  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

#: Layers each workload must call (nonzero ``calls``, or ``self_ms`` where a
#: layer reports only time).
EXPECTED = {
    "recursion": ("funcspace.construct.calls", "funcspace.shift.calls", "funcspace.mul.calls",
                  "funcspace.evaluate.calls", "states.eval_kms_recursion.calls",
                  "states.cartan_restriction.calls"),
    "verify": ("algebra.mul.calls", "algebra.star.calls", "states.eval_trace.calls",
               "reps.ladder_diagonal.calls", "verify.kms_check.calls",
               "verify.gram_psd_check.calls", "grammar.format.calls"),
    "recover": ("recovery.chi_fit.calls", "recovery.ladder_peel.calls",
                "recovery.lsq_linear.calls", "recovery.least_squares.calls"),
    "cli": ("cli.main.self_ms", "grammar.parse.calls", "reps.build_rep.self_ms",
            "reps.relation_residuals.self_ms", "states.chi_closed_form.self_ms",
            "states.eval_trace.calls", "states.eval_kms_recursion.calls",
            "verify.kms_check.calls", "recovery.chi_fit.calls", "recovery.ladder_peel.calls"),
}
#: Layers each workload must bypass (zero ``calls``).
BYPASSED = {
    "recursion": ("recovery.",),
    "verify": ("recovery.", "states.eval_kms_recursion."),
    "recover": ("states.eval_kms_recursion.",),
}


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_oracle():
    from swnkms import (
        AlgebraElement, FunctionExpr, SpectralMeasure, StateSpec, chi_closed_form, eval_trace,
    )

    value = oracle.state_value(0.0, [(1.0, 1.0)], mp.log(2), 1, [(0, 0.0, 1.0)])
    check(abs(value + 3) < mp.mpf("1e-40"), f"rho(XY) at lambda=1, beta=ln 2 is {value}, not -3")
    cases = [
        (0.0, [(1.3, 1.0)], 0.7, [(1, 0.0, 1.0), (0, 0.7, 0.5 - 0.2j)]),
        (0.3, [(0.8, 0.4), (2.5, 0.3)], 1.6, [(2, 0.0, 1.0), (1, -0.4, 1j)]),
        (0.0, [(3.7, 1.0)], 0.5, [(0, 1.2, 2.0)]),
    ]
    for m1, atoms, beta, terms in cases:
        state = StateSpec.mixture(SpectralMeasure(m1, atoms), beta)
        for d in range(4):
            element = AlgebraElement.monomial(d, d, FunctionExpr(terms))
            ref = oracle.state_value(m1, atoms, beta, d, terms)
            scale = oracle.state_scale(m1, atoms, beta, d, terms)
            err = oracle.rel_error(eval_trace(state, element), ref, scale)
            check(err < 1e-12, f"oracle vs eval_trace at d={d}, beta={beta}: {err:.2e}")
        for t in (-3.0, 0.0, 0.4, 2.5):
            err = oracle.rel_error(chi_closed_form(state, t), oracle.chi(m1, atoms, beta, t))
            check(err < 1e-13, f"oracle chi vs chi_closed_form at t={t}: {err:.2e}")


def test_namespaces():
    import swnkms.cli
    import swnkms.recovery
    import swnkms.states
    import swnkms.verify

    bound = [(swnkms.states, "ladder_diagonal"), (swnkms.verify, "eval_trace"),
             (swnkms.cli, "chi_fit"), (swnkms.recovery, "lsq_linear")]
    before = [getattr(module, name) for module, name in bound]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(bound, before):
            check(getattr(module, name) is not original, f"{module.__name__}.{name} not wrapped")
    finally:
        tracer.uninstall()
    for (module, name), original in zip(bound, before):
        check(getattr(module, name) is original, f"{module.__name__}.{name} not restored")


def test_speed():
    sampler = speed.Sampler()
    # Samples at 0, 1, 2, 3 s; the op ran from 0.5 to 2.5 s and was
    # interrupted by the samples at 1 and 2 s (0.1 s each).
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.durations = [0.1, 0.1, 0.1, 0.3]
    expected = (2.0 - 0.2) * speed.REFERENCE_S * 4 / 0.6
    got = sampler.at_reference(0.5, 2.5)
    check(abs(got - expected) < 1e-15, f"at_reference gave {got}, expected {expected}")
    with speed.Sampler() as live:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    check(len(live.durations) >= 5, f"only {len(live.durations)} speed samples in 0.1 s")
    check(signal.getsignal(signal.SIGALRM) is signal.SIG_DFL, "SIGALRM handler not restored")


def test_lazy_oracle():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
            "[workloads.WORKLOADS[n](1, sys.argv[3]) for n in ('recursion', 'verify', 'recover')]; "
            "print(int('mpmath' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, BENCH, os.path.join(ROOT, "src"), ROOT],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0 and proc.stdout.strip() == "0",
          f"making inputs imported mpmath or failed: {proc.stdout!r} {proc.stderr[-500:]}")


def traced(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    check(proc.returncode == 0, f"traced {workload} run exited {proc.returncode}: {proc.stderr[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_runs", f"{workload}-seed3-trace1.json"), encoding="utf-8") as fh:
        detail = json.load(fh)
    return result, detail


def test_traced_runs(declared):
    for workload in run.WORKLOAD_NAMES:
        result, detail = traced(workload)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(result["correct"] and result["failed"] == 0, f"{workload}: {detail['verdicts']}")
        check(not detail["traced_mismatches"],
              f"{workload}: traced outcomes differ on ops {detail['traced_mismatches']}")
        check(set(metrics) == declared, f"{workload}: traced metrics differ from BENCHMARK.json")
        for name in EXPECTED[workload]:
            check(metrics[name] > 0, f"{workload}: expected calls into {name}")
        for prefix in BYPASSED.get(workload, ()):
            for name, value in metrics.items():
                if name.startswith(prefix) and name.endswith(".calls"):
                    check(value == 0, f"{workload}: {name} = {value}, predicted 0")
        print(f"selftest: {workload} traced run ok ({len(result['metrics'])} metrics)")


def test_empty_directory():
    bare = os.path.join(ROOT, ".bench_runs", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, os.path.basename(BENCH)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(BENCH), "run.py"), "--workload", "recursion",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"run without the package exited {proc.returncode} with output {proc.stdout!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
          "BENCHMARK.json per_layer differs from run.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
          "BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    test_oracle()
    print("selftest: oracle ok")
    test_namespaces()
    print("selftest: wrappers installed in every namespace and restored")
    test_speed()
    print("selftest: speed correction ok")
    test_lazy_oracle()
    print("selftest: inputs made without the oracle")
    test_empty_directory()
    print("selftest: run without the package fails cleanly")
    test_traced_runs({m["name"] for m in spec["per_layer"]})
    print("selftest ok")


if __name__ == "__main__":
    main()
