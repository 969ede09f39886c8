"""Benchmark for swnkms: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the root of a checkout (the package is taken from ``src/``):

    python3 bench/run.py --workload recursion --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Workloads (see ``workloads.py``): recursion, verify, recover, cli.  One
caller runs one op at a time (a closed loop) in whole rounds until
``--seconds`` of op time have passed; inputs come from (seed, op index).
After the timed window every op's outcome is checked.

``--trace 0`` prints the end-to-end metrics.  Their timings are taken at
reference speed (see ``speed.py``): the run pins itself and its children to
one vCPU and corrects each op's wall time by the speed of that vCPU while the
op ran, measured by a fixed piece of work outside the package.

``--trace 1`` runs half as long untraced (per-kind latencies at reference
speed), replays the same ops under the span tracer (``spans.py``), checks
that both give bit-identical outcomes, and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A fuller record of the run goes to ``.bench_runs/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here or in any child, so the
# numbers measure the program rather than thread scheduling.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_runs")
WORKLOAD_NAMES = ("recursion", "verify", "recover", "cli")
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
CHILD_TIMEOUT = 150

#: (name, unit, better) of the end-to-end metrics in the result line.
#: fail_frac is printed in the table; in the result line it is ``failed``
#: over ``attempted``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("accuracy_digits", "digits", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Layers whose calls and self time the traced run reports.
TIMED_LAYERS = (
    "funcspace.construct", "funcspace.shift", "funcspace.mul", "funcspace.evaluate",
    "algebra.mul", "algebra.construct", "algebra.star", "algebra.reduce_word",
    "reps.ladder_diagonal", "states.eval_trace", "states.eval_kms_recursion",
    "states.cartan_restriction", "verify.kms_check", "verify.gram_psd_check",
    "recovery.chi_fit", "recovery.ladder_peel", "grammar.parse", "grammar.format",
)

#: (name, unit, better) of the per-layer metrics in the traced result line.
PER_LAYER = (
    tuple((f"{layer}.{stat}", unit, "lower") for layer in TIMED_LAYERS
          for stat, unit in (("calls", "count"), ("self_ms", "ms")))
    + (
        ("funcspace.construct.terms_in", "count", "lower"),
        ("funcspace.construct.keep_ratio", "ratio", "higher"),
        ("funcspace.evaluate.points", "count", "lower"),
        ("algebra.reorder_cache.hit_ratio", "ratio", "higher"),
        ("reps.build_rep.self_ms", "ms", "lower"),
        ("reps.relation_residuals.self_ms", "ms", "lower"),
        ("states.eval_kms_recursion.d1_p50_ms", "ms", "lower"),
        ("states.eval_kms_recursion.d3_p50_ms", "ms", "lower"),
        ("states.eval_kms_recursion.d6_p50_ms", "ms", "lower"),
        ("states.eval_kms_recursion.d8_p50_ms", "ms", "lower"),
        ("states.cartan_restriction.atoms", "count", "lower"),
        ("states.chi_closed_form.self_ms", "ms", "lower"),
        ("verify.kms_check.pairs", "count", "lower"),
        ("verify.kms_check.low_beta_residual", "ratio", "lower"),
        ("recovery.chi_fit.accept_p50_ms", "ms", "lower"),
        ("recovery.chi_fit.reject_p50_ms", "ms", "lower"),
        ("recovery.chi_fit.nonuniform_p50_ms", "ms", "lower"),
        ("recovery.nonuniform_misses", "count", "lower"),
        ("recovery.chi_fit.gauss_reject_p50_ms", "ms", "lower"),
        ("recovery.chi_fit.expabs_reject_p50_ms", "ms", "lower"),
        ("recovery.lsq_linear.calls", "count", "lower"),
        ("recovery.least_squares.calls", "count", "lower"),
        ("recovery.least_squares_per_fit", "ratio", "lower"),
        ("recovery.solver_ms", "ms", "lower"),
        ("recovery.noisy_slack_spurious", "count", "lower"),
        ("recovery.near_two_misses", "count", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.scipy_loaded", "flag", "lower"),
        ("cli.startup_ms", "ms", "lower"),
        ("cli.main.self_ms", "ms", "lower"),
        ("cli.help_p50_ms", "ms", "lower"),
        ("trace_overhead", "ratio", "lower"),
    )
)

CHI_FIT_KINDS = ("uniform", "noisy", "gauss", "expabs")


def clear_caches() -> None:
    """Empty every memo cache of the package, so each phase starts alike."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("swnkms"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def run_op(workload, op):
    try:
        return workload.execute(op)
    except Exception as exc:  # an unexpected failure is an op outcome, not the end of the run
        return ("raised", type(exc).__name__, str(exc))


def timed_rounds(workload, seconds):
    """Run whole rounds until ``seconds`` of op time have passed.

    Returns ([(op index, outcome, start, end)], busy seconds).  Only that much
    is kept per op, so memory does not grow with what the ops return or take;
    ``workload.op(index)`` rebuilds an op's inputs for the checks.
    """
    records = []
    busy = 0.0
    ops = workload.first_round
    r = 0
    clear_caches()
    while True:
        started = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            outcome = run_op(workload, op)
            records.append((op.index, outcome, t0, time.perf_counter()))
        busy += time.perf_counter() - started
        if busy >= seconds:
            return records, busy
        r += 1
        ops = workload.make_round(r)  # input generation stays outside the clock


def check_records(workload, records):
    """Verdict per op (ok / wrong / raised), the minimum accuracy digits and each op's kind."""
    counts = {"ok": 0, "wrong": 0, "raised": 0}
    by_kind: dict[str, dict[str, int]] = {}
    digits = []
    kinds = []
    for index, outcome, _, _ in records:
        op = workload.op(index)
        if outcome[0] == "raised":
            verdict = "raised"
        else:
            try:
                right, d = workload.check(op, outcome)
            except (ValueError, KeyError, IndexError):  # output the check cannot read
                right, d = False, None
            verdict = "ok" if right else "wrong"
            if d is not None:
                digits.append(d)
        counts[verdict] += 1
        kind = by_kind.setdefault(op.kind, {"ok": 0, "wrong": 0, "raised": 0})
        kind[verdict] += 1
        kinds.append(op.kind)
    return counts, by_kind, (min(digits) if digits else None), kinds


def tail(latencies_ms):
    """(value, percentile, samples beyond): the highest percentile with >= 10 beyond."""
    ordered = sorted(latencies_ms)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def kind_p50(latencies_ms, kinds, outcomes, wanted, accepted=None):
    """Median latency (ms) of ops of the ``wanted`` kinds; 0 when there are none."""
    values = [
        ms for ms, kind, outcome in zip(latencies_ms, kinds, outcomes)
        if kind in wanted and (accepted is None or (outcome[0] == "value") == accepted)
    ]
    return statistics.median(values) if values else 0.0


def setup_probes(workload_name, seed, sampler):
    """Seconds from spawning a fresh interpreter to the moment it could start the
    first op, each as measured and at reference speed."""
    wall, reference = [], []
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        # perf_counter is CLOCK_MONOTONIC on Linux, one clock for every process.
        ready = float(proc.stdout.strip().splitlines()[-1])
        wall.append(ready - t0)
        reference.append(sampler.at_reference(t0, ready))
    return wall, reference


def import_probes():
    """(import_ms, scipy_loaded): ``import swnkms.cli`` minus a bare interpreter start."""
    bare, full, loaded = [], [], 0
    probe = "import sys, swnkms.cli; sys.stdout.write(str(int('scipy' in sys.modules)))"
    for _ in range(IMPORT_REPEATS):
        for code, into in (("pass", bare), (probe, full)):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            into.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
            if code == probe:
                loaded = int(proc.stdout.strip() or 0)
    return (statistics.median(full) - statistics.median(bare)) * 1e3, loaded


def environment():
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- the two kinds of run ---------------------------------------------------------


def plain_run(workload, args):
    with speed.Sampler() as sampler:
        records, busy = timed_rounds(workload, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setup_wall, setups = setup_probes(args.workload, args.seed, sampler)
    counts, by_kind, digits, kinds = check_records(workload, records)
    outcomes = [outcome for _, outcome, _, _ in records]
    latencies = [sampler.at_reference(t0, t1) * 1e3 for _, _, t0, t1 in records]
    wall = [(t1 - t0) * 1e3 for _, _, t0, t1 in records]
    tail_ms, tail_pct, beyond = tail(latencies)
    attempted = len(records)
    failed = counts["wrong"] + counts["raised"]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(attempted / (sum(latencies) / 1e3), "op/s"),
        "op_p50_ms": metric(statistics.median(latencies), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "accuracy_digits": metric(digits if digits is not None else 0.0, "digits"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    detail = {
        "fail_frac": failed / attempted,
        "verdicts": counts,
        "verdicts_by_kind": by_kind,
        "op_tail": {"percentile": tail_pct, "samples": attempted, "beyond": beyond},
        "setup_samples_s": setups,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "ops_per_s": attempted / busy,
            "op_p50_ms": statistics.median(wall),
            "op_tail_ms": tail(wall)[0],
            "slow_share": sampler.slow_share(),
            "speed_samples": len(sampler.durations),
        },
        "timed_seconds": busy,
        "kind_p50_ms": {k: kind_p50(latencies, kinds, outcomes, (k,)) for k in sorted(by_kind)},
    }
    return failed == 0, attempted, failed, metrics, detail


def traced_run(workload, args):
    import spans

    with speed.Sampler() as sampler:
        records, busy = timed_rounds(workload, args.seconds / 2.0)
    tracer = spans.Tracer()
    if args.workload == "cli":
        workload.trace_dir = os.path.join(OUT, f"cli-trace-seed{args.seed}")
        os.makedirs(workload.trace_dir, exist_ok=True)
    ops = [workload.op(index) for index, _, _, _ in records]
    clear_caches()
    tracer.install()
    try:
        started = time.perf_counter()
        traced = []
        for op in ops:
            tracer.begin_op(op.index)
            traced.append(run_op(workload, op))
            tracer.end_op()
        traced_wall = time.perf_counter() - started
        hits, misses = spans.reorder_cache()
    finally:
        tracer.uninstall()
    mismatched = [index for (index, outcome, _, _), t in zip(records, traced) if outcome != t]
    counts, by_kind, _, kinds = check_records(workload, records)
    outcomes = [outcome for _, outcome, _, _ in records]
    # Per-kind latencies at reference speed, from the untraced half.
    latencies = [sampler.at_reference(t0, t1) * 1e3 for _, _, t0, t1 in records]
    untraced = sum(t1 - t0 - sampler.inside(t0, t1) for _, _, t0, t1 in records)

    def p50(wanted, accepted=None):
        return kind_p50(latencies, kinds, outcomes, wanted, accepted)

    totals = tracer.totals()
    startup = []
    if args.workload == "cli":
        for path, wall in zip(workload.child_traces, workload.child_wall):
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
            spans.merge_totals(totals, child["totals"])
            startup.append((wall - child["main_s"]) * 1e3)
            hits += child["reorder_cache"][0]
            misses += child["reorder_cache"][1]
    import_ms, scipy_loaded = import_probes()
    nonuniform_misses, nonuniform_ms, spurious, near_two_misses = (
        workload.defect_probe() if args.workload == "recover" else (0, 0.0, 0, 0))
    low_beta_residual = workload.defect_probe() if args.workload == "verify" else 0.0

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    fits = total("recovery.chi_fit", "calls")
    extra = {
        "funcspace.construct.terms_in": total("funcspace.construct", "terms_in"),
        "funcspace.construct.keep_ratio": (
            total("funcspace.construct", "kept") / total("funcspace.construct", "terms_in")
            if total("funcspace.construct", "terms_in") else 0.0),
        "funcspace.evaluate.points": total("funcspace.evaluate", "points"),
        "algebra.reorder_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "reps.build_rep.self_ms": total("reps.build_rep", "self_ms"),
        "reps.relation_residuals.self_ms": total("reps.relation_residuals", "self_ms"),
        "states.cartan_restriction.atoms": total("states.cartan_restriction", "atoms"),
        "states.chi_closed_form.self_ms": total("states.chi_closed_form", "self_ms"),
        "verify.kms_check.pairs": total("verify.kms_check", "pairs"),
        "verify.kms_check.low_beta_residual": low_beta_residual,
        "recovery.chi_fit.accept_p50_ms": p50(CHI_FIT_KINDS, accepted=True),
        "recovery.chi_fit.reject_p50_ms": p50(CHI_FIT_KINDS, accepted=False),
        "recovery.chi_fit.nonuniform_p50_ms": nonuniform_ms,
        "recovery.nonuniform_misses": nonuniform_misses,
        "recovery.chi_fit.gauss_reject_p50_ms": p50(("gauss",), accepted=False),
        "recovery.chi_fit.expabs_reject_p50_ms": p50(("expabs",), accepted=False),
        "recovery.lsq_linear.calls": total("recovery.lsq_linear", "calls"),
        "recovery.least_squares.calls": total("recovery.least_squares", "calls"),
        "recovery.least_squares_per_fit": total("recovery.least_squares", "calls") / fits if fits else 0.0,
        "recovery.solver_ms": total("recovery.lsq_linear", "self_ms") + total("recovery.least_squares", "self_ms"),
        "recovery.noisy_slack_spurious": spurious,
        "recovery.near_two_misses": near_two_misses,
        "cli.import_ms": import_ms,
        "cli.scipy_loaded": scipy_loaded,
        "cli.startup_ms": statistics.median(startup) if startup else 0.0,
        "cli.main.self_ms": total("cli.main", "self_ms"),
        "cli.help_p50_ms": p50(("help",)),
        "trace_overhead": traced_wall / untraced,
    }
    for d in (1, 3, 6, 8):
        extra[f"states.eval_kms_recursion.d{d}_p50_ms"] = p50((f"d{d}",))
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in extra:
            value = extra[name]
        else:
            layer, _, stat = name.rpartition(".")
            value = total(layer, stat)
        metrics[name] = metric(value, unit)

    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
    attempted = len(records)
    failed = counts["wrong"] + counts["raised"] + len(mismatched)
    detail = {
        "verdicts": counts,
        "verdicts_by_kind": by_kind,
        "traced_mismatches": mismatched,
        "untraced_seconds": busy,
        "traced_seconds": traced_wall,
        "spans": len(tracer.start),
        "layer_totals": totals,
        "kind_p50_ms": {k: p50((k,)) for k in sorted(by_kind)},
    }
    return failed == 0, attempted, failed, metrics, detail


# -- entry points -------------------------------------------------------------------


def print_table(name, args, metrics, detail):
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, m in metrics.items():
        note = ""
        if key == "op_tail_ms":
            t = detail["op_tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} ops, {t['beyond']} beyond)"
        elif key == "setup_s":
            note = f"  (median of {len(detail['setup_samples_s'])} set-ups)"
        print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}{note}")
    if "fail_frac" in detail:
        print(f"  {'fail_frac':<42} {detail['fail_frac']:>14.6g} ratio  {detail['verdicts']}")
    for kind, verdicts in sorted(detail["verdicts_by_kind"].items()):
        print(f"    {kind:<16} p50 {detail['kind_p50_ms'][kind]:>10.3f} ms  {verdicts}")
    if detail.get("traced_mismatches"):
        print(f"  traced outcomes differ from untraced on ops {detail['traced_mismatches']}")


def run_all(args):
    """Every workload in turn, each in a fresh process, as the per-workload runs are."""
    combined = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            combined[f"{name}.{key}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "swnkms", "__init__.py")):
        sys.stderr.write(f"error: no package at {SRC}/swnkms; run from the root of a checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    # Children (set-up probes, CLI jobs) inherit the package path and the
    # thread pins; the CLI's default seed comes from its flags only.
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    os.environ.pop("SWN_KMS_SEED", None)

    if not args.setup_probe:
        speed.pin_to_one_cpu()

    import swnkms  # noqa: F401  (part of the set-up the probes time)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_probe:
        print(repr(time.perf_counter()))
        return 0
    run = traced_run if args.trace else plain_run
    correct, attempted, failed, metrics, detail = run(workload, args)
    detail["environment"] = environment()
    detail["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print_table(args.workload, args, metrics, detail)
    env = detail["environment"]
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
