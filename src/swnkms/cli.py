"""Batch-verification command line.

Subcommands: relations, eval, chi, kms-check, recover, rep.  Exit codes are a
scriptable contract: 0 success, 1 failed check / not extendable, 2 invalid
flags or files, 3 expression parse error.  All output is deterministic given
flags and seed (env SWN_KMS_SEED supplies kms-check's default seed).  Only
``recover`` imports ``swnkms.recovery``; no subcommand loads scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .algebra import N
from .funcspace import FunctionExpr
from .grammar import ParseError, parse_element, parse_function
from .reps import build_rep, relation_residuals
from .states import (
    CartanMeasure,
    StateSpec,
    chi_closed_form,
    eval_kms_recursion,
    eval_trace,
    eval_traces,
    load_state,
    state_to_dict,
)
from .verify import gram_psd_check, kms_check, support_positivity_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_PARSE = 3


def __getattr__(name):
    """Recovery names resolve on first use, so only ``recover`` imports the module."""
    if name in ("IllPosed", "NotExtendable", "chi_fit", "ladder_peel"):
        from . import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{_fmt(value.real)} {sign} {_fmt(abs(value.imag))}i"


def _load_state_arg(path: str) -> StateSpec:
    try:
        return load_state(path)
    except FileNotFoundError as exc:
        raise CliError(f"state file not found: {path}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid state file {path}: {exc}") from exc


def _parse_expr_arg(text: str):
    try:
        return parse_element(text)
    except ParseError as exc:
        raise CliError(f"{exc}\n{exc.caret_diagnostic()}", EXIT_PARSE) from exc


# -- subcommands -----------------------------------------------------------------


def cmd_relations(args) -> int:
    lams = []
    for token in args.lam.split(","):
        try:
            lams.append(float(token))
        except ValueError as exc:
            raise CliError(f"invalid lambda value {token!r}") from exc
    if not all(0 < lam < math.inf for lam in lams):
        raise CliError("lambda must be positive and finite")
    if not 0 < args.tol < math.inf:
        raise CliError("tol must be positive and finite")
    if args.dim < 2:
        raise CliError("dim must be at least 2")
    if args.dim <= 2:
        sys.stderr.write("warning: safe subspace nearly empty at this dimension\n")
    functions = [parse_function(s) for s in (args.function or ["x", "x^2", "exp(0.7)"])]
    rows = []
    worst = 0.0
    for lam in lams:
        rep = build_rep(lam, args.dim)
        for text, f in zip(args.function or ["x", "x^2", "exp(0.7)"], functions):
            report = relation_residuals(rep, f)
            worst = max(worst, report.max_residual)
            rows.append(
                {
                    "lambda": lam,
                    "dim": args.dim,
                    "function": text,
                    "commutator": report.commutator,
                    "shift_x": report.shift_x,
                    "shift_y": report.shift_y,
                    "adjointness": report.adjointness,
                }
            )
    payload = {
        "checks": rows,
        "max_residual": worst,
        "tolerance": args.tol,
        "passed": worst <= args.tol,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK if worst <= args.tol else EXIT_CHECK_FAILED


def cmd_eval(args) -> int:
    state = _load_state_arg(args.state)
    element = _parse_expr_arg(args.expr)
    lines = []
    if args.method in ("trace", "both"):
        value = eval_trace(state, element)
        lines.append(f"trace      = {_fmt_complex(value)}")
    if args.method in ("recursion", "both"):
        value_r = eval_kms_recursion(state.measure, state.beta, element)
        lines.append(f"recursion  = {_fmt_complex(value_r)}")
    if args.method == "both":
        lines.append(f"difference = {_fmt(abs(value - value_r))}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_chi(args) -> int:
    if args.steps < 2:
        raise CliError("steps must be at least 2")
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        raise CliError("t-min and t-max must be finite")
    state = _load_state_arg(args.state)
    ts = np.linspace(args.t_min, args.t_max, args.steps)
    chi = chi_closed_form(state, ts)
    lines = []
    if args.cross_check:
        lines.append("t,re_chi,im_chi,re_trace,im_trace")
        max_gap = 0.0
        traces = eval_traces(state, [N(FunctionExpr.exponential(t)) for t in ts])
        for t, c, traced in zip(ts, chi, traces):
            max_gap = max(max_gap, abs(traced - c))
            lines.append(
                f"{_fmt(t)},{_fmt(c.real)},{_fmt(c.imag)},"
                f"{_fmt(traced.real)},{_fmt(traced.imag)}"
            )
        lines.append(f"# max_discrepancy,{_fmt(max_gap)}")
    else:
        lines.append("t,re_chi,im_chi")
        for t, c in zip(ts, chi):
            lines.append(f"{_fmt(t)},{_fmt(c.real)},{_fmt(c.imag)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _kms_seed(args) -> int:
    """--seed, else SWN_KMS_SEED, else 0; anything but a non-negative integer exits 2."""
    if args.seed is not None:
        source, seed = "--seed", args.seed
    else:
        source, text = "SWN_KMS_SEED", os.environ.get("SWN_KMS_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise CliError(f"SWN_KMS_SEED must be a non-negative integer, got {text!r}") from None
    if seed < 0:
        raise CliError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def cmd_kms_check(args) -> int:
    if args.trials < 1:
        raise CliError("trials must be at least 1")
    seed = _kms_seed(args)
    state = _load_state_arg(args.state)
    scale = 2.0 if args.sabotage_dynamics else 1.0
    report = kms_check(
        state,
        max_degree=args.degree,
        trials=args.trials,
        seed=seed,
        tol=args.tol,
        dynamics_scale=scale,
    )
    _emit(report.to_json() + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_gram_check(args) -> int:
    state = _load_state_arg(args.state)
    words = [_parse_expr_arg(w) for w in args.word]
    result = gram_psd_check(state, words, tol=args.tol)
    support = support_positivity_check(state)
    payload = {
        "min_eigenvalue": result.min_eigenvalue,
        "psd_passed": result.passed,
        "support_passed": support.passed,
        "min_support": support.min_position,
        "tolerance": args.tol,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK if (result.passed and support.passed) else EXIT_CHECK_FAILED


def _load_cartan(path: str) -> CartanMeasure:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        atoms = tuple((a["x"], a["mass"]) for a in data.get("atoms", ()))
        return CartanMeasure(atoms=atoms, m0=data.get("m0", 0.0))
    except FileNotFoundError as exc:
        raise CliError(f"cartan file not found: {path}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid cartan file {path}: {exc}") from exc


def _load_chi_csv(path: str):
    samples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("t,"):
                    continue
                parts = line.split(",")
                if len(parts) < 3:
                    raise ValueError(f"bad row {line!r}")
                samples.append(
                    (float(parts[0]), complex(float(parts[1]), float(parts[2])))
                )
    except FileNotFoundError as exc:
        raise CliError(f"chi file not found: {path}") from exc
    except ValueError as exc:
        raise CliError(f"invalid chi file {path}: {exc}") from exc
    return samples


def cmd_recover(args) -> int:
    if (args.cartan is None) == (args.chi is None):
        raise CliError("provide exactly one of --cartan or --chi")
    from .recovery import IllPosed, NotExtendable, chi_fit, ladder_peel

    try:
        if args.cartan:
            result = ladder_peel(_load_cartan(args.cartan), args.beta, tol=args.tol)
        else:
            result = chi_fit(
                _load_chi_csv(args.chi),
                args.beta,
                max_atoms=args.max_atoms,
                tol=args.tol,
            )
    except NotExtendable as exc:
        sys.stderr.write(f"NotExtendable: {exc}\n")
        return EXIT_CHECK_FAILED
    except IllPosed as exc:
        sys.stderr.write(f"IllPosed: {exc}\n")
        return EXIT_CHECK_FAILED
    state = StateSpec.mixture(result.measure, args.beta)
    payload = state_to_dict(state)
    payload["residual"] = result.residual
    payload["method"] = result.method
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_rep(args) -> int:
    if not 0 < args.lam < math.inf:
        raise CliError("lambda must be positive and finite")
    if args.dim < 2:
        raise CliError("dim must be at least 2")
    rep = build_rep(args.lam, args.dim)
    for name, mat in (("matx", rep.matx), ("maty", rep.maty)):
        lines = []
        for row in mat:
            lines.append(",".join(f"{_fmt(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag))}i" for v in row))
        with open(f"{args.out}{name}.csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    with open(f"{args.out}cartan.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(_fmt(v) for v in rep.cartan_eigens) + "\n")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swnkms",
        description="Verify and evaluate covariant KMS states on the extended sl(2,C) algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", help="check the defining relations in truncated modules")
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated lowest weights")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--function", action="append", help="Cartan test function (repeatable)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("eval", help="evaluate a state on an algebra expression")
    p.add_argument("--state", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--method", choices=["trace", "recursion", "both"], default="trace")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("chi", help="tabulate the characteristic functional as CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--t-min", type=float, default=-10.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("kms-check", help="randomized KMS identity check")
    p.add_argument("--state", required=True)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, help="pair seed (default: env SWN_KMS_SEED, else 0)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--sabotage-dynamics", action="store_true",
                   help="test hook: mis-scale the analytic continuation (must fail)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kms_check)

    p = sub.add_parser("gram-check", help="Gram positivity and support positivity")
    p.add_argument("--state", required=True)
    p.add_argument("--word", action="append", required=True, help="algebra word (repeatable)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gram_check)

    p = sub.add_parser("recover", help="recover the spectral measure from Cartan data or chi samples")
    p.add_argument("--cartan", help="JSON file {m0, atoms: [{x, mass}]}")
    p.add_argument("--chi", help="CSV file t,re_chi,im_chi")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--max-atoms", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("rep", help="export truncated module matrices as CSV")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_rep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n{exc.caret_diagnostic()}\n")
        return EXIT_PARSE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
