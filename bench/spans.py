"""Span tracing around calls into each layer of ``swnkms``, installed from outside.

``Tracer.install()`` replaces every traced function or method with a wrapper
that records a span (name, start, end, parent span, op id) and keeps running
totals per name: calls, self time (span time minus the time its child spans
cover) and a few per-layer counters.  A function is replaced in every
``swnkms`` namespace that bound it, not only where it is defined, so calls
through ``from .states import eval_trace`` are traced too.  ``uninstall()``
puts the originals back.  Spans stay in compact in-memory arrays until
``save()`` writes them out.

The wrappers pass arguments and results through unchanged; the benchmark's
self-test checks that traced and untraced runs give bit-identical results.
"""

from __future__ import annotations

import functools
import importlib.abc
import sys
import time
from array import array

#: (metric prefix, module, attribute path).  Several targets may share a
#: prefix (``evaluate`` covers array and scalar evaluation).  A target that
#: a later version of the package no longer has is skipped.
TARGETS = (
    ("funcspace.construct", "swnkms.funcspace", "FunctionExpr.__init__"),
    ("funcspace.shift", "swnkms.funcspace", "FunctionExpr.shift"),
    ("funcspace.mul", "swnkms.funcspace", "FunctionExpr.__mul__"),
    ("funcspace.evaluate", "swnkms.funcspace", "FunctionExpr.evaluate_array"),
    ("funcspace.evaluate", "swnkms.funcspace", "FunctionExpr.__call__"),
    ("algebra.mul", "swnkms.algebra", "AlgebraElement.__mul__"),
    ("algebra.construct", "swnkms.algebra", "AlgebraElement.__init__"),
    ("algebra.star", "swnkms.algebra", "AlgebraElement.star"),
    ("algebra.reduce_word", "swnkms.algebra", "reduce_word"),
    ("reps.ladder_diagonal", "swnkms.reps", "ladder_diagonal"),
    ("reps.build_rep", "swnkms.reps", "build_rep"),
    ("reps.relation_residuals", "swnkms.reps", "relation_residuals"),
    ("states.eval_trace", "swnkms.states", "eval_trace"),
    ("states.eval_kms_recursion", "swnkms.states", "eval_kms_recursion"),
    ("states.cartan_restriction", "swnkms.states", "cartan_restriction"),
    ("states.chi_closed_form", "swnkms.states", "chi_closed_form"),
    ("verify.kms_check", "swnkms.verify", "kms_check"),
    ("verify.gram_psd_check", "swnkms.verify", "gram_psd_check"),
    ("recovery.chi_fit", "swnkms.recovery", "chi_fit"),
    ("recovery.ladder_peel", "swnkms.recovery", "ladder_peel"),
    ("recovery.lsq_linear", "swnkms.recovery", "lsq_linear"),
    ("recovery.least_squares", "swnkms.recovery", "least_squares"),
    ("grammar.parse", "swnkms.grammar", "parse_element"),
    ("grammar.parse", "swnkms.grammar", "parse_function"),
    ("grammar.format", "swnkms.grammar", "format_element"),
    ("grammar.format", "swnkms.grammar", "format_function"),
    ("cli.main", "swnkms.cli", "main"),
)

#: Per-name counters beyond calls and self time, filled by ``_count`` (and
#: by the constructor wrapper for ``funcspace.construct``).
COUNTERS = {
    "funcspace.construct": ("terms_in", "kept"),
    "funcspace.evaluate": ("points",),
    "states.cartan_restriction": ("atoms",),
    "verify.kms_check": ("pairs",),
}


def _count(name, args, result):
    """Counter increments for one call of ``name``, in COUNTERS order."""
    if name == "funcspace.evaluate":
        size = getattr(args[1], "size", None)
        return (1 if size is None else int(size),)
    if name == "states.cartan_restriction":
        return (len(result.atoms),)
    if name == "verify.kms_check":
        return (result.pairs_tested,)
    return ()


def _resolve(module, path):
    obj = sys.modules.get(module)
    for part in path.split("."):
        if obj is None:
            return None
        obj = getattr(obj, part, None)
    return obj


def _namespaces():
    """Every swnkms module namespace, and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "swnkms" or name.startswith("swnkms.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("swnkms"):
                yield value


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches each package module right after it executes."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("swnkms"):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is None or not hasattr(spec.loader, "exec_module"):
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_patch(module):
            exec_module(module)
            tracer._patch()

        spec.loader.exec_module = exec_and_patch
        return spec


class Tracer:
    """In-memory span recorder with per-name call, self-time and counter totals."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        # Open spans: [span index, time covered by children].
        self._stack: list[list] = []
        self._op_id = -1
        self.stats: dict[str, list[float]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._replacements: dict[int, tuple[object, object]] = {}
        self._wrappers: set[int] = set()
        self._finder = None

    # -- spans -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(name_id)
        self.op.append(self._op_id)
        self._stack.append([idx, 0.0])
        return idx

    def _close(self, idx: int) -> float:
        """Close span ``idx``; returns its self time in seconds."""
        now = time.perf_counter()
        self.end[idx] = now
        frame = self._stack.pop()
        duration = now - self.start[idx]
        if self._stack:
            self._stack[-1][1] += duration
        return duration - frame[1]

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[-1][0])
        self._op_id = -1

    def _record(self, name: str, self_s: float, counts) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0] + [0] * len(COUNTERS.get(name, ()))
        entry[0] += 1
        entry[1] += self_s
        for i, c in enumerate(counts):
            entry[2 + i] += c

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        if name == "funcspace.construct":

            @functools.wraps(fn)
            def construct(obj, terms=()):
                # Materialize once so the number of input terms can be counted.
                terms = list(terms)
                idx = tracer._open(name_id)
                try:
                    fn(obj, terms)
                except BaseException:
                    tracer._record(name, tracer._close(idx), ())
                    raise
                tracer._record(name, tracer._close(idx), (len(terms), len(obj.terms)))

            return construct

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # A raising call (a recovery rejection) still counts; it has
                # no result to take counters from.
                tracer._record(name, tracer._close(idx), ())
                raise
            tracer._record(name, tracer._close(idx), _count(name, args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function in every namespace that bound it.

        Modules of the package imported later (a lazy import inside a
        command) are patched as they load.
        """
        if self._finder is not None:
            raise RuntimeError("tracer already installed")
        self._finder = _PatchOnImport(self)
        sys.meta_path.insert(0, self._finder)
        self._patch()

    def _patch(self) -> None:
        for name, module, path in TARGETS:
            original = _resolve(module, path)
            if original is None or id(original) in self._wrappers:
                continue
            if id(original) not in self._replacements:
                wrapper = self._wrap(name, original)
                self._replacements[id(original)] = (original, wrapper)
                self._wrappers.add(id(wrapper))
        for space in _namespaces():
            for attr, value in list(vars(space).items()):
                hit = self._replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((space, attr, value))
                    setattr(space, attr, hit[1])

    def uninstall(self) -> None:
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None
        for space, attr, original in reversed(self._patched):
            setattr(space, attr, original)
        self._patched.clear()
        self._replacements.clear()
        self._wrappers.clear()

    # -- output ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """{name: {"calls", "self_ms", <counters>}} for every name called."""
        out = {}
        for name, entry in self.stats.items():
            row = {"calls": entry[0], "self_ms": entry[1] * 1e3}
            for i, counter in enumerate(COUNTERS.get(name, ())):
                row[counter] = entry[2 + i]
            out[name] = row
        return out

    def span_seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``."""
        ids = {i for i, n in enumerate(self.names) if n == name}
        return [
            self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] in ids
        ]

    def save(self, path) -> None:
        """Write the spans as a NumPy archive (names table plus one array per field)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def reorder_cache() -> tuple[int, int]:
    """(hits, misses) of the algebra's Y^n X^m reordering cache, if it has one."""
    cached = getattr(sys.modules.get("swnkms.algebra"), "_reorder_yx", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return (0, 0)
    info = cached.cache_info()
    return (info.hits, info.misses)


def merge_totals(into: dict, extra: dict) -> None:
    """Add one ``Tracer.totals()`` result into another."""
    for name, row in extra.items():
        acc = into.setdefault(name, {k: 0 for k in row})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + value
