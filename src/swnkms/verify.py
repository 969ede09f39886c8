"""Property checks: the KMS identity, Gram positivity, measure support.

``kms_check`` draws seeded random element pairs and measures the relative
residual of rho(AB) = rho(B U_{i beta}(A)) through the trace evaluator.
Pair k is drawn from ``default_rng([seed, k])`` alone, one fixed-size block
of uniforms per element, so reports are replayable and bit-reproducible (the
contract is restated at ``kms_check``); a ``dynamics_scale`` hook
deliberately mis-scales the analytic continuation so the suite can prove the
checker is able to fail.

A check builds no element per pair.  ``_decode`` turns each block of
uniforms into canonical term tuples ((m, n), ((p, t, c), ...)), the terms
that ``random_element`` wraps as an ``AlgebraElement``; U_{i beta} scales
A's coefficients by one exponential per weight, as
``AlgebraElement.automorphism`` does; and ``add_weight_zero_rows`` forms
only the weight-zero part of each product, as unmerged rows (m, n, t, c).
A covariant state vanishes on every X^m Y^n N_F with m != n, so the other
monomials of AB cannot change a value, and most monomial pairs (85% of those
the full products of a verify run would multiply) have weights that do not
cancel.  A trace is linear in the rows, so all of a check's products go,
unmerged, into one ``trace_rows`` call, and no product is ever
canonicalized.  Only the worst pair is built as elements, to be formatted.
The Gram check traces the rows of w_i* w_j the same way.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, add_weight_zero_rows, term_tuples
from .funcspace import FunctionExpr, _canonical
from .grammar import format_element
from .states import CartanMeasure, StateSpec, trace_rows
from .states import eval_trace  # noqa: F401  bench/selftest.py wraps it in this namespace


@dataclass(frozen=True)
class KmsReport:
    pairs_tested: int
    max_residual: float
    worst_pair: tuple[str, str]
    tolerance: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "pairs_tested": self.pairs_tested,
            "max_residual": self.max_residual,
            "worst_pair": list(self.worst_pair),
            "tolerance": self.tolerance,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# Uniforms per draw: a function is a term count then two slots of (power,
# frequency coin, frequency, Re c, Im c); an element is a term count then
# three slots of (key, function).  Unused slots are drawn all the same, so
# the stream position never depends on the values drawn.
FUNCTION_TERM = 5
FUNCTION_DRAWS = 1 + 2 * FUNCTION_TERM
ELEMENT_DRAWS = 1 + 3 * (1 + FUNCTION_DRAWS)
_SLOT = 1 + FUNCTION_DRAWS  # uniforms per element slot: a key, then a function
_ONE_TERMS = ((0, 0.0, 1 + 0j),)  # FunctionExpr.constant(1.0).terms


@lru_cache(maxsize=None)
def _monomial_keys(max_degree: int) -> tuple[tuple[int, int], ...]:
    """Every (m, n) with m + n <= max_degree, m major."""
    return tuple((m, n) for m in range(max_degree + 1) for n in range(max_degree + 1 - m))


def _decode(u: list[float], keys) -> tuple:
    """The canonical terms ((m, n), ((p, t, c), ...)), ... of the element drawn from ``u``.

    ``u`` is one block of ELEMENT_DRAWS uniforms: 1-3 monomials X^m Y^n N_F,
    (m, n) uniform over ``keys``; F has 1-2 terms c x^p e^{itx}, p in 0..2,
    t uniform on (-1, 1) or else 0 (even odds), c uniform on the square
    [-1, 1) + i [-1, 1).  An integer uniform on 0..k-1 is floor(k u): k u
    rounds below k for every u < 1.  A zero F becomes 1, and a zero element
    the unit.  The terms are exactly those ``FunctionExpr`` and
    ``AlgebraElement`` canonicalize to; a draw never yields -0.0 (2 u - 1 is
    +0.0 at u = 1/2), so no zero sign needs normalizing.
    """
    out: dict = {}
    for s in range(1, 1 + _SLOT * (1 + int(3 * u[0])), _SLOT):
        key = keys[int(len(keys) * u[s])]
        power, coin, freq, re, im = u[s + 2 : s + 7]
        p, t = int(3 * power), 2.0 * freq - 1.0 if coin < 0.5 else 0.0
        c = complex(2.0 * re - 1.0, 2.0 * im - 1.0)
        if u[s + 1] < 0.5:
            f = ((p, t, c),)
        else:
            power, coin, freq, re, im = u[s + 7 : s + 12]
            p2, t2 = int(3 * power), 2.0 * freq - 1.0 if coin < 0.5 else 0.0
            c2 = complex(2.0 * re - 1.0, 2.0 * im - 1.0)
            if p == p2 and t == t2:
                f = ((p, t, c + c2),)
            elif p < p2 or p == p2 and t < t2:
                f = ((p, t, c), (p2, t2, c2))
            else:
                f = ((p2, t2, c2), (p, t, c))
        if not (f[0][2] and f[-1][2]):  # an exact zero coefficient
            f = tuple(term for term in f if term[2]) or _ONE_TERMS
        if key in out:  # two monomials on one key merge: rare, so canonicalized generically
            out[key] = _canonical(out[key] + f)
        else:
            out[key] = f
    terms = tuple(sorted(item for item in out.items() if item[1]))
    return terms or (((0, 0), _ONE_TERMS),)


def _element(terms) -> AlgebraElement:
    return AlgebraElement([(key, FunctionExpr(f)) for key, f in terms])


def random_element(rng: np.random.Generator, max_degree: int) -> AlgebraElement:
    """The element ``_decode`` reads from one block of ELEMENT_DRAWS uniforms of ``rng``."""
    return _element(_decode(rng.random(ELEMENT_DRAWS).tolist(), _monomial_keys(max_degree)))


def _whole(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def kms_check(
    state: StateSpec,
    max_degree: int = 4,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
    dynamics_scale: float = 1.0,
) -> KmsReport:
    """Residuals |rho(AB) - rho(B U_{i beta}(A))| / (1 + |rho(AB)|) over random pairs.

    Pair ``index`` draws A then B (``random_element``, one block of uniforms
    each) from ``default_rng([seed, index])``, so pair k depends only on
    (seed, k, max_degree): a rerun gives the same report byte for byte, and
    ``trials=10`` checks the first ten pairs of ``trials=20``.  (Versions that
    drew each integer and float with its own call gave other pairs per seed.)
    Both blocks are taken in one call (the same stream as two) and decoded
    to term tuples; U_{i beta} scales A's weight-w coefficients by
    e^{-beta w} as ``AlgebraElement.automorphism`` does, one exponential per
    weight.  Both sides are traces of the products' weight-zero parts, as
    unmerged rows (``add_weight_zero_rows``), all 2 x ``trials`` of them in
    one ``trace_rows`` call.  The worst pair is the first with the largest
    residual; only it is built as elements, to be formatted.
    ``dynamics_scale`` multiplies beta inside U_{i beta} only (the negative
    control: scale 2 turns e^{-beta} into e^{-2 beta} and must blow the
    check).  Raises ValueError on a bad argument before any draw, when
    e^{-beta scale w} overflows for a drawn weight w (naming beta, the scale
    and w), and when a trace is not finite, naming the term.
    """
    trials = _whole("trials", trials)
    max_degree = _whole("max_degree", max_degree)
    seed = _whole("seed", seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not math.isfinite(dynamics_scale):
        raise ValueError(f"dynamics_scale must be finite, got {dynamics_scale}")
    z = 1j * state.beta * dynamics_scale
    keys = _monomial_keys(max_degree)
    phases: dict[int, complex] = {}
    pairs, rows, counts = [], ([], [], [], []), []
    for index in range(trials):
        u = np.random.default_rng([seed, index]).random(2 * ELEMENT_DRAWS).tolist()
        a, b = _decode(u[:ELEMENT_DRAWS], keys), _decode(u[ELEMENT_DRAWS:], keys)
        pairs.append((a, b))
        # U_{i beta}(A) as ``automorphism`` canonicalizes it (0j + c s, zeros
        # dropped), kept only where A's weight cancels one of B's; every weight
        # of A gets its exponential, so one that overflows raises even if it cancels none
        cancel = {n - m for (m, n), _ in b}
        moved = []
        for (m, n), f in a:
            s = phases.get(m - n)
            if s is None:
                try:
                    s = phases[m - n] = cmath.exp(1j * z * (m - n))
                except OverflowError:
                    raise ValueError(f"U_(i beta) overflows at beta={state.beta}, "
                                     f"dynamics_scale={dynamics_scale} on weight {m - n}") from None
            if m - n in cancel and (g := [(p, t, cs) for p, t, c in f if (cs := 0j + c * s)]):
                moved.append(((m, n), g))
        counts.append(add_weight_zero_rows(rows, a, b))
        counts.append(add_weight_zero_rows(rows, b, moved))
    values = trace_rows(state, rows, counts)
    lhs, rhs = values[0::2], values[1::2]
    residuals = np.abs(lhs - rhs) / (1.0 + np.abs(lhs))
    worst = int(np.argmax(residuals))
    max_residual = float(residuals[worst])
    worst_pair = ("", "")
    if max_residual > 0:
        worst_pair = tuple(format_element(_element(terms)) for terms in pairs[worst])
    return KmsReport(
        pairs_tested=trials,
        max_residual=max_residual,
        worst_pair=worst_pair,
        tolerance=tol,
        seed=seed,
    )


class GramResult(NamedTuple):
    min_eigenvalue: float
    passed: bool


def gram_psd_check(
    state: StateSpec,
    words: list[AlgebraElement],
    tol: float = 1e-8,
) -> GramResult:
    """Smallest eigenvalue of G_ij = rho(w_i* w_j); pass iff >= -tol (1 + ||G||).

    All k^2 entries are traces of the weight-zero parts of w_i* w_j, as
    unmerged rows (``add_weight_zero_rows``), in one ``trace_rows`` call; a trace
    that is not finite raises ValueError.
    """
    if not words:
        raise ValueError("need at least one word")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    stars = [term_tuples(w.star()) for w in words]
    terms = [term_tuples(w) for w in words]
    rows = ([], [], [], [])
    counts = [add_weight_zero_rows(rows, wi, wj) for wi in stars for wj in terms]
    gram = trace_rows(state, rows, counts).reshape(len(words), len(words))
    scale = 1.0 + float(np.max(np.abs(gram)))
    herm_defect = float(np.max(np.abs(gram - gram.conj().T)))
    if herm_defect > 1e-10 * scale:
        raise ValueError(f"Gram matrix not Hermitian: defect {herm_defect}")
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    min_eig = float(eigs[0])
    norm = float(np.linalg.norm(gram, 2))
    return GramResult(min_eig, min_eig >= -tol * (1.0 + norm))


@dataclass(frozen=True)
class SupportReport:
    passed: bool
    offending_atom: float | None
    min_position: float


def support_positivity_check(
    target: StateSpec | CartanMeasure, atol: float = 1e-12
) -> SupportReport:
    """All Cartan mass must sit at x >= 0 (the spectrum-positivity conclusion).

    A state's Cartan mass sits at 0 (m1) and on the Gibbs ladders lam + 2p,
    so its measure is read directly: each ladder's smallest point is lam.
    """
    if isinstance(target, CartanMeasure):
        positions = target.positions[target.masses > 0.0].tolist()
        at_zero = target.m0 > 0.0
    else:
        positions = [lam for lam, _ in target.measure.atoms]
        at_zero = target.measure.m1 > 0.0
    if at_zero:
        positions.append(0.0)
    min_pos = min(positions, default=0.0)
    offending = [x for x in positions if x < -atol]
    if offending:
        return SupportReport(False, min(offending), min_pos)
    return SupportReport(True, None, min_pos)
