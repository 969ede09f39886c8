"""Property checks: the KMS identity, Gram positivity, measure support.

``kms_check`` draws seeded random element pairs and measures the relative
residual of rho(AB) = rho(B U_{i beta}(A)) through the trace evaluator, with
U_{i beta} from ``AlgebraElement.automorphism``.  Pair k is drawn from
``default_rng([seed, k])`` alone, one fixed-size block of uniforms per
element (``random_element``), so reports are replayable and bit-reproducible
(the contract is restated at ``kms_check``); a ``dynamics_scale`` hook
deliberately mis-scales the analytic continuation so the suite can prove the
checker is able to fail.  Each check, KMS or Gram, evaluates all its traces
in one ``trace_rows`` call.

Both checks form only the weight-zero part of each product
(``weight_zero_rows``): a covariant state vanishes on every X^m Y^n N_F
with m != n, so the other monomials of AB cannot change a value, and most
random pairs (85% of the products a verify run forms) have weights that do
not cancel.  That part is left as unmerged rows (m, n, t, c) and traced as
it is: a trace is linear in the terms, so no product is ever canonicalized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, weight_zero_rows
from .funcspace import FunctionExpr
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


def _function_from(u: list[float]) -> FunctionExpr:
    """1-2 terms c x^n e^{itx}: n in 0..2, t uniform on (-1, 1) or else 0 (even odds),
    c uniform on the square [-1, 1) + i [-1, 1).
    """
    terms = []
    for i in range(1 + int(2 * u[0])):
        power, coin, freq, re, im = u[1 + FUNCTION_TERM * i : 1 + FUNCTION_TERM * (i + 1)]
        freq = 2.0 * freq - 1.0 if coin < 0.5 else 0.0
        terms.append((int(3 * power), freq, complex(2.0 * re - 1.0, 2.0 * im - 1.0)))
    f = FunctionExpr(terms)
    return f if not f.is_zero else FunctionExpr.constant(1.0)


def random_function(rng: np.random.Generator) -> FunctionExpr:
    """A random Cartan function from one block of FUNCTION_DRAWS uniforms."""
    return _function_from(rng.random(FUNCTION_DRAWS).tolist())


@lru_cache(maxsize=None)
def _monomial_keys(max_degree: int) -> tuple[tuple[int, int], ...]:
    """Every (m, n) with m + n <= max_degree, m major."""
    return tuple((m, n) for m in range(max_degree + 1) for n in range(max_degree + 1 - m))


def random_element(rng: np.random.Generator, max_degree: int) -> AlgebraElement:
    """1-3 monomials X^m Y^n N_F, (m, n) uniform over m + n <= max_degree, F as in
    ``random_function``; one block of ELEMENT_DRAWS uniforms.  An integer uniform
    on 0..k-1 is floor(k u): k u rounds below k for every u < 1.
    """
    keys = _monomial_keys(max_degree)
    u = rng.random(ELEMENT_DRAWS).tolist()
    terms = []
    for i in range(1 + int(3 * u[0])):
        slot = u[1 + (1 + FUNCTION_DRAWS) * i : 1 + (1 + FUNCTION_DRAWS) * (i + 1)]
        terms.append((keys[int(len(keys) * slot[0])], _function_from(slot[1:])))
    el = AlgebraElement(terms)
    return el if not el.is_zero else AlgebraElement.one()


def _trace_products(state: StateSpec, factors) -> np.ndarray:
    """rho of the weight-zero part of a * b for each (a, b), all in one ``trace_rows`` call."""
    rows, counts = ([], [], [], []), []
    for a, b in factors:
        product = weight_zero_rows(a, b)
        for column, values in zip(rows, product):
            column += values
        counts.append(len(product[0]))
    return trace_rows(state, rows, counts)


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
    U_{i beta} is ``AlgebraElement.automorphism`` at z = i beta; both sides are
    traces of the products' weight-zero parts, as unmerged rows
    (``weight_zero_rows``), all 2 x ``trials`` of them in one ``trace_rows``
    call.  The worst pair is the first with the largest residual.
    ``dynamics_scale`` multiplies beta inside U_{i beta} only (the negative
    control: scale 2 turns e^{-beta} into e^{-2 beta} and must blow the
    check).  Raises ValueError when a trace is not finite, naming the term.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    z = 1j * state.beta * dynamics_scale
    pairs, factors = [], []
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        a = random_element(rng, max_degree)
        b = random_element(rng, max_degree)
        pairs.append((a, b))
        factors += [(a, b), (b, a.automorphism(z))]
    values = _trace_products(state, factors)
    lhs, rhs = values[0::2], values[1::2]
    residuals = np.abs(lhs - rhs) / (1.0 + np.abs(lhs))
    worst = int(np.argmax(residuals))
    max_residual = float(residuals[worst])
    return KmsReport(
        pairs_tested=trials,
        max_residual=max_residual,
        worst_pair=tuple(map(format_element, pairs[worst])) if max_residual > 0 else ("", ""),
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
    unmerged rows (``weight_zero_rows``), in one ``trace_rows`` call; a trace
    that is not finite raises ValueError.
    """
    if not words:
        raise ValueError("need at least one word")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    stars = [w.star() for w in words]
    gram = _trace_products(state, [(wi, wj) for wi in stars for wj in words])
    gram = gram.reshape(len(words), len(words))
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
        positions = [x for x, mass in target.atoms if mass > 0.0]
        at_zero = target.m0 > 0.0
    else:
        measure = target.as_measure()
        positions = [lam for lam, _ in measure.atoms]
        at_zero = measure.m1 > 0.0
    if at_zero:
        positions.append(0.0)
    min_pos = min(positions, default=0.0)
    offending = [x for x in positions if x < -atol]
    if offending:
        return SupportReport(False, min(offending), min_pos)
    return SupportReport(True, None, min_pos)
