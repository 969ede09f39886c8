"""Property checks: the KMS identity, Gram positivity, measure support.

``kms_check`` draws seeded random element pairs and measures the relative
residual of rho(AB) = rho(B U_{i beta}(A)) through the trace evaluator, with
U_{i beta} from ``AlgebraElement.automorphism``.  Pair k depends only on
(seed, k, degree), so reports are replayable and bit-reproducible; a
``dynamics_scale`` hook deliberately mis-scales the analytic continuation so
the suite can prove the checker is able to fail.

Both checks form only the weight-zero part of each product
(``weight_zero_product``): a covariant state vanishes on every X^m Y^n N_F
with m != n, so the other monomials of AB cannot change a value, and most
random pairs (85% of the products a verify run forms) have weights that do
not cancel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, weight_zero_product
from .funcspace import FunctionExpr
from .grammar import format_element
from .states import CartanMeasure, StateSpec, eval_trace


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


def random_function(rng: np.random.Generator) -> FunctionExpr:
    terms = []
    for _ in range(rng.integers(1, 3)):
        power = int(rng.integers(0, 3))
        freq = float(rng.uniform(-1.0, 1.0)) if rng.random() < 0.5 else 0.0
        coeff = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        terms.append((power, freq, coeff))
    f = FunctionExpr(terms)
    return f if not f.is_zero else FunctionExpr.constant(1.0)


def random_element(rng: np.random.Generator, max_degree: int) -> AlgebraElement:
    keys = [
        (m, n)
        for m in range(max_degree + 1)
        for n in range(max_degree + 1)
        if m + n <= max_degree
    ]
    terms = []
    for _ in range(rng.integers(1, 4)):
        m, n = keys[rng.integers(0, len(keys))]
        terms.append(((m, n), random_function(rng)))
    el = AlgebraElement(terms)
    return el if not el.is_zero else AlgebraElement.one()


def kms_check(
    state: StateSpec,
    max_degree: int = 4,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-8,
    dynamics_scale: float = 1.0,
) -> KmsReport:
    """Residuals |rho(AB) - rho(B U_{i beta}(A))| / (1 + |rho(AB)|) over random pairs.

    Pair ``index`` draws A then B from ``default_rng([seed, index])``; U_{i beta}
    is ``AlgebraElement.automorphism`` at z = i beta, and both sides are
    ``eval_trace`` values of the products' weight-zero parts
    (``weight_zero_product``).  ``dynamics_scale`` multiplies beta inside
    U_{i beta} only (the negative control: scale 2 turns e^{-beta} into
    e^{-2 beta} and must blow the check).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    z = 1j * state.beta * dynamics_scale
    worst = None
    max_residual = 0.0
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        a = random_element(rng, max_degree)
        b = random_element(rng, max_degree)
        lhs = eval_trace(state, weight_zero_product(a, b))
        rhs = eval_trace(state, weight_zero_product(b, a.automorphism(z)))
        residual = abs(lhs - rhs) / (1.0 + abs(lhs))
        if residual > max_residual:
            max_residual = residual
            worst = (a, b)
    return KmsReport(
        pairs_tested=trials,
        max_residual=max_residual,
        worst_pair=("", "") if worst is None else tuple(map(format_element, worst)),
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
    """Smallest eigenvalue of G_ij = rho(w_i* w_j); pass iff >= -tol (1 + ||G||)."""
    if not words:
        raise ValueError("need at least one word")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    k = len(words)
    gram = np.zeros((k, k), dtype=complex)
    for i, wi in enumerate(words):
        wi_star = wi.star()
        for j, wj in enumerate(words):
            gram[i, j] = eval_trace(state, weight_zero_product(wi_star, wj))
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
