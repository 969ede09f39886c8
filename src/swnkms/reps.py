"""Finite truncations of the lowest-weight modules, in the orthonormal basis.

The module with lowest weight lambda > 0 acts on basis vectors e_p by

    X e_p = (p+1) e_{p+1},   Y e_{p+1} = -(lambda+p) e_p,   Y e_0 = 0,
    N_F e_p = F(lambda + 2p) e_p.

The unique compatible scalar product has squared norms n_0 = 1,
n_{p+1} = n_p (lambda+p)/(p+1); folding sqrt(n_p) into the basis makes
X = -Y^dagger hold exactly, with

    X_{p+1,p} = sqrt((p+1)(lambda+p)),   Y_{p,p+1} = -sqrt((p+1)(lambda+p)).

Truncation breaks the ladder only at the top rung, so identities of total
degree d are exact on e_p with p + d < dim; the residual checks below stay
on that safe subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement
from .funcspace import FunctionExpr


@dataclass(frozen=True, eq=False)
class TruncatedRep:
    lam: float
    dim: int
    matx: np.ndarray
    maty: np.ndarray
    cartan_eigens: np.ndarray


def scalar_product_weights(lam: float, count: int) -> np.ndarray:
    """Squared norms n_p of the raw basis vectors, p = 0..count-1."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    p = np.arange(count - 1, dtype=float)
    return np.concatenate(([1.0], np.cumprod((lam + p) / (p + 1))))


def build_rep(lam: float, dim: int) -> TruncatedRep:
    lam = float(lam)
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    p = np.arange(dim - 1, dtype=float)
    sub = np.sqrt((p + 1) * (lam + p))
    matx = np.diag(sub, -1).astype(complex)
    maty = -np.diag(sub, +1).astype(complex)
    eigens = lam + 2.0 * np.arange(dim, dtype=float)
    return TruncatedRep(lam=lam, dim=dim, matx=matx, maty=maty, cartan_eigens=eigens)


def represent(a: AlgebraElement, rep: TruncatedRep) -> np.ndarray:
    """Matrix image sum_{(m,n)} X^m Y^n diag(F(lambda+2p))."""
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (m, n), f in a.terms:
        mat = np.diag(f.evaluate_array(rep.cartan_eigens))
        for _ in range(n):
            mat = rep.maty @ mat
        for _ in range(m):
            mat = rep.matx @ mat
        out += mat
    return out


def ladder_diagonal(lam: float, dim: int, m: int) -> np.ndarray:
    """Diagonal of X^m Y^m: (-1)^m prod_{i=0}^{m-1} (p-i)(lambda+p-i-1), zero for p < m.

    X^m Y^n is a single band at offset m-n, so for m = n only this diagonal
    enters any trace against a diagonal density.  Cross-checked against
    ``represent`` in the tests.
    """
    p = np.arange(dim, dtype=float)
    d = np.ones(dim)
    for i in range(m):
        d *= (p - i) * (lam + p - i - 1)
    d[: min(m, dim)] = 0.0
    return (-1.0) ** m * d


@dataclass(frozen=True)
class RelationReport:
    """Max relative residuals of the defining relations on the safe subspace.

    Residuals are measured per basis column as ||lhs - rhs|| / (1 + ||lhs||),
    over e_p with p < dim-1 (the truncation-safe subspace; the top rung
    deliberately breaks the commutator).  Adjointness is an exact-zero check.
    """

    lam: float
    dim: int
    commutator: float
    shift_x: float
    shift_y: float
    adjointness: float
    safe_dim: int

    @property
    def max_residual(self) -> float:
        return max(self.commutator, self.shift_x, self.shift_y, self.adjointness)


def _column_residual(lhs: np.ndarray, rhs: np.ndarray, cols: int) -> float:
    diff = np.linalg.norm(lhs[:, :cols] - rhs[:, :cols], axis=0)
    scale = 1.0 + np.linalg.norm(lhs[:, :cols], axis=0)
    return float(np.max(diff / scale))


def relation_residuals(rep: TruncatedRep, f: FunctionExpr) -> RelationReport:
    """Residuals of [X,Y] = N_x, X N_F = N_{T_2 F} X, Y N_F = N_{T_{-2} F} Y."""
    safe = rep.dim - 1
    nx = np.diag(rep.cartan_eigens.astype(complex))
    nf = np.diag(f.evaluate_array(rep.cartan_eigens))
    nf_up = np.diag(f.shift(2.0).evaluate_array(rep.cartan_eigens))
    nf_dn = np.diag(f.shift(-2.0).evaluate_array(rep.cartan_eigens))
    comm = _column_residual(rep.matx @ rep.maty - rep.maty @ rep.matx, nx, safe)
    sx = _column_residual(rep.matx @ nf, nf_up @ rep.matx, safe)
    sy = _column_residual(rep.maty @ nf, nf_dn @ rep.maty, safe)
    adj = float(np.max(np.abs(rep.matx + rep.maty.conj().T)))
    return RelationReport(
        lam=rep.lam,
        dim=rep.dim,
        commutator=comm,
        shift_x=sx,
        shift_y=sy,
        adjointness=adj,
        safe_dim=safe,
    )
