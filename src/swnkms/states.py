"""KMS states: thermal traces, the vacuum, mixtures, and the recursion oracle.

A covariant KMS state at inverse temperature beta is determined by a point
mass m1 at the bottom (vacuum component) plus a probability measure on the
positive half-line (Gibbs components); ``SpectralMeasure`` is the finite-atom
realization.  Two independent evaluators are provided:

* ``eval_trace`` -- truncated trace against the diagonal density
  e^{-beta H/2}/Z in the lowest-weight module (the matrix route);
* ``eval_kms_recursion`` -- the iterated KMS identity
  rho(X A N_F) = rho([A, X] N_G), G = sum_{j>=1} e^{-beta j} T_{-2j}F,
  run down to Gibbs-ladder Cartan moments (no matrices).  G has a closed
  form in the function span (negative-order polylogarithms), so the
  recursion is finite, exact algebra with no truncation.

Their agreement on weight-zero monomials is the desk-scale content of the
uniqueness argument; the acceptance suite pins it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import algebra
from .algebra import AlgebraElement
from .funcspace import FunctionExpr
from .reps import ladder_diagonal

MASS_TOL = 1e-12

# Position merge tolerance for ladder atoms landing on the same point from
# different base atoms (spacing-2 overlaps).
POSITION_ATOL = 1e-9

# Cached rung-weight arrays, one per (atoms, beta, depths, m): a state's atoms,
# the ladder depth of each, and the power m of X^m Y^m.  The six states a
# verify benchmark run cycles through need 50 keys, of at most 3 KB each (3
# atoms, 65-129 rungs each).  An entry holds 8 MiB per atom at the 2^20-rung
# cap (beta below ~1e-4), so 128 entries of k atoms at the cap would hold
# k GiB, plus 256 MiB for the 16 cached ``_ladder`` pairs.
RUNG_CACHE = 128

# Rungs per block of the ``eval_trace`` contraction.  Every verify benchmark
# state fits in one block; a longer grid is summed block by block, so beyond
# the grid itself no temporary grows with the ladder depth.
TRACE_BLOCK = 4096


class ConvergenceError(RuntimeError):
    """A truncated series failed to meet its tolerance within the cap."""


# -- measures -------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralMeasure:
    """m1 * delta_0 plus weighted atoms on (0, inf): the data classifying a state.

    Duplicate atom positions are merged by summing weights; the total mass
    m1 + sum w_k must be 1 within 1e-12.
    """

    m1: float
    atoms: tuple[tuple[float, float], ...]

    def __init__(self, m1: float, atoms=()):
        m1 = float(m1)
        merged: list[list[float]] = []
        for lam, w in sorted((float(l), float(w)) for l, w in atoms):
            if not 0 <= w < math.inf:
                raise ValueError(f"atom weight must be nonnegative and finite, got {w}")
            if w == 0.0:
                continue
            if not 0 < lam < math.inf:
                raise ValueError(f"atom location must be positive and finite, got {lam}")
            if merged and abs(lam - merged[-1][0]) <= 1e-12 * max(1.0, lam):
                merged[-1][1] += w
            else:
                merged.append([lam, w])
        total = m1 + sum(w for _, w in merged)
        if not (-MASS_TOL <= m1 <= 1 + MASS_TOL):
            raise ValueError(f"m1 must lie in [0, 1], got {m1}")
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass must be 1, got {total}")
        # m1 may sit up to MASS_TOL below 0; stored as +0.0, it is a valid m0
        object.__setattr__(self, "m1", m1 if m1 > 0 else 0.0)
        object.__setattr__(self, "atoms", tuple((l, w) for l, w in merged))

    @property
    def max_lambda(self) -> float:
        return max((lam for lam, _ in self.atoms), default=0.0)


@dataclass(frozen=True)
class CartanMeasure:
    """Finite probability measure on the real line, with optional mass at 0."""

    atoms: tuple[tuple[float, float], ...]
    m0: float = 0.0

    def __init__(self, atoms=(), m0: float = 0.0):
        m0 = float(m0)
        if not 0 <= m0 < math.inf:
            raise ValueError(f"m0 must be nonnegative and finite, got {m0}")
        cleaned = []
        for x, mass in sorted((float(x), float(m)) for x, m in atoms):
            if not 0 <= mass < math.inf:
                raise ValueError(f"atom mass must be nonnegative and finite, got {mass}")
            if not math.isfinite(x):
                raise ValueError(f"atom position must be finite, got {x}")
            if cleaned and x == cleaned[-1][0]:
                cleaned[-1][1] += mass
            else:
                cleaned.append([x, mass])
        total = m0 + sum(m for _, m in cleaned)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass must be 1, got {total}")
        object.__setattr__(self, "atoms", tuple((x, m) for x, m in cleaned))
        object.__setattr__(self, "m0", m0)


# -- states ---------------------------------------------------------------------

VACUUM = "vacuum"
GIBBS = "gibbs"
MIXTURE = "mixture"


@dataclass(frozen=True)
class StateSpec:
    """A covariant KMS state: Vacuum, Gibbs(lambda), or Mixture(measure)."""

    beta: float
    kind: str
    lam: float | None = None
    measure: SpectralMeasure | None = None

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.kind == GIBBS:
            if self.lam is None or not 0 < self.lam < math.inf:
                raise ValueError(f"Gibbs state needs lambda > 0, got {self.lam}")
        elif self.kind == MIXTURE:
            if self.measure is None:
                raise ValueError("mixture state needs a SpectralMeasure")
        elif self.kind != VACUUM:
            raise ValueError(f"unknown state kind {self.kind!r}")

    @classmethod
    def vacuum(cls, beta: float) -> "StateSpec":
        return cls(beta=beta, kind=VACUUM)

    @classmethod
    def gibbs(cls, lam: float, beta: float) -> "StateSpec":
        return cls(beta=beta, kind=GIBBS, lam=float(lam))

    @classmethod
    def mixture(cls, measure: SpectralMeasure, beta: float) -> "StateSpec":
        return cls(beta=beta, kind=MIXTURE, measure=measure)

    def as_measure(self) -> SpectralMeasure:
        """The Gibbs(lambda) spelling equals Mixture(m1=0, [(lambda, 1)])."""
        if self.kind == VACUUM:
            return SpectralMeasure(1.0, ())
        if self.kind == GIBBS:
            return SpectralMeasure(0.0, ((self.lam, 1.0),))
        return self.measure


def state_to_dict(state: StateSpec) -> dict:
    out: dict = {"beta": state.beta, "kind": state.kind}
    if state.kind == GIBBS:
        out["lambda"] = state.lam
    elif state.kind == MIXTURE:
        out["m1"] = state.measure.m1
        out["atoms"] = [{"lambda": lam, "w": w} for lam, w in state.measure.atoms]
    return out


def state_from_dict(data: dict) -> StateSpec:
    kind = data.get("kind")
    beta = data.get("beta")
    if not isinstance(beta, (int, float)):
        raise ValueError("state file needs a numeric 'beta'")
    if kind == VACUUM:
        return StateSpec.vacuum(beta)
    if kind == GIBBS:
        return StateSpec.gibbs(data["lambda"], beta)
    if kind == MIXTURE:
        atoms = tuple((a["lambda"], a["w"]) for a in data.get("atoms", ()))
        return StateSpec.mixture(SpectralMeasure(data.get("m1", 0.0), atoms), beta)
    raise ValueError(f"unknown state kind {kind!r}")


def load_state(path) -> StateSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def save_state(state: StateSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- Gibbs ladder and trace evaluator ------------------------------------------------


def ladder_depth(beta: float, tol: float = 1e-13, lam_max: float = 0.0, growth: int = 0) -> int:
    """Last rung P kept of the Gibbs ladder (1-q) q^p at lam + 2p, q = e^{-beta}.

    P is the first of 64, 128, 256, ... with 4 (lam_max + 2P)^growth q^P <= tol (1-q),
    which puts P past the peak of (lam + 2p)^growth q^p.  A function bounded
    by max(1, x)^growth, summed over the rungs p = 0..P with the masses
    renormalized to 1 (``_ladder``), then misses its full ladder sum by at
    most tol: the renormalization shifts it by under tol/4, and the dropped
    tail decays geometrically from a term under tol (1-q)/4.
    """
    q = math.exp(-beta)
    depth = 64
    while 4.0 * (lam_max + 2.0 * depth) ** max(growth, 0) * q**depth > tol * (1.0 - q):
        depth *= 2
        if depth > (1 << 20):
            raise ConvergenceError(
                f"ladder truncation cannot reach tol={tol} (beta={beta} too small?)"
            )
    return depth


@lru_cache(maxsize=16)
def _ladder(beta: float, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Rungs p = 0..depth and their masses (1-q) q^p, renormalized to sum 1.

    Cached; the arrays are read-only.
    """
    q = math.exp(-beta)
    ps = np.arange(depth + 1, dtype=float)
    masses = (1.0 - q) * q**ps
    masses /= masses.sum()
    ps.flags.writeable = masses.flags.writeable = False
    return ps, masses


@lru_cache(maxsize=RUNG_CACHE)
def _rung_weights(
    atoms: tuple[tuple[float, float], ...], beta: float, depths: tuple[int, ...], m: int
) -> np.ndarray:
    """w_k diag_m(p) (1-q) q^p / Z on each atom's rungs p = 0..depth_k, concatenated.

    These are the trace weights of X^m Y^m on the grid of ``eval_trace``.
    """
    weights = np.concatenate([
        w * ladder_diagonal(lam, depth + 1, m) * _ladder(beta, depth)[1]
        for (lam, w), depth in zip(atoms, depths)
    ])
    weights.flags.writeable = False
    return weights


def _growth_exponent(a: AlgebraElement) -> int:
    return max((m + n + max(f.degree, 0) for (m, n), f in a.terms), default=0)


def eval_trace(state: StateSpec, a: AlgebraElement, tol: float = 1e-13) -> complex:
    """State value by truncated trace (vacuum term is F(0) on the Cartan part).

    Each Gibbs component is summed over the ``ladder_depth`` rungs for its
    lambda and the element's growth exponent, so the truncation error is at
    most tol times the sum of the coefficients' absolute values over the
    element's Cartan functions F (|diag_m(p)| <= (lam + 2p)^{2m} and
    |F(x)| <= ||F||_1 max(1, x)^{deg F}); rounding comes on top.

    The rungs lam_k + 2p of all atoms form one grid.  Every weight-zero term
    c x^n e^{itx} of X^m Y^m N_F is then one entry of a single contraction:
    rows R[(m, n)] = (rung weights of X^m Y^m) x^n, columns E[t] = e^{itx},
    value sum c (R E^T)[(m, n), t], taken over blocks of ``TRACE_BLOCK`` rungs.
    The rung weights w_k diag_m(p) (1-q) q^p / Z are shared between calls
    through a bounded cache of ``RUNG_CACHE`` read-only arrays.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    measure = state.as_measure()
    total = 0j
    if measure.m1:
        total += measure.m1 * a.cartan_part(0, 0)(0.0)
    beta, atoms = state.beta, measure.atoms
    growth = _growth_exponent(a)
    depths = tuple(ladder_depth(beta, tol, lam, growth) for lam, _ in atoms)
    rows: dict[tuple[int, int], int] = {}
    cols: dict[float, int] = {}
    entries = []
    for (m, k), f in a.terms:
        if m != k:
            continue  # single-band matrix: off-weight monomials are traceless
        for n, t, c in f.terms:
            entries.append((rows.setdefault((m, n), len(rows)), cols.setdefault(t, len(cols)), c))
    if not (atoms and entries):
        return total
    grid = np.concatenate([lam + 2.0 * _ladder(beta, d)[0] for (lam, _), d in zip(atoms, depths)])
    weights = {m: _rung_weights(atoms, beta, depths, m) for m, _ in rows}
    freqs = np.array(list(cols))
    contracted = 0
    for start in range(0, grid.size, TRACE_BLOCK):
        stop = start + TRACE_BLOCK
        x = grid[start:stop]
        r = np.array([weights[m][start:stop] * x**n for m, n in rows])
        contracted = contracted + r @ np.exp(1j * np.multiply.outer(x, freqs))
    contracted = contracted.tolist()
    return total + sum(c * contracted[i][j] for i, j, c in entries)


# -- characteristic functional ----------------------------------------------------


def chi_closed_form(state: StateSpec, t):
    """chi(t) = m1 + sum_k w_k e^{it lam_k} (1-e^{-beta}) / (1-e^{-beta+2it}).

    Accepts a scalar or an array of t values.
    """
    measure = state.as_measure()
    q = math.exp(-state.beta)
    ts = np.asarray(t, dtype=float)
    out = np.full(ts.shape, measure.m1, dtype=complex)
    geom = (1.0 - q) / (1.0 - q * np.exp(2j * ts))
    for lam, w in measure.atoms:
        out = out + w * np.exp(1j * ts * lam) * geom
    if np.isscalar(t) or getattr(t, "shape", None) == ():
        return complex(out)
    return out


# -- Cartan restriction and moments -------------------------------------------------


def cartan_restriction(state: StateSpec) -> CartanMeasure:
    """The state's measure on the Cartan subalgebra, truncated at ``ladder_depth``.

    Each Gibbs component contributes the geometric ladder (1-q) q^p at
    lam + 2p; the truncated ladder is renormalized (``_ladder``) so each
    component keeps its full weight.  Positions from different ladders closer
    than POSITION_ATOL are merged (``merge_positions``).
    """
    measure = state.as_measure()
    ps, rung_masses = _ladder(state.beta, ladder_depth(state.beta, lam_max=measure.max_lambda))
    collected: list[tuple[float, float]] = []
    for lam, w in measure.atoms:
        positions = lam + 2.0 * ps
        collected.extend(zip(positions.tolist(), (w * rung_masses).tolist()))
    return CartanMeasure(atoms=merge_positions(collected), m0=measure.m1)


def merge_positions(pairs) -> tuple[tuple[float, float], ...]:
    """Sort (x, mass) pairs; sum each run of positions within POSITION_ATOL of its first."""
    merged: list[list[float]] = []
    for x, mass in sorted(pairs):
        if merged and x - merged[-1][0] <= POSITION_ATOL:
            merged[-1][1] += mass
        else:
            merged.append([x, mass])
    return tuple((x, m) for x, m in merged)


def cartan_moment(measure: CartanMeasure, f: FunctionExpr) -> complex:
    """Integral of F against the measure: sum mass_k F(x_k) + m0 F(0)."""
    total = 0j
    if measure.m0:
        total += measure.m0 * f(0.0)
    if measure.atoms:
        xs = np.array([x for x, _ in measure.atoms])
        ms = np.array([m for _, m in measure.atoms])
        total += complex(np.sum(ms * f.evaluate_array(xs)))
    return total


# -- the uniqueness recursion -------------------------------------------------------


@lru_cache(maxsize=None)
def _eulerian(s: int) -> tuple[int, ...]:
    """Coefficients A(s, 0..s-1) of the Eulerian polynomial A_s (A_0 = 1)."""
    if s == 0:
        return (1,)
    prev = (0,) + _eulerian(s - 1) + (0,)  # prev[k] = A(s-1, k-1)
    return tuple((k + 1) * prev[k + 1] + (s - k) * prev[k] for k in range(s))


def neg_polylogs(z: complex, n: int) -> list[complex]:
    """[Li_0(z), Li_{-1}(z), ..., Li_{-n}(z)] for |z| < 1.

    Li_{-s}(z) = sum_{j>=1} j^s z^j = z A_s(z) / (1-z)^{s+1} (DLMF 25.12).  The
    Eulerian coefficients are positive, so the rounding error is bounded by
    that of the series summed over |z|^j.
    """
    r = 1.0 / (1.0 - z)
    scale = z * r
    out = []
    for s in range(n + 1):
        acc = 0j
        for c in reversed(_eulerian(s)):
            acc = acc * z + c
        out.append(scale * acc)
        scale *= r
    return out


def kms_shift_sum(f: FunctionExpr, q: float) -> FunctionExpr:
    """G = sum_{j>=1} q^j T_{-2j} F in closed form, for 0 <= q < 1.

    With z = q e^{2it}, each term c x^n e^{itx} of F contributes
    c e^{itx} sum_k C(n,k) 2^{n-k} Li_{-(n-k)}(z) x^k; G keeps F's frequencies.
    """
    # terms are sorted by power, so the last one seen at t has t's top power
    top = {t: n for n, t, _ in f.terms}
    polylogs = {t: neg_polylogs(q * cmath.exp(2j * t), n) for t, n in top.items()}
    # merged here: the ~n^2/2 raw terms would cost FunctionExpr more than the sum
    acc: dict[tuple[int, float], complex] = {}
    for n, t, c in f.terms:
        li = polylogs[t]
        for k in range(n + 1):
            acc[k, t] = acc.get((k, t), 0j) + c * math.comb(n, k) * 2 ** (n - k) * li[n - k]
    return FunctionExpr((k, t, c) for (k, t), c in acc.items())


@lru_cache(maxsize=None)
def _recursion_commutator(m: int, n: int) -> AlgebraElement:
    """[X^{m-1} Y^n, X]: strictly lower total degree than X^m Y^n."""
    return algebra.commutator(AlgebraElement.monomial(m - 1, n), algebra.X)


def eval_kms_recursion(measure: SpectralMeasure, beta: float, a: AlgebraElement) -> complex:
    """Evaluate the unique covariant KMS extension without matrices.

    Off-weight monomials vanish by covariance.  For m = n >= 1 the iterated
    KMS identity gives rho(X^m Y^m N_F) = rho([X^{m-1}Y^m, X] N_G) with
    G = sum_{j>=1} e^{-beta j} T_{-2j}F, summed exactly by ``kms_shift_sum``.
    The base case is the Gibbs-ladder Cartan moment
    m1 F(0) + (1-q) sum_k w_k (F + G)(lam_k), also exact: the evaluation is
    finite algebra with no truncation.
    """
    if not beta > 0 or math.exp(-beta) == 1.0:  # e^{-beta} must differ from 1 in floats
        raise ValueError(f"beta must be positive and above ~1e-16, got {beta}")
    q = math.exp(-beta)

    def moment(f: FunctionExpr) -> complex:
        total = measure.m1 * f(0.0)
        if measure.atoms:
            ladder = f + kms_shift_sum(f, q)
            total += (1.0 - q) * sum(w * ladder(lam) for lam, w in measure.atoms)
        return total

    def ev(elem: AlgebraElement) -> complex:
        total = 0j
        for (m, n), f in elem.terms:
            if m != n:
                continue  # covariance
            if m == 0:
                total += moment(f)
                continue
            series = kms_shift_sum(f, q)
            bracket = _recursion_commutator(m, n)
            total += ev(AlgebraElement([(key, p * series) for key, p in bracket.terms]))
        return total

    return ev(a)
