"""KMS states: thermal traces, the vacuum, mixtures, and the recursion oracle.

A covariant KMS state at inverse temperature beta is determined by a point
mass m1 at the bottom (vacuum component) plus a probability measure on the
positive half-line (Gibbs components); ``SpectralMeasure`` is the finite-atom
realization, and ``StateSpec`` is the pair (beta, measure).  Two independent
evaluators are provided:

* ``trace_rows`` -- trace of the Gibbs density e^{-beta H/2}/Z against the
  diagonal of X^m Y^m in the lowest-weight module (the module route), summed
  over the whole ladder in closed form (no truncation), for a batch of
  elements given as unmerged term rows in one contraction (``eval_traces``
  flattens canonical elements into it, ``eval_trace`` one element);
* ``eval_kms_recursion`` -- the iterated KMS identity
  rho(X A N_F) = rho([A, X] N_G), G = sum_{j>=1} e^{-beta j} T_{-2j}F,
  run down to Gibbs-ladder Cartan moments (no matrices).  G has a closed
  form in the function span (negative-order polylogarithms), so the
  recursion is finite, exact algebra with no truncation.

Their agreement on weight-zero monomials is the desk-scale content of the
uniqueness argument; the acceptance suite pins it.

``cartan_restriction`` lays out all Gibbs ladders as one outer sum into a
``CartanMeasure``: two sorted read-only arrays, positions and masses, merged
by the one rule of ``merge_positions``.
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
from .reps import ladder_diagonal  # noqa: F401  bench/selftest.py wraps it in this namespace

#: Largest |m1 + sum w - 1| a SpectralMeasure accepts, and how far m1 may sit below 0.
MASS_TOL = 1e-12
#: Atoms of a SpectralMeasure closer than this times max(1, location) are one atom.
ATOM_MERGE_RTOL = 1e-12

#: Cartan positions whose gap to the position below is at most this join its point
#: (``merge_positions``): ladders of different atoms landing on one point.
POSITION_ATOL = 1e-9

#: The Cartan restriction cuts each Gibbs ladder where its dropped tail holds under this.
LADDER_TOL = 1e-13
#: Deepest rung ``cartan_restriction`` lays out on a ladder.
MAX_LADDER_DEPTH = 1 << 20

# Cached ladder tables, one per (atom locations, m, n); an entry holds
# len(atoms) (2m + n + 1) floats at any beta.  A verify benchmark run (seed 1,
# 4 rounds) needs 214 keys, all with 2m + n <= 12.
LADDER_CACHE = 512


# -- measures -------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralMeasure:
    """m1 * delta_0 plus weighted atoms on (0, inf): the data classifying a state.

    Atoms within ATOM_MERGE_RTOL (relative) of each other are merged by
    summing weights; the total mass m1 + sum w_k must be 1 within MASS_TOL.
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
            if merged and abs(lam - merged[-1][0]) <= ATOM_MERGE_RTOL * max(1.0, lam):
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


@dataclass(frozen=True, eq=False)
class CartanMeasure:
    """Finite probability measure on the real line, with optional mass at 0.

    The (x, mass) pairs ``atoms``, a sequence or an (n, 2) array, are held as
    the read-only arrays ``positions`` and ``masses`` of ``merge_positions``.
    """

    positions: np.ndarray
    masses: np.ndarray
    m0: float = 0.0

    def __init__(self, atoms=(), m0: float = 0.0):
        m0 = float(m0)
        if not 0 <= m0 < math.inf:
            raise ValueError(f"m0 must be nonnegative and finite, got {m0}")
        xs, ms = np.asarray(atoms, dtype=float).reshape(len(atoms), 2).T
        bad = ~(np.isfinite(xs) & np.isfinite(ms) & (ms >= 0))
        if bad.any():
            raise ValueError(f"atoms need finite positions and nonnegative finite masses, "
                             f"got (x, mass) = ({xs[bad][0]}, {ms[bad][0]})")
        positions, masses = merge_positions(xs, ms)
        total = m0 + masses.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass must be 1, got {total}")
        positions.flags.writeable = masses.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "m0", m0)

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        """The (x, mass) pairs, in order of x."""
        return tuple(zip(self.positions.tolist(), self.masses.tolist()))


# -- states ---------------------------------------------------------------------


def ladder_ratio(beta: float) -> float:
    """q = e^{-beta}; ValueError unless beta is finite and q differs from 1 in floats."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    q = math.exp(-beta)
    if q == 1.0:
        raise ValueError(f"beta must be positive and above ~1e-16, got {beta}")
    return q


@dataclass(frozen=True)
class StateSpec:
    """A covariant KMS state: the inverse temperature and the measure classifying it."""

    beta: float
    measure: SpectralMeasure

    def __post_init__(self):
        ladder_ratio(self.beta)
        if not isinstance(self.measure, SpectralMeasure):
            raise ValueError(f"a state needs a SpectralMeasure, got {self.measure!r}")

    @classmethod
    def vacuum(cls, beta: float) -> "StateSpec":
        return cls(beta, SpectralMeasure(1.0))

    @classmethod
    def gibbs(cls, lam: float, beta: float) -> "StateSpec":
        """Gibbs(lambda): the measure delta_lambda."""
        return cls(beta, SpectralMeasure(0.0, ((lam, 1.0),)))

    @classmethod
    def mixture(cls, measure: SpectralMeasure, beta: float) -> "StateSpec":
        return cls(beta, measure)


def state_to_dict(state: StateSpec) -> dict:
    """The state in the mixture form of a state file."""
    return {
        "beta": state.beta,
        "kind": "mixture",
        "m1": state.measure.m1,
        "atoms": [{"lambda": lam, "w": w} for lam, w in state.measure.atoms],
    }


def state_from_dict(data: dict) -> StateSpec:
    """Read a state file of kind "vacuum", "gibbs" (with "lambda") or "mixture"."""
    kind = data.get("kind")
    beta = data.get("beta")
    if not isinstance(beta, (int, float)):
        raise ValueError("state file needs a numeric 'beta'")
    if kind == "vacuum":
        return StateSpec.vacuum(beta)
    if kind == "gibbs":
        return StateSpec.gibbs(data["lambda"], beta)
    if kind == "mixture":
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


def _times_root(b: np.ndarray, r) -> np.ndarray:
    """Rows of (j + r) sum_k b_k C(j, k) in the same basis C(j, k); r is a scalar or a column."""
    k = np.arange(b.shape[1] + 1)
    return (k + r) * np.pad(b, ((0, 0), (0, 1))) + k * np.pad(b, ((0, 0), (1, 0)))


@lru_cache(maxsize=LADDER_CACHE)
def _ladder_poly(lams: tuple[float, ...], m: int, n: int) -> np.ndarray:
    """b[atom, k]: (-1)^m diag_m(m+j) (lam + 2m + 2j)^n = sum_k b_k C(j, k) for j >= 0.

    diag_m is the diagonal of X^m Y^m (``reps.ladder_diagonal``), zero below
    rung m.  The polynomial is 2^n prod_{i=1..m} (j+i) prod_{i<m} (j+lam+i)
    (j + lam/2 + m)^n; each factor (j + r) has r > 0 and keeps every b_k
    positive.  Built from (m, n-1), or from (m-1, 0) when n = 0; read-only.
    """
    lam = np.array(lams)[:, None]
    if n:
        table = 2.0 * _times_root(_ladder_poly(lams, m, n - 1), lam / 2.0 + m)
    elif m:
        table = _times_root(_times_root(_ladder_poly(lams, m - 1, 0), m), lam + m - 1)
    else:
        table = np.ones((len(lams), 1))
    table.flags.writeable = False
    return table


def eval_traces(state: StateSpec, elements: list[AlgebraElement]) -> np.ndarray:
    """State values of ``elements`` by the trace over each whole Gibbs ladder, in closed form.

    Each element is flattened to the rows (m, n, t, c) of its weight-zero
    terms c x^n e^{itx} of X^m Y^m N_F, in term order, as four columns (a
    single-band matrix: off-weight monomials are traceless), and
    ``trace_rows`` contracts them.
    """
    ms, ns, ts, cs = [], [], [], []
    counts = []
    for a in elements:
        start = len(cs)
        for (m, k), f in a.terms:
            if m == k:
                powers, freqs, coeffs = zip(*f.terms)
                ms += [m] * len(coeffs)
                ns += powers
                ts += freqs
                cs += coeffs
        counts.append(len(cs) - start)
    return trace_rows(state, (ms, ns, ts, cs), counts)


def trace_rows(state: StateSpec, rows, counts) -> np.ndarray:
    """State values of elements given as rows (m, n, t, c): the terms c x^n e^{itx} of X^m Y^m N_F.

    ``rows`` holds the four columns ms, ns, ts and cs.  Element k owns the
    next ``counts[k]`` rows; rows need not be merged, as the value is linear
    in them.  The vacuum part is m1 F(0), the sum of the constant terms.  An
    atom (lam, w) gives X^m Y^m N_F the value
    w (1-q) sum_p q^p diag_m(p) F(lam + 2p), q = e^{-beta}.  For a term
    c x^n e^{itx} of F, with p = m + j and z = q e^{2it}, the sum is
    c e^{it lam} (-z)^m sum_j P(j) z^j for the polynomial P = sum_k b_k C(j, k)
    of ``_ladder_poly``, and sum_j C(j, k) z^j = z^k / (1-z)^{k+1}; so it is
    c e^{it lam} (-z)^m sum_k b_k u^k / (1-z) with u = z / (1-z).  The b_k are
    positive and |u| <= q / (1-q), so the rounding error is a small multiple of
    eps times the sum of the ladder terms' absolute values (under 5e-15 of it
    against a 50-digit ladder sum through degree 8 at beta 0.05-2).

    For F = e^{itx} this is ``chi_closed_form``'s geometric sum.

    All rows are entries (m, n) x t of one grid, each distinct (m, n) and t
    once, and a single contraction of the tables b against u^k / (1-z) and the
    atoms' phases fills it.  Each element's rows are summed in order, then
    m1 F(0) is added.  Raises ValueError when a value is not finite (an
    overflow at tiny beta and high degree), naming the first row (m, n) whose
    entry is not finite.
    """
    q = math.exp(-state.beta)
    measure = state.measure
    owners = np.repeat(np.arange(len(counts)), counts)
    ms, ns, ts, cs = rows
    ms, ns = np.array(ms, dtype=int), np.array(ns, dtype=int)
    ts, cs = np.array(ts, dtype=float), np.array(cs, dtype=complex)
    at_zero = np.zeros(len(counts), dtype=complex)  # F(0) of each Cartan part
    constant = (ms == 0) & (ns == 0)
    np.add.at(at_zero, owners[constant], cs[constant])
    sums = np.zeros(len(counts), dtype=complex)
    terms = np.zeros(len(cs), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if measure.atoms and cs.size:
            lams, weights = zip(*measure.atoms)
            span = int(ns.max()) + 1
            keys, row_of = np.unique(ms * span + ns, return_inverse=True)
            freqs, col_of = np.unique(ts, return_inverse=True)
            key_ms, key_ns = np.divmod(keys, span)
            tables = [_ladder_poly(lams, m, n) for m, n in zip(key_ms.tolist(), key_ns.tolist())]
            widths = np.array([table.shape[1] for table in tables])
            b = np.zeros((len(keys), len(lams), widths.max()))
            for i, table in enumerate(tables):
                b[i, :, : table.shape[1]] = table
            z = q * np.exp(2j * freqs)
            powers = (z / (1.0 - z)) ** np.arange(b.shape[2])[:, None] / (1.0 - z)
            phases = np.exp(1j * np.multiply.outer(lams, freqs))
            phases = (1.0 - q) * np.array(weights)[:, None] * phases
            # An overflowed u^k (tiny beta) spoils only the rows whose tables reach k:
            # a shorter row's zero padding must not meet it as 0 x inf = nan.
            overflow = ~np.isfinite(powers)
            spoiled = (np.arange(b.shape[2]) < widths[:, None]).astype(float) @ overflow > 0
            contracted = np.einsum("rak,kt,at->rt", b, np.where(overflow, 0.0, powers), phases)
            contracted = np.where(spoiled, np.inf, contracted * (-z) ** key_ms[:, None])
            terms = cs * contracted[row_of, col_of]
            np.add.at(sums, owners, terms)
        values = measure.m1 * at_zero + sums
    if not np.isfinite(values).all():
        where = "in a sum of finite terms"
        bad = np.flatnonzero(~np.isfinite(terms))
        if bad.size:  # a non-finite term spoils its own element's value
            m, n = ms[bad[0]], ns[bad[0]]
            where = f"at (m, n) = ({m}, {n}), the term x^{n} of X^{m} Y^{m} N_F"
        raise ValueError(f"trace value is not finite at beta={state.beta} {where}")
    return values


def eval_trace(state: StateSpec, a: AlgebraElement) -> complex:
    """``eval_traces`` of the one element ``a``."""
    return complex(eval_traces(state, [a])[0])


# -- characteristic functional ----------------------------------------------------


def chi_closed_form(state: StateSpec, t):
    """chi(t) = m1 + sum_k w_k e^{it lam_k} (1-e^{-beta}) / (1-e^{-beta+2it}).

    Accepts a scalar or an array of t values.
    """
    measure = state.measure
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
    """The state's measure on the Cartan subalgebra, each Gibbs ladder cut at rung P.

    Each Gibbs component contributes the geometric ladder (1-q) q^p at
    lam + 2p, q = e^{-beta}.  P is the smallest depth with
    4 q^P <= LADDER_TOL (1-q): the dropped tail then holds under LADDER_TOL/4
    of the mass, and renormalizing the rungs p = 0..P to mass 1 moves them by
    under LADDER_TOL/4 in total, so each component keeps its full weight.
    All ladders are laid out as one outer sum, and ``CartanMeasure`` merges
    them (``merge_positions``).  Raises ValueError, naming beta, when P would
    exceed MAX_LADDER_DEPTH (beta below ~4e-5).
    """
    q = math.exp(-state.beta)
    bound = LADDER_TOL * (1.0 - q)
    # ln q is -beta only up to rounding, so the estimate can be one rung off either way
    depth = math.ceil(math.log(4.0 / bound) / state.beta)
    depth += 4.0 * q**depth > bound
    depth -= depth > 1 and 4.0 * q ** (depth - 1) <= bound
    if depth > MAX_LADDER_DEPTH:
        raise ValueError(f"beta={state.beta} is too small: its Gibbs ladder needs rungs up to "
                         f"p = {depth} > {MAX_LADDER_DEPTH} to drop under {LADDER_TOL} of its mass")
    ps = np.arange(depth + 1, dtype=float)
    rung_masses = (1.0 - q) * q**ps
    rung_masses /= rung_masses.sum()
    lams, weights = np.array(state.measure.atoms).reshape(-1, 2).T
    ladders = np.stack((lams[:, None] + 2.0 * ps, weights[:, None] * rung_masses), axis=-1)
    return CartanMeasure(atoms=ladders.reshape(-1, 2), m0=state.measure.m1)


def merge_positions(xs: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (x, mass) points by x, then mass; sum runs of gaps <= POSITION_ATOL at their first x."""
    order = np.lexsort((ms, xs))
    xs, ms = xs[order], ms[order]
    starts = np.flatnonzero(np.diff(xs, prepend=-math.inf) > POSITION_ATOL)
    return xs[starts], np.add.reduceat(ms, starts)


def cartan_moment(measure: CartanMeasure, f: FunctionExpr) -> complex:
    """Integral of F against the measure: sum mass_k F(x_k) + m0 F(0)."""
    total = np.sum(measure.masses * f.evaluate_array(measure.positions))
    return complex(total + measure.m0 * f(0.0))


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
    q = ladder_ratio(beta)

    def moment(f: FunctionExpr) -> complex:
        total = measure.m1 * f(0.0)
        if measure.atoms:
            ladder = f + kms_shift_sum(f, q)
            total += (1.0 - q) * sum(w * ladder(lam) for lam, w in measure.atoms)
        return total

    def ev(m: int, n: int, f: FunctionExpr) -> complex:
        if m != n:
            return 0j  # covariance
        if m == 0:
            return moment(f)
        series = kms_shift_sum(f, q)
        return sum(ev(*key, p * series) for key, p in _recursion_commutator(m, n).terms)

    total = 0j
    for (m, n), f in a.terms:
        value = ev(m, n, f)
        if not cmath.isfinite(value):
            raise ValueError(f"recursion value is not finite at beta={beta} on X^{m} Y^{n} N_F")
        total += value
    if not cmath.isfinite(total):
        raise ValueError(f"recursion value is not finite at beta={beta}: its terms' sum overflows")
    return total
