"""Recovering (m1, sigma) from Cartan data: the inverse of the state construction.

Two independent routes:

* ``ladder_peel`` works in the atom domain.  A valid restriction is
  m1 delta_0 + sum_k w_k Ladder(lam_k) with Ladder(lam) = sum_p (1-q) q^p
  delta_{lam+2p}; the smallest positive support point always belongs to
  sigma, so repeatedly reading off w = mass/(1-q) there and subtracting the
  full ladder deconvolves overlapping components.  Failure (negative
  intermediate mass, unconsumed mass) means no KMS extension exists at this
  beta.

* ``chi_fit`` works in the frequency domain.  chi(t) = m1 + g(t) sum_k w_k
  e^{it lam_k} with g(t) = (1-q)/(1-q e^{2it}); multiplying samples by
  1/g(t) turns them into the exponential sum m1/(1-q) - (m1 q/(1-q)) e^{2it}
  + sum_k w_k e^{it lam_k}.  A matrix-pencil solve (Hua & Sarkar 1990)
  seeds its nodes on a uniform grid, the periodogram on any other grid or
  when the pencil fit misses tol.  Each seed gets one variable-projection
  polish (Golub & Pereyra 1973) over one bounded weight solve (weights in
  [0,1], total mass pinned to 1); there is no multi-start.

The two routes fail differently; their agreement is the desk-scale
uniqueness check.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hankel, pinv, svd
from scipy.optimize import least_squares, lsq_linear

from .states import POSITION_ATOL, CartanMeasure, SpectralMeasure


class NotExtendable(ValueError):
    """The Cartan data admits no covariant KMS extension at this beta."""


class IllPosed(ValueError):
    """Recovered atoms are too close to separate reliably."""


#: Minimum separation between recovered atom locations before IllPosed.
ATOM_SEPARATION = 1e-6
#: Fitted weights at or below this are absent atoms: dropped, the rest refitted.
WEIGHT_FLOOR = 1e-9
#: Largest |m1 + sum w - 1| a chi fit may leave before NotExtendable.
MASS_SLACK = 1e-3


@dataclass(frozen=True)
class RecoveryResult:
    measure: SpectralMeasure
    residual: float
    method: str


# -- atom-domain route -----------------------------------------------------------


class _AtomBag:
    """Position -> mass with tolerance-based position matching."""

    def __init__(self, atol: float):
        self.atol = atol
        self.keys: list[float] = []
        self.mass: dict[float, float] = {}

    def _find(self, x: float) -> float | None:
        i = bisect.bisect_left(self.keys, x)
        for k in (i - 1, i):
            if 0 <= k < len(self.keys) and abs(self.keys[k] - x) <= self.atol:
                return self.keys[k]
        return None

    def add(self, x: float, mass: float) -> None:
        key = self._find(x)
        if key is None:
            bisect.insort(self.keys, x)
            self.mass[x] = mass
        else:
            self.mass[key] += mass

    def items(self):
        return [(k, self.mass[k]) for k in self.keys]


def ladder_peel(
    cartan: CartanMeasure,
    beta: float,
    tol: float = 1e-8,
    pos_atol: float = POSITION_ATOL,
) -> RecoveryResult:
    """Deconvolve a Cartan measure into m1 delta_0 + sum w_k Ladder(lam_k, beta).

    Atoms with |mass| < tol are treated as absent (finite inputs are
    truncated ladders).  Raises NotExtendable if any intermediate mass drops
    below -tol or unconsumed mass above tol remains.
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    q = math.exp(-beta)
    bag = _AtomBag(pos_atol)
    m0 = cartan.m0
    for x, mass in cartan.atoms:
        if abs(x) <= pos_atol:
            m0 += mass
        elif x < 0:
            if mass > tol:
                raise NotExtendable(f"mass {mass} at negative position x={x}")
        else:
            bag.add(x, mass)

    recovered: list[tuple[float, float]] = []
    subtract_floor = tol * 1e-3
    while True:
        candidate = None
        for pos, mass in bag.items():
            if mass < -tol:
                raise NotExtendable(f"negative residual mass {mass} at x={pos}")
            if abs(mass) >= tol:
                candidate = (pos, mass)
                break
        if candidate is None:
            break
        pos, mass = candidate
        w = mass / (1.0 - q)
        recovered.append((pos, w))
        p = 0
        while True:
            delta = w * (1.0 - q) * q**p
            if p > 0 and delta < subtract_floor:
                break
            bag.add(pos + 2.0 * p, -delta)
            p += 1

    leftover = sum(abs(mass) for _, mass in bag.items())
    if leftover > tol:
        raise NotExtendable(f"unconsumed mass {leftover} after peeling")
    total = m0 + sum(w for _, w in recovered)
    if abs(total - 1.0) > max(10.0 * tol, 1e-9):
        raise NotExtendable(f"recovered mass {total} is not a probability")
    measure = SpectralMeasure(
        m0 / total, tuple((lam, w / total) for lam, w in recovered)
    )
    return RecoveryResult(measure=measure, residual=leftover, method="ladder-peel")


# -- frequency-domain route --------------------------------------------------------


def _geometric_factor(ts: np.ndarray, q: float) -> np.ndarray:
    return (1.0 - q) / (1.0 - q * np.exp(2j * ts))


def _pencil_nodes(ts: np.ndarray, values: np.ndarray, max_nodes: int) -> np.ndarray:
    """Frequencies of the exponential sum values[j] = sum c_k e^{i f_k t_j}."""
    dt = ts[1] - ts[0]
    length = len(values)
    p = length // 2
    if p < 2 or length - p < 2:
        return np.array([])
    h = hankel(values[: length - p], values[length - p - 1 :])
    _, s, vh = svd(h)
    rank = int(np.sum(s > 1e-10 * s[0]))
    rank = max(1, min(rank, max_nodes, vh.shape[0], p))
    w0 = vh[:rank, :-1]
    w1 = vh[:rank, 1:]
    z = np.linalg.eigvals(pinv(w0.T) @ w1.T)
    return np.sort(np.angle(z) / dt)


def _is_uniform(ts: np.ndarray) -> bool:
    if len(ts) < 8:
        return False
    diffs = np.diff(ts)
    step = np.mean(diffs)
    return step > 0 and np.max(np.abs(diffs - step)) <= 1e-9 * max(1.0, abs(step))


def _periodogram_peaks(ts: np.ndarray, values: np.ndarray, max_peaks: int) -> np.ndarray:
    """Local maxima of |mean(values e^{-i lam t})|: the inverse-Fourier histogram.

    Works on arbitrary sampling grids; peak locations seed the nonlinear
    polish within the Fourier resolution 2 pi / span.  The scan runs up to
    the Nyquist frequency of the median spacing, clipped to [4, 24].
    """
    lam_hi = 12.0
    if len(ts) > 1:
        median_dt = float(np.median(np.diff(ts)))
        if median_dt > 0:
            lam_hi = max(4.0, min(24.0, math.pi / median_dt))
    lams = np.arange(0.05, lam_hi, 0.05)
    power = np.abs(np.exp(-1j * np.outer(lams, ts)) @ values) / len(ts)
    inner = (power[1:-1] >= power[:-2]) & (power[1:-1] >= power[2:])
    idx = np.where(inner & (power[1:-1] > 0.05 * power.max()))[0] + 1
    ranked = idx[np.argsort(power[idx])[::-1]][:max_peaks]
    return np.sort(lams[ranked])


def _solve_weights(ts, chis, geom, lams):
    """Bounded linear solve for (m1, w) at fixed atom locations.

    The design matrix has columns 1 and g(t) e^{i lam t}; BVLS solves its
    real form with weights in [0,1], the total-mass-one constraint riding
    along as a heavily weighted row, which is numerically exact at the
    residual scales accepted here.  Returns m1, w, the rms residual and the
    real residual vector that the polish minimizes.
    """
    cols = [np.ones_like(ts, dtype=complex)]
    cols += [geom * np.exp(1j * ts * lam) for lam in lams]
    a = np.column_stack(cols)
    a_real = np.vstack([a.real, a.imag])
    b_real = np.concatenate([chis.real, chis.imag])
    kappa = 1e8  # weight of the mass row
    a_aug = np.vstack([a_real, kappa * np.ones((1, a.shape[1]))])
    b_aug = np.concatenate([b_real, [kappa]])
    params = lsq_linear(a_aug, b_aug, bounds=(0.0, 1.0), method="bvls").x
    rms = float(np.sqrt(np.mean(np.abs(a @ params - chis) ** 2)))
    return params[0], params[1:], rms, a_real @ params - b_real


def _polish(ts, chis, geom, lams0):
    """Variable-projection refinement: atom locations move, weights are re-solved."""
    lams = np.asarray(lams0, dtype=float)
    if lams.size:
        def residual(x):
            return _solve_weights(ts, chis, geom, x)[3]

        fit = least_squares(residual, lams, bounds=(1e-8, np.inf), xtol=1e-14, ftol=1e-14)
        lams = np.sort(fit.x)
    return (lams,) + _solve_weights(ts, chis, geom, lams)[:3]


def chi_fit(
    samples,
    beta: float,
    max_atoms: int,
    tol: float = 1e-6,
    separation: float = ATOM_SEPARATION,
) -> RecoveryResult:
    """Fit sampled chi(t) to m1 + g(t) sum w_k e^{it lam_k}; recover the measure.

    The matrix pencil of chi/g seeds the atoms on a uniform grid; its
    periodogram seeds them on any other grid or when the pencil fit misses
    tol, and the better fit wins.  Each seed is polished once.

    Raises ValueError on a tol that is not positive and finite, a negative
    max_atoms or non-finite samples; NotExtendable when the root-mean-square
    residual over the samples exceeds tol (chi is not of the admissible
    form); IllPosed when two recovered atoms sit closer than ``separation``.
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_atoms < 0:
        raise ValueError(f"max_atoms must be >= 0, got {max_atoms}")
    pairs = [(float(t), complex(c)) for t, c in samples]
    if len(pairs) < 2 * max_atoms + 1:
        raise ValueError(
            f"need at least {2 * max_atoms + 1} samples for {max_atoms} atoms, "
            f"got {len(pairs)}"
        )
    pairs.sort(key=lambda tc: tc[0])
    ts = np.array([t for t, _ in pairs])
    chis = np.array([c for _, c in pairs])
    if not (np.isfinite(ts).all() and np.isfinite(chis).all()):
        raise ValueError("samples must be finite")
    geom = _geometric_factor(ts, math.exp(-beta))

    def evaluate(lams0):
        lams, m1, ws, rms = _polish(ts, chis, geom, lams0)
        keep = ws > WEIGHT_FLOOR
        if not np.all(keep):
            lams = lams[keep]
            m1, ws, rms, _ = _solve_weights(ts, chis, geom, lams)
        if len(lams) > max_atoms:
            order = np.argsort(ws)[::-1][:max_atoms]
            lams = np.sort(lams[order])
            m1, ws, rms, _ = _solve_weights(ts, chis, geom, lams)
        return lams, m1, ws, rms

    best = None
    if _is_uniform(ts):
        nodes = _pencil_nodes(ts, chis / geom, max_atoms + 2)
        best = evaluate(np.sort(nodes[nodes > ATOM_SEPARATION]))
    if best is None or not best[3] <= tol:
        cand = evaluate(_periodogram_peaks(ts, chis / geom, max_atoms + 2))
        if best is None or cand[3] < best[3]:
            best = cand

    lams, m1, ws, rms = best
    if not rms <= tol:
        raise NotExtendable(f"best chi-fit residual {rms:.3e} exceeds tol {tol:.3e}")
    if len(lams) >= 2 and np.min(np.diff(lams)) < separation:
        raise IllPosed(
            f"recovered atoms closer than {separation}: {np.diff(lams).min()}"
        )
    total = m1 + float(np.sum(ws))
    if abs(total - 1.0) > MASS_SLACK:
        raise NotExtendable(f"fitted mass {total} is not a probability")
    atoms = tuple(
        (float(lam), float(w) / total) for lam, w in zip(lams, ws) if w / total > 1e-12
    )
    measure = SpectralMeasure(float(m1) / total, atoms)
    return RecoveryResult(measure=measure, residual=rms, method="chi-fit")
