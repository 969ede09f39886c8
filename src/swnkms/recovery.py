"""Recovering (m1, sigma) from Cartan data: the inverse of the state construction.

Two independent routes:

* ``ladder_peel`` works in the atom domain.  A valid restriction is
  nu = m1 delta_0 + sigma * Ladder with Ladder = (1-q) sum_p q^p delta_{2p},
  a convolution with the local inverse sigma(x) = (nu(x) - q nu(x-2)) / (1-q)
  on x > 0, read in one pass over the support, so overlapping components
  separate without subtracting ladders.  Failure (sigma below -tol/(1-q),
  unconsumed mass) means no KMS extension exists at this beta.

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

import math
from dataclasses import dataclass

import numpy as np

from .states import POSITION_ATOL, CartanMeasure, SpectralMeasure, merge_positions

# The scipy routines of ``chi_fit``, imported on first call: loading scipy
# costs more than the rest of the package, and ``ladder_peel`` needs none of it.


def hankel(*args, **kwargs):
    from scipy.linalg import hankel
    return hankel(*args, **kwargs)


def pinv(*args, **kwargs):
    from scipy.linalg import pinv
    return pinv(*args, **kwargs)


def svd(*args, **kwargs):
    from scipy.linalg import svd
    return svd(*args, **kwargs)


def lsq_linear(*args, **kwargs):
    from scipy.optimize import lsq_linear
    return lsq_linear(*args, **kwargs)


def least_squares(*args, **kwargs):
    from scipy.optimize import least_squares
    return least_squares(*args, **kwargs)


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


def ladder_peel(cartan: CartanMeasure, beta: float, tol: float = 1e-8) -> RecoveryResult:
    """Invert nu = m1 delta_0 + sigma * (1-q) sum_p q^p delta_{2p}, q = e^{-beta}.

    Mass within POSITION_ATOL of 0 is m1.  On x > 0 the convolution has the
    local inverse r(x) = nu(x) - q nu(x-2) = (1-q) sigma(x), read in one pass
    over the merged support points and one rung past each.  A point with
    r >= tol is an atom of weight r/(1-q); the rest are absent (finite inputs
    are truncated ladders), so nu(x-2) is taken net of the mass left
    unconsumed there.  The residual is the unconsumed mass: |nu - recovered
    ladders| summed over the points and the ladders' tails past them.

    Raises NotExtendable on mass above tol at x < 0, on r < -tol, on a
    residual above tol, or when the recovered mass is not 1.
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    q = math.exp(-beta)
    m0 = cartan.m0
    positive = []
    for x, mass in cartan.atoms:
        if abs(x) <= POSITION_ATOL:
            m0 += mass
        elif x < 0:
            if mass > tol:
                raise NotExtendable(f"mass {mass} at negative position x={x}")
        else:
            positive.append((x, mass))

    # each point and one rung past it, where a ladder cut short leaves r < 0
    points, nu = np.array(
        merge_positions(positive + [(x + 2.0, 0.0) for x, _ in positive])
    ).reshape(-1, 2).T
    i = np.searchsorted(points, points - 2.0 - POSITION_ATOL)
    below = np.where(np.abs(points[i] - (points - 2.0)) <= POSITION_ATOL, i, -1)
    nu = nu.tolist()

    recovered: list[tuple[float, float]] = []
    unconsumed: list[float] = []  # nu minus the recovered ladders, point by point
    for x, mass, j in zip(points.tolist(), nu, below.tolist()):
        if j >= 0:
            mass -= q * (nu[j] - unconsumed[j])
        if mass < -tol:
            raise NotExtendable(f"negative residual mass {mass} at x={x}")
        if mass >= tol:
            recovered.append((x, mass / (1.0 - q)))
            mass = 0.0
        unconsumed.append(mass)
    # past the last point x of each chain the ladders run on as q^k (nu - ladders)(x)
    last = np.ones(points.size, dtype=bool)
    last[below[below >= 0]] = False
    unconsumed = np.abs(unconsumed)
    leftover = float(unconsumed.sum() + q / (1.0 - q) * unconsumed[last].sum())
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
