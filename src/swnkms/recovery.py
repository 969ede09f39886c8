"""Recovering (m1, sigma) from Cartan data: the inverse of the state construction.

Two independent routes:

* ``ladder_peel`` works in the atom domain.  A valid restriction is
  nu = m1 delta_0 + sigma * Ladder with Ladder = (1-q) sum_p q^p delta_{2p},
  a convolution with the local inverse sigma(x) = (nu(x) - q nu(x-2)) / (1-q)
  on x > 0, read in one pass over the support, so overlapping components
  separate without subtracting ladders; the support is read straight from
  the ``CartanMeasure`` arrays.  Failure (sigma below -tol/(1-q),
  unconsumed mass) means no KMS extension exists at this beta.

* ``chi_fit`` works in the frequency domain.  chi(t) = m1 + g(t) sum_k w_k
  e^{it lam_k} with g(t) = (1-q)/(1-q e^{2it}); multiplying samples by
  1/g(t) turns them into the exponential sum m1/(1-q) - (m1 q/(1-q)) e^{2it}
  + sum_k w_k e^{it lam_k}.  On an exactly uniform grid the singular values
  of its Hankel matrix come first: a fit has at most max_atoms + 2 nodes,
  so the next singular value bounds every fit's residual from below (Weyl's
  inequality), and data whose bound exceeds tol is rejected with no fit at
  all.  Otherwise a matrix-pencil solve (Hua & Sarkar 1990) on that SVD seeds
  its nodes whose weight in chi/g, m1's share taken out, exceeds tol on a
  uniform grid, the periodogram on any other grid or when the pencil fit
  misses tol.  Each seed gets one
  variable-projection polish (Golub & Pereyra 1973) over one bounded weight
  solve (weights in [0,1], total mass pinned to 1); there is no multi-start.
  The weight solve is a direct least-squares solve, with BVLS (Stark & Parker
  1995, ported here as ``lsq_linear``) only when its weights leave [0,1].
  The polish is a bounded trust-region loop with the projection's analytic
  Jacobian (Kaufman 1975) and exact Hessian, which takes Newton steps where
  Gauss-Newton would converge only linearly at a large residual (Ruhe &
  Wedin 1980).  When the fit then drops an atom of nonzero weight or trims
  to max_atoms, the atoms kept are polished once more.

The two routes fail differently; their agreement is the desk-scale
uniqueness check.  Both need numpy alone; nothing here loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import POSITION_ATOL, CartanMeasure, SpectralMeasure, ladder_ratio, merge_positions


class NotExtendable(ValueError):
    """The Cartan data admits no covariant KMS extension at this beta."""


class IllPosed(ValueError):
    """Recovered atoms are too close to separate reliably."""


#: Minimum separation between recovered atom locations before IllPosed.
ATOM_SEPARATION = 1e-6
#: Fitted weights at or below this are absent atoms, dropped from the fit (see chi_fit).
WEIGHT_FLOOR = 1e-9
#: Largest |m1 + sum w - 1| a chi fit may leave before NotExtendable.
MASS_SLACK = 1e-3
#: Weight of the row m1 + sum w = 1 in the weight solve: pins the mass to 1.
MASS_ROW_WEIGHT = 1e8
#: Pencil singular values at or below this fraction of the largest are noise.
PENCIL_RANK_CUT = 1e-10
#: Normalized chi-fit weights at or below this are dropped from the measure.
ATOM_DROP = 1e-12
#: Lower bound on atom locations in the chi-fit polish.
LOCATION_FLOOR = 1e-8
#: BVLS stops at a KKT violation or a relative cost decrease below this (scipy's default).
BVLS_TOL = 1e-10


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

    Raises ValueError on a beta that is not finite or whose e^{-beta} rounds
    to 1 (below ~1e-16) and on a tol that is not positive and finite;
    NotExtendable on mass above tol at x < 0, on r < -tol, on a residual
    above tol, or when the recovered mass is not 1.
    """
    q = ladder_ratio(beta)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    xs, masses = cartan.positions, cartan.masses
    m0 = sum(masses[np.abs(xs) <= POSITION_ATOL].tolist(), cartan.m0)
    negative = (xs < -POSITION_ATOL) & (masses > tol)
    if negative.any():
        raise NotExtendable(f"mass {masses[negative][0]} at negative position x={xs[negative][0]}")
    xs, masses = xs[xs > POSITION_ATOL], masses[xs > POSITION_ATOL]

    # each point and one rung past it, where a ladder cut short leaves r < 0
    points, nu = merge_positions(np.concatenate((xs, xs + 2.0)), np.pad(masses, (0, masses.size)))
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


def _hankel_svd(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of the pencil's Hankel matrix.

    Row j of the matrix is values[j : j + p + 1], for j < len(values) - p
    and p = len(values) // 2.
    """
    length = len(values)
    p = length // 2
    h = values[np.add.outer(np.arange(length - p), np.arange(p + 1))]
    _, s, vh = np.linalg.svd(h)
    # in Fortran order, as scipy.linalg.svd returns it: laid out in C order,
    # w1 in _pencil_nodes makes the product w0^+ w1 round differently in the last bit
    return s, np.asfortranarray(vh)


def _pencil_rms_floor(ts: np.ndarray, geom: np.ndarray, s: np.ndarray, nodes: int) -> float:
    """A lower bound on the rms residual of every chi fit with at most ``nodes`` nodes in chi/g.

    s holds the singular values of the Hankel matrix of chi/g; the bound is
    derived in ``chi_fit``.  Returns 0 where nothing is proved: on a grid
    whose times stray from t_0 + j dt by more than rounding, where a fit's
    samples are not geometric, or with no singular value past ``nodes``.
    """
    eps = np.finfo(float).eps
    length = ts.size
    # np.linspace gives exactly this grid but for the rounding of its last point
    grid = ts[0] + (ts[-1] - ts[0]) / (length - 1) * np.arange(length)
    if nodes >= s.size or np.max(np.abs(ts - grid)) > 4.0 * eps * np.max(np.abs(ts)):
        return 0.0
    # forming chi/g and the SVD's backward error each cost a few eps of |H| <= sqrt(p + 1) s[0]
    sigma = s[nodes] - length * eps * s[0]
    return max(sigma, 0.0) * float(np.min(np.abs(geom))) / math.sqrt(s.size * length)


def _pencil_nodes(s: np.ndarray, vh: np.ndarray, dt: float, max_nodes: int) -> np.ndarray:
    """Frequencies of the exponential sum values[j] = sum c_k e^{i f_k j dt}.

    s and vh are ``_hankel_svd(values)``.
    """
    rank = int(np.sum(s > PENCIL_RANK_CUT * s[0]))
    rank = max(1, min(rank, max_nodes, vh.shape[0] - 1))
    w0 = vh[:rank, :-1]
    w1 = vh[:rank, 1:]
    # pseudo-inverse of w0.T, cut where scipy.linalg.pinv cuts the rank
    u, s, vh = np.linalg.svd(w0.T, full_matrices=False)
    r = np.sum(s > max(w0.shape) * np.finfo(float).eps * s[0])
    z = np.linalg.eigvals(((u[:, :r] / s[:r]) @ vh[:r]).conj().T @ w1.T)
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


def lsq_linear(a, b, x0):
    """argmin |a x - b| over the box [0, 1], started from the least-squares solution x0.

    BVLS (Stark & Parker 1995) as scipy 1.17.1 runs it in
    ``lsq_linear(a, b, bounds=(0, 1), method="bvls")``, step for step, so that
    the result is scipy's bit for bit, except where scipy returns NaN: when a
    variable left slightly past its bound is freed and re-solves to the same
    value, scipy divides by its zero step; here its step length is 0 and it
    is bound exactly on its bound.  The initialization clamps x0 into the box
    and re-solves on the variables still free, clamping again, until the
    free solution is feasible.  Each main iteration then frees the bound
    variable whose gradient pushes outward hardest, re-solves on the free
    set, and steps back along the segment to the first bound it crosses,
    binding that variable, until the free solution is feasible.  The loop
    stops when the KKT conditions hold within BVLS_TOL, when the cost falls
    by less than BVLS_TOL of itself, or after one iteration per variable.
    """
    # -1, 0 or 1: held at 0, free, or held at 1
    on_bound = np.where(x0 <= 0.0, -1.0, np.where(x0 >= 1.0, 1.0, 0.0))
    x = np.where(on_bound == 0, x0, np.maximum(on_bound, 0.0))
    free = np.flatnonzero(on_bound == 0)
    while free.size > 0:
        z = np.linalg.lstsq(a[:, free], b - a @ (x * (on_bound != 0)), rcond=None)[0]
        side = np.where(z < 0.0, -1.0, np.where(z > 1.0, 1.0, 0.0))
        x[free] = np.where(side == 0, z, np.maximum(side, 0.0))
        on_bound[free] = side
        if not side.any():
            break
        free = free[side == 0]
    r = a @ x - b
    cost, g = 0.5 * np.dot(r, r), a.T @ r
    for _ in range(x.size):
        # KKT: no gradient on a free variable, none pushing a bound one inward
        if np.max(np.where(on_bound == 0, np.abs(g), g * on_bound)) < BVLS_TOL:
            break
        on_bound[np.argmax(g * on_bound)] = 0.0
        while True:
            free = np.flatnonzero(on_bound == 0)
            x_free = x[free]
            z = np.linalg.lstsq(a[:, free], b - a @ (x * (on_bound != 0)), rcond=None)[0]
            low, high = np.flatnonzero(z < 0.0), np.flatnonzero(z > 1.0)
            crossing = np.hstack((low, high))
            if crossing.size == 0:
                x[free] = z
                break
            # a crossing variable that does not move sits past its bound already
            step = z[crossing] - x_free[crossing]
            alphas = np.hstack((0.0 - x_free[low], 1.0 - x_free[high])) / np.where(
                step == 0.0, np.inf, step
            )
            i = np.argmin(alphas)
            x_free *= 1 - alphas[i]
            x_free += alphas[i] * z
            x[free] = x_free
            j = free[crossing[i]]
            on_bound[j] = -1.0 if i < low.size else 1.0
            if step[i] == 0.0:
                x[j] = max(on_bound[j], 0.0)
        r = a @ x - b
        cost_new = 0.5 * np.dot(r, r)
        if cost - cost_new < BVLS_TOL * cost:
            break
        cost, g = cost_new, a.T @ r
    return x


def _solve_weights(ts, chis, geom, lams):
    """Bounded linear solve for (m1, w) at fixed atom locations.

    The design matrix has columns 1 and g(t) e^{i lam t}.  Its real form, with
    the total-mass-one constraint riding along as a row weighted by
    MASS_ROW_WEIGHT (numerically exact at the residual scales accepted here),
    is solved by plain least squares.  Only when those weights leave [0,1]
    does BVLS (``lsq_linear``, this module's port of scipy's) run; it starts
    from the same solution and would return it unchanged inside the box, so
    the result is BVLS's either way.  Returns the parameters (m1, w_1, ...),
    the rms residual over the samples, and the augmented real design matrix
    and residual that the polish reads.
    """
    a = np.ones((ts.size, len(lams) + 1), dtype=complex)
    a[:, 1:] = geom[:, None] * np.exp(1j * np.outer(ts, lams))
    a_aug = np.vstack([a.real, a.imag, np.full((1, a.shape[1]), MASS_ROW_WEIGHT)])
    b_aug = np.concatenate([chis.real, chis.imag, [MASS_ROW_WEIGHT]])
    params = np.linalg.lstsq(a_aug, b_aug, rcond=-1)[0]
    if not np.all((params >= 0.0) & (params <= 1.0)):
        params = lsq_linear(a_aug, b_aug, params)
    rms = float(np.sqrt(np.mean(np.abs(a @ params - chis) ** 2)))
    return params, rms, a_aug, a_aug @ params - b_aug


def _projection_derivatives(ts, a_aug, params, resid):
    """Jacobian of the weight solve's data residual over the atom locations,
    and the exact Hessian of the projected cost.

    Weights strictly inside (0,1) are free; the rest stay at their bound.  With
    w the weights, D_k and E_k the first and second derivatives of the design
    in lam_k (its one column i t g(t) e^{i t lam_k} and -t^2 g(t) e^{i t lam_k},
    zero in the mass row), G = D w, R the augmented residual and A_F the free
    columns, let X = U^T G + S^-1 V^T C^T, where A_F = U S V^T and C^T carries
    D_k^T R in the row of atom k's free column.  Then the Jacobian is G - U X
    (Golub & Pereyra 1973; Kaufman 1975), and the Hessian of |R|^2 / 2 is the
    Schur complement G^T G + diag(w_k E_k^T R) - X^T X of the weights' block.
    The SVD is cut where lstsq cuts the rank, so a rank-deficient design still
    gives finite derivatives; normal equations would square the mass row's
    MASS_ROW_WEIGHT into the conditioning.
    """
    n = ts.size
    t = ts[:, None]
    atoms = a_aug[:, 1:]
    deriv = np.vstack([-t * atoms[n:-1], t * atoms[:n], np.zeros((1, atoms.shape[1]))])
    ws = params[1:]
    jac = deriv * ws
    hess = np.diag(-ws * ((resid[:-1] * np.concatenate([ts, ts]) ** 2) @ atoms[:-1]))
    free = (params > 0.0) & (params < 1.0)
    if free.any():
        u, s, vt = np.linalg.svd(a_aug[:, free], full_matrices=False)
        kept = s > 0.5 * np.finfo(float).eps * s[0]  # LAPACK's machine precision
        u, s, vt = u[:, kept], s[kept], vt[kept]
        free_atoms = free[1:]
        proj = u.T @ jac
        cross = np.zeros_like(proj)
        cross[:, free_atoms] = vt[:, np.flatnonzero(free) > 0] / s[:, None] * (
            resid @ deriv[:, free_atoms]
        )
        jac -= u @ (proj + cross)
        # J^T J = (P G)^T (P G) + cross^T cross, as U^T P G = 0
        hess -= proj.T @ cross + cross.T @ proj + 2.0 * cross.T @ cross
    return jac[:-1], hess + jac.T @ jac


def _trust_step(model, grad, radius):
    """argmin of grad.p + p.model.p / 2 over |p| <= radius, for a positive semidefinite model.

    In the model's eigenbasis the constrained minimizer is -(model + alpha)^-1
    grad, with alpha found by Newton's method on 1/|p(alpha)| (More & Sorensen
    1983), started below the root so that it rises to it without overshoot.
    """
    lam, vec = np.linalg.eigh(model)
    lam = np.maximum(lam, 0.0)
    gq = vec.T @ grad
    lowest = 0.0 if lam[0] > 0 else np.finfo(float).eps * max(lam[-1], 1.0)
    alpha = max(lowest, np.linalg.norm(grad) / radius - lam[-1])
    for _ in range(30):
        p = gq / (lam + alpha)
        norm = np.linalg.norm(p)
        if norm <= radius * (1.0 + 1e-3) and (alpha == lowest or norm >= radius * (1.0 - 1e-3)):
            break
        alpha += (norm / radius - 1.0) * norm**2 / np.sum(gq**2 / (lam + alpha) ** 3)
        alpha = max(alpha, lowest)
    return -(vec @ p)


def _polish(ts, chis, geom, lams0):
    """Variable-projection refinement: atom locations move, weights are re-solved.

    A bounded trust-region loop on f = |r|^2 / 2, the data residual at the
    best weights for the locations, with gradient J^T r.  Its model is
    Gauss-Newton's J^T J or the exact Hessian of ``_projection_derivatives``,
    whichever predicted the last step's actual reduction better (Dennis, Gay
    & Welsch 1981), starting with J^T J and keeping it wherever the Hessian
    is not positive definite on the atoms that move: Newton converges
    quadratically at any residual size, Gauss-Newton only linearly at a large
    one (Ruhe & Wedin 1980).  Atoms of weight 0 do not move.  Otherwise the
    loop is scipy's trf: Coleman-Li scaling, which holds an atom at
    LOCATION_FLOOR while its gradient points outward, the same initial
    radius and radius update, ftol and xtol 1e-14, gtol 1e-8 on the scaled
    gradient, and at most 100 evaluations per atom.  A step that crosses
    the floor is projected onto it.  The weights returned are the last
    accepted step's; only atoms that end out of order are sorted and solved
    again.
    """
    # strictly above the floor, as trf starts, so that the radius is finite
    x = np.maximum(np.asarray(lams0, dtype=float), LOCATION_FLOOR + 1e-10)
    if x.size:
        fit = _solve_weights(ts, chis, geom, x)
        budget, evaluations, done, radius, newton = 100 * x.size, 1, False, None, False
        while not done and evaluations < budget:
            params, _, a_aug, resid = fit
            cost = 0.5 * resid[:-1] @ resid[:-1]
            jac, hess = _projection_derivatives(ts, a_aug, params, resid)
            grad = jac.T @ resid[:-1]
            v = np.where(grad > 0, x - LOCATION_FLOOR, 1.0)
            if np.max(np.abs(v * grad)) < 1e-8:
                break
            if radius is None:
                radius = np.linalg.norm(x / np.sqrt(v))
            move = params[1:] > 0
            scale = np.sqrt(v[move])
            barrier = np.diag(np.maximum(grad[move], 0.0))
            scaled_jac = jac[:, move] * scale
            models = (
                scaled_jac.T @ scaled_jac + barrier,
                scale[:, None] * hess[np.ix_(move, move)] * scale + barrier,
            )
            positive = np.linalg.eigvalsh(models[1])[0] > 0
            exact = bool(newton and positive)
            grad_h = scale * grad[move]
            reduction = -1.0
            while reduction <= 0 and evaluations < budget:
                x_new = x.copy()
                x_new[move] += scale * _trust_step(models[exact], grad_h, radius)
                x_new = np.maximum(x_new, LOCATION_FLOOR)
                step = x_new[move] - x[move]
                step_h = np.divide(step, scale, out=np.zeros_like(step), where=scale > 0)
                fit_new = _solve_weights(ts, chis, geom, x_new)
                evaluations += 1
                reduction = cost - 0.5 * fit_new[3][:-1] @ fit_new[3][:-1]
                predicted = [-(grad_h @ step_h + 0.5 * step_h @ m @ step_h) for m in models]
                if positive:
                    newton = abs(reduction - predicted[1]) < abs(reduction - predicted[0])
                predicted = predicted[exact]
                if predicted > 0:
                    ratio = reduction / predicted
                else:
                    ratio = 1.0 if predicted == reduction == 0 else 0.0
                done = (reduction < 1e-14 * cost and ratio > 0.25) or (
                    np.linalg.norm(step) < 1e-14 * (1e-14 + np.linalg.norm(x))
                )
                if done:
                    break
                step_h_norm = np.linalg.norm(step_h)
                if ratio < 0.25:
                    radius = 0.25 * step_h_norm
                elif ratio > 0.75 and step_h_norm > 0.95 * radius:
                    radius *= 2.0
            if reduction > 0:
                x, fit = x_new, fit_new
        if np.all(x[:-1] <= x[1:]):
            return (x,) + fit[:2]
        x = np.sort(x)
    return (x,) + _solve_weights(ts, chis, geom, x)[:2]


def chi_fit(
    samples,
    beta: float,
    max_atoms: int,
    tol: float = 1e-6,
    separation: float = ATOM_SEPARATION,
) -> RecoveryResult:
    """Fit sampled chi(t) to m1 + g(t) sum w_k e^{it lam_k}; recover the measure.

    On a grid of N times within rounding of t_0 + j dt, the SVD of the
    (N - p) x (p + 1) Hankel matrix of chi/g, p = N // 2, is read first.
    chi/g of any fit is a sum of at most r = max_atoms + 2 exponentials (m1
    adds the nodes 0 and 2), so its Hankel matrix has rank at most r.  A fit
    of rms e differs from the data by at most e / min|g| per sample in chi/g,
    so the two Hankel matrices differ by at most sqrt(min(N - p, p + 1) N)
    e / min|g| in Frobenius norm, and by Weyl's inequality every such fit
    leaves rms >= sigma_{r+1} min|g| / sqrt(min(N - p, p + 1) N), less a
    rounding margin.  When that bound exceeds tol, NotExtendable is raised
    before any fit.  The bound holds for complex amplitudes too, so it does
    not depend on the [0, 1] box or MASS_SLACK.  On any other grid,
    including one that ``_is_uniform`` accepts within its 1e-9 jitter,
    nothing is proved this way and the fits below decide.

    The matrix pencil of chi/g seeds the atoms on a uniform grid; its
    periodogram seeds them on any other grid or when the pencil fit misses
    tol, and the better fit wins.  An atom's amplitude in chi/g is its
    weight, so the pencil seeds only nodes of weight above tol; a seed no
    heavier than that is indistinguishable from the residual the fit may
    leave.  m1 adds m1/(1-q) at node 0 and -m1 q/(1-q) at node 2, so when
    the node nearest 2 lies within pi/span of it with a negative amplitude
    a_2, a_2/q is first added to the node nearest 0.  That leaves out both
    of m1's nodes, which on noisy data sit off 0 and 2 and would otherwise
    take a small weight and wander through the atoms for up to a hundred
    polish steps before the fit trims them; an atom at 2 that outweighs
    m1's term there keeps a positive amplitude and is seeded.  Each seed is
    polished once, and the atoms it keeps once more if it drops one of
    weight in (0, WEIGHT_FLOOR] or trims to max_atoms; dropping weights of
    exactly 0 leaves the rest at their optimum, so they are only refitted.

    Raises ValueError on a beta that is not finite or whose e^{-beta} rounds
    to 1 (below ~1e-16), a tol that is not positive and finite, a negative
    max_atoms, fewer than 2 max_atoms + 1 distinct sample times or non-finite
    samples; NotExtendable when the singular-value bound proves that no fit
    with at most max_atoms atoms reaches tol (its message names the bound),
    or when the best fit's root-mean-square residual over the samples
    exceeds tol (chi is not of the admissible form); IllPosed when
    two recovered atoms sit closer than ``separation``.
    """
    q = ladder_ratio(beta)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_atoms < 0:
        raise ValueError(f"max_atoms must be >= 0, got {max_atoms}")
    pairs = [(float(t), complex(c)) for t, c in samples]
    distinct = len({t for t, _ in pairs})
    if distinct < 2 * max_atoms + 1:
        raise ValueError(
            f"need at least {2 * max_atoms + 1} distinct sample times for "
            f"{max_atoms} atoms, got {distinct}"
        )
    pairs.sort(key=lambda tc: tc[0])
    ts = np.array([t for t, _ in pairs])
    chis = np.array([c for _, c in pairs])
    if not (np.isfinite(ts).all() and np.isfinite(chis).all()):
        raise ValueError("samples must be finite")
    geom = _geometric_factor(ts, q)

    def evaluate(lams0):
        lams, params, rms = _polish(ts, chis, geom, lams0)
        ws = params[1:]
        keep = ws > WEIGHT_FLOOR
        if np.count_nonzero(keep) > max_atoms:
            keep[np.argsort(ws)[::-1][max_atoms:]] = False
        if not np.all(keep):
            lams = lams[keep]
            if np.any(ws[~keep] > 0):
                lams, params, rms = _polish(ts, chis, geom, lams)
            else:  # atoms of weight 0 left the others at their optimum
                params, rms = _solve_weights(ts, chis, geom, lams)[:2]
        return lams, params[0], params[1:], rms

    best = None
    values = chis / geom
    if _is_uniform(ts):
        s, vh = _hankel_svd(values)
        # chi/g of a fit has the nodes 0 and 2 of m1 besides its atoms
        floor = _pencil_rms_floor(ts, geom, s, max_atoms + 2)
        if floor > tol:
            # shrunk by more than .3e rounds, so the printed bound still holds
            raise NotExtendable(
                f"no fit with at most {max_atoms} atoms reaches tol {tol:.3e}: every one "
                f"leaves rms >= {floor * (1.0 - 1e-3):.3e} "
                f"(pencil singular value {max_atoms + 3})"
            )
        nodes = _pencil_nodes(s, vh, ts[1] - ts[0], max_atoms + 2)
        amps = np.linalg.lstsq(np.exp(1j * np.outer(ts, nodes)), values, rcond=None)[0].real
        # m1 puts -m1 q/(1-q) at node 2 and m1/(1-q) at node 0: take its share out of 0
        two, zero = np.argmin(np.abs(nodes - 2.0)), np.argmin(np.abs(nodes))
        if abs(nodes[two] - 2.0) < math.pi / (ts[-1] - ts[0]) and amps[two] < 0:
            amps[zero] += amps[two] / q
        best = evaluate(np.sort(nodes[(nodes > ATOM_SEPARATION) & (amps > tol)]))
    if best is None or not best[3] <= tol:
        cand = evaluate(_periodogram_peaks(ts, values, max_atoms + 2))
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
        (float(lam), float(w) / total) for lam, w in zip(lams, ws) if w / total > ATOM_DROP
    )
    measure = SpectralMeasure(float(m1) / total, atoms)
    return RecoveryResult(measure=measure, residual=rms, method="chi-fit")
