"""50-digit mpmath reference values for the benchmark's checks.

For a state with spectral measure m1 delta_0 + sum_k w_k delta_{lam_k} at
inverse temperature beta, q = e^{-beta}, and F(x) = sum_j c_j x^{n_j} e^{i t_j x},

    rho(X^d Y^d N_F) = m1 F(0) [d = 0]
                       + sum_k w_k sum_{p>=0} (1-q) q^p diag_d(lam_k, p) F(lam_k + 2p),

    diag_d(lam, p) = (-1)^d prod_{i<d} (p - i)(lam + p - i - 1),

the trace of the Gibbs ladder against the diagonal of X^d Y^d.  The p-sum runs
until a bound on its tail is below 1e-40 times the sum.  Nothing here imports
``swnkms``: the oracle takes plain numbers, so it stays independent of the
code it checks.

Oscillating F can make the exact value many orders smaller than its terms
(at beta = 0.5, d = 8, F = x^2 e^{1.5ix} by about 1e11), and no double-precision
evaluator can then match it to relative precision.  ``state_scale`` gives the
same sum over the terms' absolute values, the scale the checks measure
errors against.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

mp.mp.dps = 50

#: The p-sum stops once its tail bound drops below this share of the sum.
TAIL = mp.mpf("1e-40")


@lru_cache(maxsize=None)
def ladder_sums(lam: float, beta: float, freqs: tuple, max_d: int, max_n: int):
    """All sums S[t][d][n] = sum_p (1-q) q^p diag_d(lam, p) (lam+2p)^n e^{it(lam+2p)}.

    One pass over the rungs serves every d <= max_d, n <= max_n and t in
    ``freqs``.  Returns ({t: rows}, abs_rows): rows[d][n] is the complex sum,
    abs_rows[d][n] the same sum over |(1-q) q^p diag_d (lam+2p)^n|.  Cached,
    so callers that ask with one frequency set and one (max_d, max_n) share it.
    """
    lam_m = mp.mpf(lam)
    q = mp.exp(-mp.mpf(beta))
    # e^{it(lam+2p)} advanced rung by rung; real and imaginary parts are
    # accumulated separately so the inner loop multiplies reals only.
    phase = {t: mp.expj(mp.mpf(t) * lam_m) for t in freqs}
    step = {t: mp.expj(2 * mp.mpf(t)) for t in freqs}
    re = {t: [[mp.mpf(0)] * (max_n + 1) for _ in range(max_d + 1)] for t in freqs}
    im = {t: [[mp.mpf(0)] * (max_n + 1) for _ in range(max_d + 1)] for t in freqs}
    absum = [[mp.mpf(0)] * (max_n + 1) for _ in range(max_d + 1)]
    weight = 1 - q  # (1-q) q^p
    p = 0
    while True:
        x = lam_m + 2 * p
        powers = [mp.mpf(1)]
        for _ in range(max_n):
            powers.append(powers[-1] * x)
        diag = [mp.mpf(1)]
        for i in range(max_d):
            diag.append(-diag[-1] * (p - i) * (lam_m + p - i - 1))
        table = [
            (d, [weight * diag[d] * pw for pw in powers])
            for d in range(min(p, max_d) + 1)  # diag_d(p) = 0 for p < d
        ]
        for d, row in table:
            for n, v in enumerate(row):
                absum[d][n] += abs(v)
        for t in freqs:
            cos, sin = phase[t].real, phase[t].imag
            re_t, im_t = re[t], im[t]
            for d, row in table:
                re_row, im_row = re_t[d], im_t[d]
                for n, v in enumerate(row):
                    re_row[n] += v * cos
                    im_row[n] += v * sin
            phase[t] *= step[t]
        if p >= max_d and p % 4 == 0:
            # For p >= d every factor of the term ratio decreases in p, so
            # the tail past p is bounded by a geometric series at the ratio
            # of the largest (d, n) term, which also bounds every other term.
            nxt = lam_m + 2 * (p + 1)
            ratio = q * (nxt / x) ** max_n
            for i in range(max_d):
                ratio *= (p + 1 - i) * (lam_m + p - i) / ((p - i) * (lam_m + p - i - 1))
            if ratio < 1:
                envelope = max(abs(v) for _, row in table for v in row)
                tail = envelope * ratio / (1 - ratio)
                scale = max(
                    [mp.mpf(1)]
                    + [abs(v) for t in freqs for rows in (re[t], im[t]) for r in rows for v in r]
                )
                if tail < TAIL * scale:
                    sums = {
                        t: [
                            [mp.mpc(a, b) for a, b in zip(re[t][d], im[t][d])]
                            for d in range(max_d + 1)
                        ]
                        for t in freqs
                    }
                    return sums, absum
        weight *= q
        p += 1


def _normalize(terms, freqs, d, max_d, max_n):
    terms = [(int(n), float(t), complex(c)) for n, t, c in terms]
    if freqs is None:
        freqs = {t for _, t, _ in terms}
    freqs = tuple(sorted(set(freqs)))
    max_d = d if max_d is None else max_d
    max_n = max([max_n] + [n for n, _, _ in terms])
    return terms, freqs, max_d, max_n


def state_value(m1, atoms, beta, d: int, terms, freqs=None, max_d=None, max_n=2):
    """rho(X^d Y^d N_F) for the state m1 delta_0 + sum w delta_lam at beta.

    ``terms`` are F's (n, t, c) triples.  ``freqs``, ``max_d`` and ``max_n``
    widen the cached ladder sums so that many calls on one state share them;
    ``freqs`` must contain every frequency of ``terms``.
    """
    terms, freqs, max_d, max_n = _normalize(terms, freqs, d, max_d, max_n)
    total = mp.mpc(0)
    if d == 0 and m1:
        total += mp.mpf(m1) * mp.fsum(mp.mpc(c) for n, _, c in terms if n == 0)
    for lam, w in atoms:
        sums, _ = ladder_sums(lam, beta, freqs, max_d, max_n)
        total += mp.mpf(w) * mp.fsum(mp.mpc(c) * sums[t][d][n] for n, t, c in terms)
    return total


def state_scale(m1, atoms, beta, d: int, terms, freqs=None, max_d=None, max_n=2):
    """The sum ``state_value`` computes, over the absolute values of its terms."""
    terms, freqs, max_d, max_n = _normalize(terms, freqs, d, max_d, max_n)
    total = mp.mpf(0)
    if d == 0 and m1:
        total += mp.mpf(m1) * mp.fsum(abs(c) for n, _, c in terms if n == 0)
    for lam, w in atoms:
        _, absum = ladder_sums(lam, beta, freqs, max_d, max_n)
        total += mp.mpf(w) * mp.fsum(abs(c) * absum[d][n] for n, _, c in terms)
    return total


def chi(m1: float, atoms, beta: float, t: float) -> mp.mpc:
    """chi(t) = m1 + sum_k w_k e^{it lam_k} (1-q) / (1 - q e^{2it}), in closed form."""
    q = mp.exp(-mp.mpf(beta))
    t = mp.mpf(t)
    geom = (1 - q) / (1 - q * mp.expj(2 * t))
    return mp.mpf(m1) + geom * mp.fsum(mp.mpf(w) * mp.expj(t * mp.mpf(lam)) for lam, w in atoms)


def rel_error(value: complex, ref, scale=None) -> float:
    """|value - ref| / scale, where scale defaults to |ref|.

    With a zero scale (the vacuum on X^d Y^d, d >= 1) it is the absolute error.
    """
    err = abs(mp.mpc(value) - ref)
    scale = abs(ref) if scale is None else scale
    return float(err / scale) if scale != 0 else float(err)
