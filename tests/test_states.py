import json
import math
import tracemalloc
import warnings

import hypothesis.strategies as st
import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings

from swnkms import states
from swnkms.algebra import AlgebraElement, N, X, Y, weight_zero_rows
from swnkms.funcspace import ONE, X_VAR, FunctionExpr
from swnkms.reps import ladder_diagonal
from swnkms.states import (
    CartanMeasure,
    SpectralMeasure,
    StateSpec,
    cartan_moment,
    cartan_restriction,
    chi_closed_form,
    eval_kms_recursion,
    eval_trace,
    eval_traces,
    kms_shift_sum,
    merge_positions,
    neg_polylogs,
    state_from_dict,
    state_to_dict,
    trace_rows,
)
from swnkms.verify import random_element

LN2 = math.log(2.0)


def weight_zero_part(a: AlgebraElement) -> AlgebraElement:
    """The terms X^m Y^m N_F of ``a``: all that a covariant state sees."""
    return AlgebraElement([(key, f) for key, f in a.terms if key[0] == key[1]])


def cartan_function(a: AlgebraElement) -> FunctionExpr:
    """F of the term N_F of ``a`` (zero when it has none)."""
    return dict(a.terms).get((0, 0), FunctionExpr.zero())


def geometric_oracle(lam, beta, diag_fn, depth=4000):
    """Independent sum over the spectrum: sum_p (1-q) q^p diag_fn(p) (brute force)."""
    q = math.exp(-beta)
    ps = np.arange(depth)
    weights = (1.0 - q) * q ** ps.astype(float)
    return complex(np.sum(weights * np.asarray([diag_fn(int(p)) for p in ps])))


def gibbs_monomial_oracle(lam, beta, m, f, depth=4000):
    """rho_lambda(X^m Y^m N_F) summed directly from the module action."""

    def diag(p):
        value = 1.0
        for i in range(m):
            value *= (p - i) * (lam + p - i - 1)
        value *= (-1.0) ** m if m else 1.0
        return value * f(lam + 2.0 * p)

    return geometric_oracle(lam, beta, diag, depth)


def mp_ladder_sums(m1, atoms, beta, max_d, terms):
    """rho(X^d Y^d N_F) for d <= max_d at 50 digits, and the sums of |terms|.

    Sums every atom's Gibbs ladder sum_p (1-q) q^p diag_d(p) F(lam+2p)
    directly, with diag_d(p) = (-1)^d prod_{i<d} (p-i)(lam+p-i-1), until the
    terms drop below 1e-45 of the sum; the vacuum part m1 F(0) enters at d = 0.
    """
    with mp.workdps(50):
        q = mp.exp(-mp.mpf(beta))
        values = [mp.mpc(0)] * (max_d + 1)
        scales = [mp.mpf(0)] * (max_d + 1)
        constants = [mp.mpc(c) for n, _, c in terms if n == 0]
        values[0] += m1 * mp.fsum(constants)
        scales[0] += m1 * mp.fsum(abs(c) for c in constants)
        for lam, w in atoms:
            lam = mp.mpf(lam)
            weight = (1 - q) * w
            p = 0
            while True:
                x = lam + 2 * p
                fx = mp.fsum(mp.mpc(c) * x**n * mp.expj(mp.mpf(t) * x) for n, t, c in terms)
                ax = mp.fsum(abs(mp.mpc(c)) * x**n for n, _, c in terms)
                diag = mp.mpf(1)
                for d in range(max_d + 1):
                    if d:
                        diag *= -(p - d + 1) * (lam + p - d)
                    values[d] += weight * diag * fx
                    scales[d] += weight * abs(diag) * ax
                # past the peak (terms are unimodal in p) once one is negligible
                if p > 4 * max_d and weight * abs(diag) * ax < mp.mpf("1e-45") * scales[max_d]:
                    break
                weight *= q
                p += 1
    return values, scales


class TestEvalTracePinned:
    def test_cartan_generator(self):
        state = StateSpec.gibbs(1.0, LN2)
        assert eval_trace(state, N(X_VAR)) == pytest.approx(3.0)

    def test_xy_is_minus_three(self):
        state = StateSpec.gibbs(1.0, LN2)
        assert eval_trace(state, X * Y) == pytest.approx(-3.0)

    def test_x2y2_is_fifty_two(self):
        state = StateSpec.gibbs(1.0, LN2)
        assert eval_trace(state, X * X * Y * Y) == pytest.approx(52.0)

    def test_vacuum_reads_f_at_zero(self):
        state = StateSpec.vacuum(1.0)
        f = FunctionExpr.x_power(2) + ONE
        assert eval_trace(state, N(f)) == pytest.approx(1.0)
        assert eval_trace(state, X * Y * N(f)) == 0

    def test_off_weight_vanishes(self):
        state = StateSpec.gibbs(1.0, LN2)
        assert eval_trace(state, X) == 0
        assert eval_trace(state, X * X * Y) == 0

    def test_unit_normalization(self):
        for state in (
            StateSpec.vacuum(1.0),
            StateSpec.gibbs(2.5, 0.7),
            StateSpec.mixture(SpectralMeasure(0.4, ((1.0, 0.3), (4.0, 0.3))), 1.0),
        ):
            assert eval_trace(state, AlgebraElement.one()) == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [1e-3, 1e-6])
    def test_finite_at_small_beta(self, beta):
        state = StateSpec.mixture(SpectralMeasure(0.2, ((0.7, 0.5), (2.3, 0.3))), beta)
        for a in (X * Y, X * X * Y * Y * N(X_VAR), N(FunctionExpr.exponential(0.4))):
            value = eval_trace(state, a)
            assert math.isfinite(value.real) and math.isfinite(value.imag)

    def test_rejects_beta_where_q_rounds_to_one(self):
        with pytest.raises(ValueError, match="above ~1e-16"):
            eval_trace(StateSpec.gibbs(1.0, 1e-17), X * Y)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, LN2, 1.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_against_geometric_oracle(self, lam, beta, m):
        f = FunctionExpr([(1, 0.0, 1.0), (0, 0.4, 0.5)])
        state = StateSpec.gibbs(lam, beta)
        expected = gibbs_monomial_oracle(lam, beta, m, f)
        got = eval_trace(state, AlgebraElement.monomial(m, m, f))
        assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected))

    def test_gibbs_equals_one_atom_mixture(self):
        gibbs = StateSpec.gibbs(1.7, 0.9)
        mixture = StateSpec.mixture(SpectralMeasure(0.0, ((1.7, 1.0),)), 0.9)
        for a in (N(X_VAR), X * Y, X * X * Y * Y * N(X_VAR)):
            assert eval_trace(gibbs, a) == pytest.approx(eval_trace(mixture, a))

    def test_rung_tables_are_read_only_and_shared(self):
        state = StateSpec.mixture(SpectralMeasure(0.2, ((1.3, 0.5), (2.9, 0.3))), 0.8)
        a = X * X * Y * Y * N(FunctionExpr([(1, 0.0, 1.0), (0, 0.6, 2.0 - 1j)])) + X * Y + N(X_VAR)
        states._ladder_poly.cache_clear()
        cold = eval_trace(state, a)
        assert states._ladder_poly.cache_info().currsize > 0
        warm = eval_trace(state, a)
        assert states._ladder_poly.cache_info().hits > 0
        states._ladder_poly.cache_clear()
        assert eval_trace(state, a) == warm == cold
        # one table serves every beta: the key holds no beta and no weights
        other = StateSpec.mixture(SpectralMeasure(0.0, ((1.3, 0.1), (2.9, 0.9))), 2.1)
        misses = states._ladder_poly.cache_info().misses
        eval_trace(other, a)
        assert states._ladder_poly.cache_info().misses == misses
        table = states._ladder_poly((1.3, 2.9), 2, 1)
        assert table.shape == (2, 6)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("lam", [0.3, 1.0, 4.7])
    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_ladder_poly_matches_ladder_diagonal(self, lam, m, n):
        """sum_k b_k C(j, k) = (-1)^m diag_m(p) (lam + 2p)^n on the rungs p = m..m+K."""
        b = states._ladder_poly((lam,), m, n)[0]
        assert b.shape == (2 * m + n + 1,)
        assert np.all(b > 0)
        count = b.size + 3
        ps = np.arange(m, m + count)
        expected = (-1.0) ** m * ladder_diagonal(lam, m + count, m)[m:] * (lam + 2.0 * ps) ** n
        got = [sum(bk * math.comb(j, k) for k, bk in enumerate(b)) for j in range(count)]
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_covariance_under_dynamics(self):
        state = StateSpec.gibbs(1.5, 1.0)
        a = X * Y + 2.0 * X - 1j * Y * Y + N(X_VAR)
        for t in (0.3, 1.7):
            moved = a.automorphism(t)
            assert abs(eval_trace(state, moved) - eval_trace(state, a)) <= 1e-10


def per_rung_trace(state, a, depth=1000):
    """The Gibbs ladder sum over the rungs p < depth, one atom, rung and monomial at a time.

    Returns the value and the sum of the absolute values of its terms
    w_k (1-q) q^p diag_m(p) c x^n e^{itx}.  At beta >= 0.3 and degree <= 6,
    the rungs past 1000 hold far less than 1e-16 of that sum.
    """
    measure = state.measure
    q = math.exp(-state.beta)
    masses = (1.0 - q) * q ** np.arange(depth, dtype=float)
    f0 = cartan_function(a)
    value = measure.m1 * f0(0.0)
    scale = measure.m1 * sum(abs(c) for n, _, c in f0.terms if n == 0)
    for lam, w in measure.atoms:
        for (m, n), f in a.terms:
            if m != n:
                continue
            diag = ladder_diagonal(lam, depth, m)
            for p in range(depth):
                x = lam + 2.0 * p
                weight = w * masses[p] * diag[p]
                value += weight * f(x)
                scale += abs(weight) * sum(abs(c) * x**k for k, _, c in f.terms)
    return value, scale


def random_mixture(rng, beta):
    k = int(rng.integers(1, 4))
    masses = rng.dirichlet(np.ones(k + 1))
    m1 = float(masses[0]) if rng.random() < 0.5 else 0.0
    weights = masses[1:] * (1.0 - m1) / masses[1:].sum()
    atoms = tuple(zip(rng.uniform(0.2, 6.0, k).tolist(), weights.tolist()))
    return StateSpec.mixture(SpectralMeasure(m1, atoms), beta)


class TestEvalTraceContraction:
    """The closed-form contraction of eval_trace against a per-rung sum."""

    def test_matches_per_rung_sum(self):
        checked = 0
        for index in range(80):
            rng = np.random.default_rng([2024, index])
            state = random_mixture(rng, float(rng.uniform(0.3, 2.5)))
            a = weight_zero_part(random_element(rng, 3) * random_element(rng, 3))
            if a.is_zero:
                continue
            expected, scale = per_rung_trace(state, a)
            assert abs(eval_trace(state, a) - expected) <= 1e-14 * scale, index
            checked += 1
        assert checked >= 25

    def test_small_beta_peak_memory(self):
        """At beta 1e-3 the ladder's rungs that matter number in the 10^5s; none is visited.

        Summing 131073 rungs under each atom peaked at 17 MiB on this input.
        """
        f = FunctionExpr([(n, t, complex(1 + n, t)) for n in range(3) for t in (0.0, 0.5, -1.3)])
        a = AlgebraElement([((m, m), f) for m in range(3)])
        state = StateSpec.mixture(SpectralMeasure(0.1, ((0.7, 0.3), (1.9, 0.4), (3.2, 0.2))), 1e-3)
        states._ladder_poly.cache_clear()
        tracemalloc.start()
        try:
            value = eval_trace(state, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(abs(value))
        assert peak < 2**20


def loop_trace(state, a):
    """One element's trace by its own contraction: ``eval_trace`` before traces were batched.

    Returns the value and the sum of the ladder terms' absolute values, the
    same contraction at z = q with |c| and unit phases (every b_k is positive).
    """
    q = math.exp(-state.beta)
    measure = state.measure
    total = 0j
    scale = 0.0
    if measure.m1:
        f0 = cartan_function(a)
        total += measure.m1 * f0(0.0)
        scale += measure.m1 * sum(abs(c) for n, _, c in f0.terms if n == 0)
    rows, cols, entries = {}, {}, []
    for (m, k), f in a.terms:
        if m != k:
            continue
        for n, t, c in f.terms:
            entries.append((rows.setdefault((m, n), len(rows)), cols.setdefault(t, len(cols)), c))
    if not (measure.atoms and entries):
        return total, scale
    lams, weights = zip(*measure.atoms)
    tables = [states._ladder_poly(lams, m, n) for m, n in rows]
    b = np.zeros((len(rows), len(lams), max(table.shape[1] for table in tables)))
    for i, table in enumerate(tables):
        b[i, :, : table.shape[1]] = table
    freqs = np.array(list(cols))
    ms = np.array([m for m, _ in rows])[:, None]
    sides = []
    for z, phase in ((q * np.exp(2j * freqs), np.exp(1j * np.multiply.outer(lams, freqs))),
                     (np.full(len(freqs), q), np.ones((len(lams), len(freqs))))):
        powers = (z / (1.0 - z)) ** np.arange(b.shape[2])[:, None] / (1.0 - z)
        phases = (1.0 - q) * np.array(weights)[:, None] * phase
        sides.append((np.einsum("rak,kt,at->rt", b, powers, phases) * (-z) ** ms).tolist())
    value = total + sum(c * sides[0][i][j] for i, j, c in entries)
    return value, scale + sum(abs(c) * abs(sides[1][i][j]) for i, j, c in entries)


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 2.0), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_trace_rows_match_canonical_product(seed, beta, degree):
    """Unmerged product rows trace to the value of their canonical form.

    The bound is 1e-14 of the rows' absolute sum: sum |c| times each row's
    ladder sum of absolute values (``loop_trace``'s scale of X^m Y^m N[x^n]).
    """
    rng = np.random.default_rng(seed)
    state = random_mixture(rng, beta)
    a, b = random_element(rng, degree), random_element(rng, degree)
    rows = weight_zero_rows(a, b)
    got = trace_rows(state, rows, [len(rows[0])])
    expected = eval_traces(state, [weight_zero_part(a * b)])
    scale = sum(abs(c) * loop_trace(state, X**m * Y**m * N(FunctionExpr.x_power(n)))[1]
                for m, n, _, c in zip(*rows))
    assert got.shape == (1,)
    assert abs(got[0] - expected[0]) <= 1e-14 * scale


TINY_BETA = 1e-15
OVERFLOWING = X**30 * Y**30 * N(FunctionExpr([(4, 0.0, 1.0), (0, 0.3, 1.0)]))


class TestEvalTraces:
    """eval_traces, one contraction for many elements, against a per-element loop."""

    def batch(self, rng):
        products = [
            weight_zero_part(random_element(rng, 4) * random_element(rng, 4)) for _ in range(12)
        ]
        shared = X * Y * N(FunctionExpr([(1, 0.5, 2.0), (0, 0.0, 1.0)]))
        return products + [
            shared, 3j * shared, shared + X**2 * Y**2,  # rows and frequencies shared
            X, X * N(X_VAR) + Y**2,  # no weight-zero terms
            AlgebraElement.one(),  # a Cartan part alone
        ]

    @pytest.mark.parametrize("index", range(12))
    def test_matches_per_element_loop(self, index):
        rng = np.random.default_rng([1606, index])
        state = random_mixture(rng, float(rng.uniform(0.05, 2.5)))
        if index < 4:  # mixtures with a vacuum part
            atoms = state.measure.atoms
            measure = SpectralMeasure(0.25, tuple((lam, 0.75 * w) for lam, w in atoms))
            state = StateSpec.mixture(measure, state.beta)
        elements = self.batch(rng)
        values = eval_traces(state, elements)
        assert values.shape == (len(elements),)
        for a, value in zip(elements, values):
            expected, scale = loop_trace(state, a)
            assert abs(value - expected) <= 1e-15 * scale, (index, a)

    def test_vacuum_and_empty(self):
        elements = [AlgebraElement.one(), X * Y, 2.0 * N(FunctionExpr([(0, 0.0, 1.5), (1, 0.0, 4.0)]))]
        assert eval_traces(StateSpec.vacuum(1.0), elements).tolist() == [1.0, 0.0, 3.0]
        empty = eval_traces(StateSpec.gibbs(1.5, 1.0), [])
        assert empty.shape == (0,) and empty.dtype == complex

    def test_eval_trace_is_one_element(self):
        state = StateSpec.mixture(SpectralMeasure(0.3, ((1.0, 0.4), (2.7, 0.3))), LN2)
        a = X**2 * Y**2 * N(FunctionExpr([(2, 0.4, 1.0 - 1j)]))
        assert eval_trace(state, a) == complex(eval_traces(state, [a])[0])

    def test_overflow_raises_naming_beta_and_term(self):
        state = StateSpec.gibbs(1.5, TINY_BETA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning-only nan
            with pytest.raises(ValueError, match=r"not finite at beta=1e-15.*\(30, 4\)"):
                eval_traces(state, [AlgebraElement.one(), OVERFLOWING])

    def test_short_rows_survive_an_overflowed_power(self):
        """X^12 Y^12 N[e^{0.3ix}] is finite, though u^24 at frequency 0 overflows.

        The one-column element N[1] shares frequency 0; its zero-padded row
        must not meet that power as 0 x inf.
        """
        state = StateSpec.gibbs(1.5, TINY_BETA)
        elements = [AlgebraElement.one(), X**12 * Y**12 * N(FunctionExpr.exponential(0.3))]
        values = eval_traces(state, elements)
        assert np.isfinite(values).all()
        assert values[0] == 1.0
        with np.errstate(over="ignore"):  # the reference's absolute sum overflows
            expected, _ = loop_trace(state, elements[1])
        assert abs(values[1] - expected) <= 1e-14 * abs(values[1])


class TestChiClosedForm:
    def test_normalized_at_zero(self):
        states = [
            StateSpec.vacuum(1.0),
            StateSpec.gibbs(2.0, 0.5),
            StateSpec.mixture(SpectralMeasure(0.5, ((2.0, 0.5),)), 1.0),
        ]
        for state in states:
            assert chi_closed_form(state, 0.0) == pytest.approx(1.0)

    def test_gibbs_at_pi(self):
        for beta in (0.5, LN2, 1.0, 2.0):
            value = chi_closed_form(StateSpec.gibbs(1.0, beta), math.pi)
            assert value == pytest.approx(-1.0)

    def test_mixture_formula(self):
        state = StateSpec.mixture(SpectralMeasure(0.5, ((2.0, 0.5),)), 1.0)
        t = 0.73
        q = math.exp(-1.0)
        expected = 0.5 + 0.5 * np.exp(2j * t) * (1 - q) / (1 - q * np.exp(2j * t))
        assert chi_closed_form(state, t) == pytest.approx(expected)

    def test_matches_trace_of_exponential(self):
        state = StateSpec.gibbs(1.5, 0.8)
        for t in np.linspace(-10, 10, 21):
            traced = eval_trace(state, N(FunctionExpr.exponential(t)))
            assert abs(traced - chi_closed_form(state, float(t))) <= 1e-10

    def test_array_input(self):
        ts = np.linspace(-5, 5, 11)
        vals = chi_closed_form(StateSpec.gibbs(1.0, 1.0), ts)
        assert vals.shape == ts.shape
        assert vals[5] == pytest.approx(1.0)


class TestCartanMeasures:
    def test_moment_of_delta_zero(self):
        measure = CartanMeasure(atoms=(), m0=1.0)
        f = FunctionExpr.x_power(2) + ONE
        assert cartan_moment(measure, f) == pytest.approx(1.0)

    def test_moment_uniform_two_points(self):
        measure = CartanMeasure(atoms=((1.0, 0.5), (3.0, 0.5)))
        assert cartan_moment(measure, X_VAR) == pytest.approx(2.0)

    def test_geometric_ladder_picks_up_parity_phase(self):
        state = StateSpec.gibbs(1.0, LN2)
        measure = cartan_restriction(state)
        value = cartan_moment(measure, FunctionExpr.exponential(math.pi))
        assert value == pytest.approx(-1.0)

    def test_restriction_of_vacuum(self):
        measure = cartan_restriction(StateSpec.vacuum(1.0))
        assert measure.m0 == pytest.approx(1.0)
        assert measure.atoms == ()

    def test_restriction_base_mass(self):
        for beta in (0.5, 1.0, 2.0):
            measure = cartan_restriction(StateSpec.gibbs(0.7, beta))
            assert measure.atoms[0][0] == pytest.approx(0.7)
            assert measure.atoms[0][1] == pytest.approx(1.0 - math.exp(-beta), rel=1e-9)

    def test_restriction_halving_masses(self):
        measure = cartan_restriction(StateSpec.gibbs(1.0, LN2))
        for p in range(6):
            assert measure.atoms[p][0] == pytest.approx(1.0 + 2 * p)
            assert measure.atoms[p][1] == pytest.approx(0.5 ** (p + 1), rel=1e-9)

    def test_restriction_total_mass_is_one(self):
        state = StateSpec.mixture(SpectralMeasure(0.25, ((1.0, 0.5), (2.2, 0.25))), 0.8)
        measure = cartan_restriction(state)
        total = measure.m0 + sum(m for _, m in measure.atoms)
        assert total == pytest.approx(1.0, abs=1e-13)

    # the last two sit on the bound: ceil(ln(4 / (LADDER_TOL (1-q))) / beta) is one
    # rung short at 15.65995..., and one rung long at 1.37441...
    @pytest.mark.parametrize("beta", [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0,
                                      15.659950364078183, 1.3744162424740527])
    def test_depth_is_the_smallest_meeting_the_tail_bound(self, beta):
        """The last rung P is the smallest with 4 q^P <= LADDER_TOL (1-q)."""
        depth = len(cartan_restriction(StateSpec.gibbs(0.7, beta)).atoms) - 1
        q = math.exp(-beta)
        bound = states.LADDER_TOL * (1.0 - q)
        assert 4.0 * q**depth <= bound
        assert 4.0 * q ** (depth - 1) > bound

    @pytest.mark.parametrize("beta", [0.05, 0.5, 2.0, 20.0])
    def test_each_ladder_keeps_its_weight_from_lambda_up(self, beta):
        atoms = ((0.7, 0.45), (1.9, 0.3), (3.35, 0.05))
        measure = cartan_restriction(StateSpec.mixture(SpectralMeasure(0.2, atoms), beta))
        assert measure.m0 == 0.2
        for lam, w in atoms:
            rungs = [(x, m) for x, m in measure.atoms if abs(math.remainder(x - lam, 2.0)) < 1e-9]
            assert min(x for x, _ in rungs) == lam
            assert sum(m for _, m in rungs) == pytest.approx(w, abs=1e-15)

    def test_refuses_beta_past_the_depth_cap(self):
        with pytest.raises(ValueError, match=r"beta=1e-07 is too small"):
            cartan_restriction(StateSpec.gibbs(1.5, 1e-7))

    def test_chained_positions_are_one_point(self):
        """Gaps within POSITION_ATOL chain into one point, though its ends lie 1.2e-9 apart."""
        chain, masses = [1.0, 1.0 + 6e-10, 1.0 + 1.2e-9], [0.25, 0.25, 0.5]
        assert CartanMeasure(atoms=tuple(zip(chain, masses))).atoms == ((1.0, 1.0),)
        positions, merged = merge_positions(np.array(chain[::-1]), np.array(masses[::-1]))
        assert (positions.tolist(), merged.tolist()) == ([1.0], [1.0])

    def test_merge_matches_a_loop_over_sorted_points(self):
        """Clusters of points a few POSITION_ATOL wide, against the gap rule run point by point."""
        rng = np.random.default_rng(27)
        for _ in range(50):
            xs = rng.choice([0.5, 1.5, 3.0], 40) + rng.integers(0, 4, 40) * 0.6 * states.POSITION_ATOL
            ms = rng.uniform(0.0, 1.0, 40)
            merged = []
            for x, m in sorted(zip(xs.tolist(), ms.tolist())):
                if merged and x - merged[-1][2] <= states.POSITION_ATOL:
                    merged[-1][1] += m
                    merged[-1][2] = x
                else:
                    merged.append([x, m, x])
            positions, masses = merge_positions(xs, ms)
            assert positions.tolist() == [x for x, _, _ in merged]
            np.testing.assert_allclose(masses, [m for _, m, _ in merged], rtol=1e-15)

    def test_holds_sorted_read_only_arrays(self):
        measure = CartanMeasure(atoms=((3.0, 0.25), (1.0, 0.25), (3.0, 0.25)), m0=0.25)
        assert measure.positions.tolist() == [1.0, 3.0]
        assert measure.masses.tolist() == [0.25, 0.5]
        assert measure.atoms == ((1.0, 0.25), (3.0, 0.5))
        with pytest.raises(ValueError, match="read-only"):
            measure.masses[0] = 1.0

    def test_rejects_atoms_that_are_not_pairs(self):
        with pytest.raises(ValueError, match="shape"):
            CartanMeasure(atoms=((1.0, 0.25, 0.0), (3.0, 0.75, 0.0)))

    def test_positivity_of_moments(self):
        state = StateSpec.gibbs(1.2, 1.0)
        measure = cartan_restriction(state)
        f = FunctionExpr.x_power(2)  # pointwise nonnegative
        assert cartan_moment(measure, f).real > 0


class TestSpectralMeasureInvariants:
    def test_duplicate_atoms_merge(self):
        m = SpectralMeasure(0.0, ((2.0, 0.5), (2.0, 0.5)))
        assert m.atoms == ((2.0, 1.0),)

    def test_gibbs_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            StateSpec.gibbs(0.0, 1.0)
        with pytest.raises(ValueError):
            StateSpec.gibbs(-1.0, 1.0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            StateSpec.vacuum(0.0)

    def test_rejects_nonpositive_location(self):
        with pytest.raises(ValueError):
            SpectralMeasure(0.0, ((-1.0, 1.0),))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SpectralMeasure(0.0, ((1.0, 0.5),))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            SpectralMeasure(1.5, ((1.0, -0.5),))

    def test_m1_within_tolerance_below_zero_is_stored_as_zero(self):
        measure = SpectralMeasure(-1e-13, ((1.0, 1.0 + 1e-13),))
        assert measure.m1 == 0.0 and math.copysign(1.0, measure.m1) == 1.0
        restriction = cartan_restriction(StateSpec.mixture(measure, 1.0))
        assert restriction.m0 == 0.0


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestRejectsNonFinite:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_spectral_measure(self, bad):
        for m1, atoms in ((bad, ()), (0.5, ((bad, 0.5),)), (0.5, ((2.0, bad),))):
            with pytest.raises(ValueError):
                SpectralMeasure(m1, atoms)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_cartan_measure(self, bad):
        for m0, atoms in ((bad, ()), (0.5, ((bad, 0.5),)), (0.5, ((1.0, bad),))):
            with pytest.raises(ValueError):
                CartanMeasure(atoms=atoms, m0=m0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_state_beta_and_lambda(self, bad):
        with pytest.raises(ValueError):
            StateSpec.vacuum(bad)
        with pytest.raises(ValueError):
            StateSpec.gibbs(1.0, bad)
        with pytest.raises(ValueError):
            StateSpec.gibbs(bad, 1.0)
        with pytest.raises(ValueError):
            state_from_dict({"beta": bad, "kind": "vacuum"})


class TestKmsRecursion:
    def test_xy_pinned(self):
        measure = SpectralMeasure(0.0, ((1.0, 1.0),))
        value = eval_kms_recursion(measure, LN2, X * Y)
        assert abs(value - (-3.0)) <= 1e-8

    def test_covariance_kills_x(self):
        measure = SpectralMeasure(0.3, ((2.0, 0.7),))
        assert eval_kms_recursion(measure, 1.0, X) == 0

    def test_cartan_base_case_is_moment(self):
        measure = SpectralMeasure(0.0, ((1.3, 1.0),))
        f = FunctionExpr([(2, 0.0, 1.0), (0, 0.5, 1j)])
        state = StateSpec.mixture(measure, 0.9)
        expected = cartan_moment(cartan_restriction(state), f)
        got = eval_kms_recursion(measure, 0.9, N(f))
        assert abs(got - expected) <= 1e-10 * (1 + abs(expected))

    def test_x2y2_pinned(self):
        measure = SpectralMeasure(0.0, ((1.0, 1.0),))
        value = eval_kms_recursion(measure, LN2, X * X * Y * Y)
        assert abs(value - 52.0) <= 1e-6

    def test_vacuum_component(self):
        measure = SpectralMeasure(1.0, ())
        vacuum = StateSpec.vacuum(1.2)
        for a in (X * Y, X * X * Y * Y, N(FunctionExpr.x_power(3))):
            lhs = eval_kms_recursion(measure, 1.2, a)
            rhs = eval_trace(vacuum, a)
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_agrees_with_trace_on_mixture(self, beta):
        measure = SpectralMeasure(0.3, ((0.8, 0.4), (3.1, 0.3)))
        state = StateSpec.mixture(measure, beta)
        f = FunctionExpr([(2, 0.0, 1.0), (0, 0.7, 0.5)])
        for m in (1, 2, 3):
            a = AlgebraElement.monomial(m, m, f)
            lhs = eval_kms_recursion(measure, beta, a)
            rhs = eval_trace(state, a)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))

    @pytest.mark.parametrize("beta", [0.05, 0.2, 0.5, 1.0, 2.0])
    def test_matches_50_digit_oracle(self, beta):
        """Both evaluators against the 50-digit ladder sum, relative to its terms' absolute sum.

        The trace is checked at every beta to 1e-14; the recursion at
        beta >= 0.5 to 1e-12.
        """
        terms = [(0, 0.0, 1.0), (1, 0.0, -0.4j), (2, 0.0, 0.7),
                 (0, 0.9, 0.5 + 0.2j), (1, -1.3, 0.3)]
        m1, atoms = 0.2, ((0.8, 0.5), (2.5, 0.3))
        measure = SpectralMeasure(m1, atoms)
        state = StateSpec.mixture(measure, beta)
        values, scales = mp_ladder_sums(m1, atoms, beta, 8, terms)
        for d in range(9):
            a = AlgebraElement.monomial(d, d, FunctionExpr(terms))
            checks = [("trace", eval_trace(state, a), 1e-14)]
            if beta >= 0.5:
                checks.append(("recursion", eval_kms_recursion(measure, beta, a), 1e-12))
            for name, got, bound in checks:
                err = abs(mp.mpc(got) - values[d]) / scales[d]
                assert err <= bound, (name, d, float(err))

    def test_overflow_raises_naming_beta_and_monomial(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not finite at beta=1e-15 on X\^30 Y\^30"):
                eval_kms_recursion(SpectralMeasure(0.0, ((1.5, 1.0),)), TINY_BETA, OVERFLOWING)

    def test_rejects_bad_arguments(self):
        measure = SpectralMeasure(0.0, ((1.0, 1.0),))
        for beta in (-1000.0, 0.0, 1e-17, math.nan):
            with pytest.raises(ValueError):
                eval_kms_recursion(measure, beta, X * Y)


class TestKmsShiftSum:
    @pytest.mark.parametrize("radius", [0.01, 0.3, math.exp(-0.5)])
    def test_neg_polylogs_match_mpmath(self, radius):
        for angle in np.linspace(-math.pi, math.pi, 13):
            z = radius * complex(math.cos(angle), math.sin(angle))
            got = neg_polylogs(z, 20)
            for s, value in enumerate(got):
                exact = mp.polylog(-s, mp.mpc(z))
                # rounding is bounded by the series summed over |z|^j
                assert abs(mp.mpc(value) - exact) <= 1e-14 * mp.polylog(-s, radius), (z, s)

    @given(
        terms=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from([0.0, 0.4, -1.1, math.pi]),
                st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=4,
        ),
        beta=st.floats(0.5, 3.0),
        depth=st.integers(10, 80),
    )
    # a subnormal coefficient: 1e-12 of its scale underflows to 0
    @example(terms=[(0, 0.0, 2.225073858507e-311 + 0j)], beta=3.0, depth=10)
    def test_closed_form_matches_truncated_sum(self, terms, beta, depth):
        f = FunctionExpr(terms)
        q = math.exp(-beta)
        brute = FunctionExpr.zero()
        for j in range(1, depth + 1):
            brute = brute + q**j * f.shift(-2.0 * j)
        closed = kms_shift_sum(f, q)
        max_n = max(n for n, _, _ in terms)

        def envelope(y):
            return sum(abs(c) * y**n for n, _, c in terms)

        for x in (0.0, 0.7, 3.0):
            # beyond j = depth successive terms shrink by at most this ratio
            first = x + 2.0 * (depth + 1)
            ratio = q * (1.0 + 2.0 / first) ** max_n
            tail = q ** (depth + 1) * envelope(first) / (1.0 - ratio)
            scale = sum(q**j * envelope(x + 2.0 * j) for j in range(1, depth + 1))
            # rounding of subnormal results is absolute: a few ulp(0) per summed term
            underflow = 4 * math.ulp(0.0) * depth * len(terms)
            assert abs(closed(x) - brute(x)) <= tail + 1e-12 * scale + underflow


class TestStateSerialization:
    def test_roundtrip_all_kinds(self):
        states = [
            StateSpec.vacuum(1.0),
            StateSpec.gibbs(2.0, 0.5),
            StateSpec.mixture(SpectralMeasure(0.5, ((2.0, 0.5),)), 1.0),
        ]
        for state in states:
            again = state_from_dict(json.loads(json.dumps(state_to_dict(state))))
            assert again == state

    def test_documented_shape(self):
        data = {"beta": 1.0, "kind": "mixture", "m1": 0.5, "atoms": [{"lambda": 2.0, "w": 0.5}]}
        state = state_from_dict(data)
        assert state.measure.m1 == 0.5
        assert state.measure.atoms == ((2.0, 0.5),)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            state_from_dict({"beta": 1.0, "kind": "thermal"})

    def test_rejects_missing_beta(self):
        with pytest.raises(ValueError):
            state_from_dict({"kind": "vacuum"})
