import cmath
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from swnkms.funcspace import ONE, X_VAR, FunctionExpr


def fexpr(terms):
    return FunctionExpr(terms)


# bounded draws keep binomial cancellation well under the asserted tolerance
coeffs = st.complex_numbers(min_magnitude=0, max_magnitude=2, allow_nan=False, allow_infinity=False)
powers = st.integers(min_value=0, max_value=4)
freqs = st.sampled_from([0.0, 0.5, -1.0, 2.0])
small_reals = st.floats(min_value=-3, max_value=3, allow_nan=False)

function_exprs = st.lists(
    st.tuples(powers, freqs, coeffs), min_size=1, max_size=4
).map(fexpr)


class TestShift:
    def test_shift_x_by_two(self):
        assert X_VAR.shift(2.0) == fexpr([(1, 0.0, 1.0), (0, 0.0, -2.0)])

    def test_shift_square_evaluates(self):
        # (x+2)^2 at x = 1
        assert FunctionExpr.x_power(2).shift(-2.0)(1.0) == pytest.approx(9.0)

    def test_shift_exponential_is_phase(self):
        t, a = 0.7, 1.3
        shifted = FunctionExpr.exponential(t).shift(a)
        expected = FunctionExpr.exponential(t, coeff=cmath.exp(-1j * t * a))
        assert shifted.isclose(expected, 1e-15)

    @given(function_exprs, small_reals, small_reals)
    def test_shift_composes(self, f, a, b):
        lhs = f.shift(a).shift(b)
        rhs = f.shift(a + b)
        assert lhs.isclose(rhs, 1e-10)

    @given(function_exprs, small_reals, small_reals)
    def test_shift_matches_translated_evaluation(self, f, a, x0):
        scale = 1.0 + f.coeff_l1() * (1.0 + abs(a) + abs(x0)) ** 4
        assert abs(f.shift(a)(x0) - f(x0 - a)) <= 1e-12 * scale


class TestProduct:
    def test_x_times_exponential(self):
        assert X_VAR * FunctionExpr.exponential(1.0) == fexpr([(1, 1.0, 1.0)])

    def test_difference_of_squares(self):
        plus = X_VAR + ONE
        minus = X_VAR - ONE
        assert plus * minus == FunctionExpr.x_power(2) - ONE

    def test_frequencies_add(self):
        e = FunctionExpr.exponential(0.5)
        assert e * e == FunctionExpr.exponential(1.0)

    @given(function_exprs, function_exprs)
    def test_commutative(self, f, g):
        assert (f * g).isclose(g * f, 1e-13)

    @given(function_exprs, function_exprs, function_exprs)
    def test_associative(self, f, g, h):
        assert ((f * g) * h).isclose(f * (g * h), 1e-12)


class TestConjugate:
    def test_imaginary_coefficient(self):
        assert (1j * X_VAR).conjugate() == -1j * X_VAR

    def test_exponential_reflects(self):
        assert FunctionExpr.exponential(1.0).conjugate() == FunctionExpr.exponential(-1.0)

    def test_real_function_fixed(self):
        f = FunctionExpr.x_power(2)
        assert f.conjugate() == f

    @given(function_exprs)
    def test_involution(self, f):
        assert f.conjugate().conjugate() == f

    @given(function_exprs, function_exprs)
    def test_multiplicative(self, f, g):
        assert (f * g).conjugate().isclose(f.conjugate() * g.conjugate(), 1e-13)


class TestEvaluate:
    def test_square(self):
        assert FunctionExpr.x_power(2)(3.0) == pytest.approx(9.0)

    def test_euler_identity(self):
        assert FunctionExpr.exponential(math.pi)(1.0) == pytest.approx(-1.0)

    def test_constant_exponential_at_zero(self):
        f = X_VAR + FunctionExpr.exponential(0.0)
        assert f(0.0) == pytest.approx(1.0)

    def test_array_evaluation_matches_scalar(self):
        import numpy as np

        f = fexpr([(2, 0.5, 1 + 2j), (0, -1.0, 0.25)])
        xs = np.linspace(-3, 3, 11)
        vals = f.evaluate_array(xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(f(float(x)))

    @given(function_exprs)
    def test_array_matches_scalar_on_mixed_frequencies(self, f):
        import numpy as np

        xs = np.linspace(-3.0, 3.0, 13)
        for x, v in zip(xs, f.evaluate_array(xs)):
            envelope = sum(abs(c) * max(1.0, abs(x)) ** n for n, _, c in f.terms)
            assert abs(v - f(float(x))) <= 1e-14 * (1.0 + envelope)

    def test_one_exponential_per_nonzero_frequency(self, monkeypatch):
        import numpy as np

        calls = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda z: calls.append(z) or exp(z))
        xs = np.arange(-4.0, 5.0)
        poly = fexpr([(2, 0.0, 1.0), (1, 0.0, -3.0), (0, 0.0, 2.0)])
        # integer points: a frequency-zero polynomial is evaluated exactly
        assert poly.evaluate_array(xs).tolist() == [x * x - 3 * x + 2 for x in xs]
        assert calls == []
        mixed = poly + fexpr([(1, 0.5, 1j), (0, 0.5, 2.0), (3, -1.0, 0.5)])
        vals = mixed.evaluate_array(xs)
        assert len(calls) == 2
        for x, v in zip(xs, vals):
            assert v == pytest.approx(mixed(float(x)))


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        assert fexpr([(1, 0.0, 1.0), (1, 0.0, -1.0)]).is_zero

    def test_small_coefficients_kept(self):
        f = fexpr([(0, 0.0, 1e-15), (2, 0.0, 1.0)])
        assert f.terms == ((0, 0.0, 1e-15 + 0j), (2, 0.0, 1 + 0j))
        # (x + 120)^8: coefficients span 120^8 ~ 4e16 down to 1
        shifted = FunctionExpr.x_power(8).shift(-120)
        assert [(n, c) for n, _, c in shifted.terms] == [
            (k, pytest.approx(math.comb(8, k) * 120.0 ** (8 - k), rel=1e-15)) for k in range(9)
        ]

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            fexpr([(-1, 0.0, 1.0)])

    @given(function_exprs)
    def test_degree_is_largest_power(self, f):
        assert f.degree == max((n for n, _, _ in f.terms), default=-1)

    def test_zero_has_degree_minus_one(self):
        assert FunctionExpr.zero().degree == -1
        assert (X_VAR - X_VAR).degree == -1
        assert fexpr([(3, 0.5, 1.0), (1, 0.0, 2.0)]).degree == 3

    def test_hashable_and_equal(self):
        f = fexpr([(1, 0.5, 2.0)])
        g = fexpr([(1, 0.5, 2.0)])
        assert f == g and hash(f) == hash(g)
