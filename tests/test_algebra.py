import cmath
import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from swnkms import verify
from swnkms.algebra import (
    AlgebraElement,
    _reorder_yx,
    H,
    N,
    X,
    Y,
    commutator,
    from_swn_basis,
    reduce_word,
    term_tuples,
    to_swn_basis,
    weight_zero_product,
    word_of,
)
from swnkms.funcspace import ONE, X_VAR, FunctionExpr
from swnkms.reps import build_rep, represent

NX = N(X_VAR)
F_TEST = FunctionExpr([(1, 0.0, 1.0), (0, 0.7, 2.0)])


def random_element(rng, max_degree=2, max_terms=2):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        m = int(rng.integers(0, max_degree + 1))
        n = int(rng.integers(0, max_degree + 1 - m))
        f = FunctionExpr(
            [
                (
                    int(rng.integers(0, 3)),
                    float(rng.choice([0.0, 0.5, -1.0])),
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                )
            ]
        )
        terms.append(((m, n), f))
    return AlgebraElement(terms)


class TestNormalOrdering:
    def test_yx(self):
        assert Y * X == X * Y - NX

    def test_y_xsquared(self):
        expected = X * X * Y - 2.0 * X * N(X_VAR + ONE)
        assert (Y * (X * X)).isclose(expected, 1e-14)

    def test_nf_x(self):
        assert N(F_TEST) * X == X * N(F_TEST.shift(-2.0))

    def test_x_nf(self):
        assert X * N(F_TEST) == N(F_TEST.shift(2.0)) * X

    def test_scalars_pass_through(self):
        assert 2.0 * X * 3.0 == AlgebraElement.monomial(1, 0, 6.0 * ONE)


class TestInvolution:
    def test_x_star(self):
        assert X.star() == -1.0 * Y

    def test_y_star(self):
        assert Y.star() == -1.0 * X

    def test_xy_self_adjoint(self):
        assert (X * Y).star() == X * Y

    def test_xnf_star(self):
        lhs = (X * N(F_TEST)).star()
        rhs = -1.0 * Y * N(F_TEST.conjugate().shift(2.0))
        assert lhs.isclose(rhs, 1e-14)

    def test_involution_squares_to_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_element(rng)
            assert a.star().star().isclose(a, 1e-12)

    def test_antihomomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = random_element(rng), random_element(rng)
            assert (a * b).star().isclose(b.star() * a.star(), 1e-12)

    def test_one_pass_equals_three_steps(self):
        """``star`` is conjugate, shift, then sign, bit for bit: terms that the
        shift merges meet in the same order (products and (X+Y+H)^k carry many)."""
        rng = np.random.default_rng(5)
        elements = [verify.random_element(rng, degree) for degree in range(7) for _ in range(40)]
        elements += [random_element(rng, 3, 3) * random_element(rng, 3, 3) for _ in range(40)]
        elements += [(X + Y + H) ** k for k in range(1, 6)] + [AlgebraElement.zero()]
        for a in elements:
            three_steps = AlgebraElement([
                ((n, m), f.conjugate().shift(2.0 * (m - n)) * (-1.0) ** (m + n))
                for (m, n), f in a.terms
            ])
            assert repr(term_tuples(a.star())) == repr(term_tuples(three_steps))


class TestAutomorphism:
    def test_x_heats_to_decay(self):
        beta = 0.8
        scaled = X.automorphism(1j * beta)
        assert scaled.isclose(math.exp(-beta) * X, 1e-15)

    def test_weight_one_phase(self):
        t = 0.37
        a = AlgebraElement.monomial(2, 1, F_TEST)
        assert a.automorphism(t).isclose(cmath.exp(1j * t) * a, 1e-15)

    def test_cartan_invariant(self):
        assert N(F_TEST).automorphism(1.23 + 0.5j) == N(F_TEST)

    def test_multiplicative(self):
        rng = np.random.default_rng(5)
        for z in (0.3, 1j * 0.7, 0.2 + 0.4j):
            a, b = random_element(rng), random_element(rng)
            lhs = (a * b).automorphism(z)
            rhs = a.automorphism(z) * b.automorphism(z)
            assert lhs.isclose(rhs, 1e-12)

    def test_group_law(self):
        a = AlgebraElement.monomial(2, 0, ONE)
        assert a.automorphism(0.3).automorphism(0.4).isclose(
            a.automorphism(0.7), 1e-14
        )


class TestCommutator:
    def test_xy(self):
        assert commutator(X, Y) == NX

    def test_cartan_commutes(self):
        g = FunctionExpr([(2, 0.0, 1.0), (0, -0.3, 1j)])
        assert commutator(N(F_TEST), N(g)).is_zero

    def test_antisymmetry(self):
        assert commutator(Y, X) == -1.0 * NX

    def test_xh(self):
        assert commutator(X, H).isclose(-2.0 * X, 1e-14)

    def test_yh(self):
        assert commutator(Y, H).isclose(2.0 * Y, 1e-14)


class TestSwnBasis:
    def test_y_image(self):
        s = to_swn_basis(Y)
        assert s.terms == (((0, 1), ONE * (2.0 ** -0.5)),)

    def test_x_image(self):
        s = to_swn_basis(X)
        ((key, f),) = s.terms
        assert key == (1, 0)
        assert f.isclose(ONE * (-(2.0 ** -0.5)), 1e-15)

    def test_roundtrip(self):
        a = AlgebraElement.monomial(2, 1, F_TEST) + 3j * X
        assert from_swn_basis(to_swn_basis(a)).isclose(a, 1e-14)

    def test_swn_relations(self):
        # [B, B+] = 2 N with B = sqrt(2) Y, B+ = -sqrt(2) X
        b = math.sqrt(2.0) * Y
        bplus = -math.sqrt(2.0) * X
        assert commutator(b, bplus).isclose(2.0 * NX, 1e-14)
        assert commutator(b, NX).isclose(2.0 * b, 1e-14)


class TestRewriteEngine:
    def test_word_reduction_matches_product(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m1, n1 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            m2, n2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            a = AlgebraElement.monomial(m1, n1, F_TEST)
            b = AlgebraElement.monomial(m2, n2, ONE)
            word = word_of(m1, n1, F_TEST) + word_of(m2, n2, ONE)
            assert reduce_word(word).isclose(a * b, 1e-12)

    def test_confluence_under_random_orders(self):
        word = word_of(0, 2, X_VAR) + word_of(2, 1, F_TEST) + word_of(1, 0, ONE)
        reference = reduce_word(word)
        for seed in range(12):
            rnd = random.Random(seed)
            result = reduce_word(word, pick=lambda k: rnd.randrange(k))
            assert result.isclose(reference, 1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b, c = (random_element(rng) for _ in range(3))
            assert ((a * b) * c).isclose(a * (b * c), 1e-12)

    def test_distributes(self):
        rng = np.random.default_rng(8)
        a, b, c = (random_element(rng) for _ in range(3))
        assert (a * (b + c)).isclose(a * b + a * c, 1e-12)


class TestReorderClosedForm:
    """``_reorder_yx`` gives the canonical form of Y^n X^m without rewriting."""

    @pytest.mark.parametrize("n", range(6))
    def test_equals_rewrite_engine(self, n):
        for m in range(6):
            word = (("Y",),) * n + (("X",),) * m
            assert _reorder_yx(n, m) == reduce_word(word), (n, m)

    def test_high_degree_matches_module(self):
        rep = build_rep(1.3, 24)
        lhs = represent(_reorder_yx(8, 8), rep)
        rhs = np.linalg.matrix_power(rep.maty, 8) @ np.linalg.matrix_power(rep.matx, 8)
        safe = rep.dim - 8  # X^8 e_p leaves the module for p >= dim - 8
        diff = np.max(np.abs(lhs[:safe, :safe] - rhs[:safe, :safe]))
        assert diff <= 1e-12 * np.max(np.abs(rhs[:safe, :safe]))


grading_keys = st.tuples(st.integers(0, 3), st.integers(0, 3))


class TestGrading:
    @given(grading_keys, st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=40)
    def test_weight_scaling(self, key, t):
        m, n = key
        a = AlgebraElement.monomial(m, n, ONE)
        expected = cmath.exp(1j * t * (m - n)) * a
        assert a.automorphism(t).isclose(expected, 1e-12)

    def test_weights_listing(self):
        a = X * Y + X + N(F_TEST) - Y * Y
        assert a.weights == (-2, 0, 1)


class TestWeightZeroProduct:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_is_weight_zero_part_of_product(self, seed, degree):
        rng = np.random.default_rng(seed)
        a = verify.random_element(rng, degree)
        b = verify.random_element(rng, degree)
        got = weight_zero_product(a, b)
        assert all(m == n for (m, n), _ in got.terms)
        full = a * b
        expected = AlgebraElement([(key, f) for key, f in full.terms if key[0] == key[1]])
        assert got.isclose(expected, 1e-12)

    def test_keeps_only_cancelling_pairs(self):
        assert weight_zero_product(X * X, X + N(F_TEST)).is_zero
        assert weight_zero_product(X, Y + X) == (X * Y)
