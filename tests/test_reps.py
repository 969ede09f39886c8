import numpy as np
import pytest

from swnkms.algebra import AlgebraElement, N, X, Y
from swnkms.funcspace import ONE, X_VAR, FunctionExpr
from swnkms.reps import (
    build_rep,
    ladder_diagonal,
    relation_residuals,
    represent,
    scalar_product_weights,
)

LAMBDA_GRID = [0.3, 1.0, 1.5, 2.0, 3.7]


class TestBuildRep:
    def test_lambda_one_subdiagonal(self):
        rep = build_rep(1.0, 4)
        assert np.allclose(np.diag(rep.matx, -1), [1.0, 2.0, 3.0])

    def test_cartan_eigenvalues(self):
        rep = build_rep(0.5, 8)
        assert rep.cartan_eigens[3] == pytest.approx(6.5)

    def test_adjointness_exact(self):
        for lam in LAMBDA_GRID:
            rep = build_rep(lam, 32)
            assert np.max(np.abs(rep.matx + rep.maty.conj().T)) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_rep(0.0, 8)
        with pytest.raises(ValueError):
            build_rep(-1.0, 8)
        with pytest.raises(ValueError):
            build_rep(1.0, 1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="positive and finite"):
            build_rep(lam, 8)
        with pytest.raises(ValueError, match="positive and finite"):
            scalar_product_weights(lam, 8)


class TestScalarProductWeights:
    def test_recurrence_lambda_two(self):
        w = scalar_product_weights(2.0, 4)
        assert w[1] / w[0] == pytest.approx(2.0)

    def test_lambda_one_all_unit(self):
        assert np.allclose(scalar_product_weights(1.0, 16), 1.0)

    def test_positive_for_positive_lambda(self):
        for lam in LAMBDA_GRID:
            assert np.all(scalar_product_weights(lam, 64) > 0)


class TestRepresent:
    def test_cartan_diagonal(self):
        rep = build_rep(1.0, 3)
        mat = represent(N(X_VAR), rep)
        assert np.allclose(mat, np.diag([1.0, 3.0, 5.0]))

    def test_xy_diagonal(self):
        rep = build_rep(1.0, 4)
        mat = represent(X * Y, rep)
        assert np.allclose(mat, np.diag([0.0, -1.0, -4.0, -9.0]))

    def test_zero(self):
        rep = build_rep(1.0, 4)
        assert np.all(represent(AlgebraElement.zero(), rep) == 0)

    def test_linear(self):
        rep = build_rep(1.7, 6)
        a = X * Y + 2j * N(X_VAR)
        assert np.allclose(
            represent(a, rep), represent(X * Y, rep) + 2j * represent(N(X_VAR), rep)
        )


class TestLadderDiagonal:
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_dense_representation(self, lam, m):
        dim = 12
        rep = build_rep(lam, dim)
        dense = represent(AlgebraElement.monomial(m, m, ONE), rep)
        band = ladder_diagonal(lam, dim, m)
        # the top m rungs of the dense product are truncation-corrupted
        safe = dim - m
        assert np.allclose(np.diag(dense)[:safe], band[:safe], atol=1e-9)

    def test_off_weight_monomials_have_zero_diagonal(self):
        rep = build_rep(1.3, 10)
        dense = represent(AlgebraElement.monomial(2, 1, ONE), rep)
        assert np.allclose(np.diag(dense), 0.0)


class TestRelationResiduals:
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_grid_residuals_small(self, lam):
        rep = build_rep(lam, 64)
        for f in (X_VAR, FunctionExpr.x_power(2), FunctionExpr.exponential(0.7)):
            report = relation_residuals(rep, f)
            assert report.max_residual <= 1e-10
            assert report.adjointness == 0.0

    def test_edge_rung_breaks_commutator(self):
        rep = build_rep(1.7, 16)
        comm = rep.matx @ rep.maty - rep.maty @ rep.matx
        defect = comm - np.diag(rep.cartan_eigens.astype(complex))
        # included columns are exact, the top rung is O(dim * lambda)
        assert np.linalg.norm(defect[:, : rep.dim - 1]) <= 1e-12
        assert np.linalg.norm(defect[:, rep.dim - 1]) > 1.0


class TestHomomorphismOnSafeSubspace:
    def test_product_action(self):
        rng = np.random.default_rng(11)
        rep = build_rep(1.5, 24)
        for _ in range(10):
            m1, n1 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            m2, n2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            a = AlgebraElement.monomial(m1, n1, FunctionExpr.x_power(1))
            b = AlgebraElement.monomial(m2, n2, ONE)
            lhs = represent(a * b, rep)
            rhs = represent(a, rep) @ represent(b, rep)
            degree = m1 + n1 + m2 + n2
            safe = rep.dim - degree
            # compare action on e_p for p + degree < dim
            assert np.allclose(lhs[:safe, :safe], rhs[:safe, :safe], atol=1e-8)

    def test_star_maps_to_adjoint(self):
        rep = build_rep(2.0, 24)
        a = X * X * Y * N(X_VAR) + 1j * Y
        degree = 4
        safe = rep.dim - degree
        lhs = represent(a.star(), rep)[:safe, :safe]
        rhs = represent(a, rep).conj().T[:safe, :safe]
        assert np.allclose(lhs, rhs, atol=1e-8)
