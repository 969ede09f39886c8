import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import hankel, pinv, svd
from scipy.optimize import lsq_linear

from swnkms import recovery
from swnkms.recovery import IllPosed, NotExtendable, chi_fit, ladder_peel
from swnkms.states import (
    CartanMeasure,
    SpectralMeasure,
    StateSpec,
    cartan_restriction,
    chi_closed_form,
)
from swnkms.verify import support_positivity_check


def random_measure(rng, max_atoms=5, with_vacuum=False):
    count = int(rng.integers(1, max_atoms + 1))
    while True:
        lams = np.sort(rng.uniform(0.2, 10.0, count))
        if count == 1 and np.min(lams % 2.0) > 1e-3:
            break
        if count > 1 and np.min(np.diff(lams)) > 0.35 and np.min(lams % 2.0) > 1e-3:
            if np.min(np.diff(np.sort(lams % 2.0))) > 0.05:
                break
    m1 = float(rng.choice([0.0, 0.3])) if with_vacuum else 0.0
    ws = rng.uniform(0.2, 1.0, count)
    ws = ws / ws.sum() * (1.0 - m1)
    return SpectralMeasure(m1, tuple(zip(lams.tolist(), ws.tolist())))


def measure_error(a: SpectralMeasure, b: SpectralMeasure) -> float:
    if len(a.atoms) != len(b.atoms):
        return math.inf
    err = abs(a.m1 - b.m1)
    for (la, wa), (lb, wb) in zip(a.atoms, b.atoms):
        err = max(err, abs(la - lb), abs(wa - wb))
    return err


def gaussian_samples():
    ts = np.linspace(-10, 10, 101)
    return [(float(t), complex(math.exp(-t * t))) for t in ts]


class TestLadderPeel:
    def test_gibbs_roundtrip(self):
        state = StateSpec.gibbs(1.5, 1.0)
        result = ladder_peel(cartan_restriction(state), 1.0)
        assert result.method == "ladder-peel"
        assert result.measure.m1 == 0.0
        assert measure_error(result.measure, state.measure) <= 1e-10
        assert result.residual <= 1e-10

    def test_delta_zero_is_vacuum(self):
        result = ladder_peel(CartanMeasure(atoms=(), m0=1.0), 1.0)
        assert result.measure.m1 == 1.0
        assert result.measure.atoms == ()
        assert result.residual == 0.0

    @pytest.mark.parametrize(
        "measure",
        [
            SpectralMeasure(0.0, ((1.0, 0.5), (3.0, 0.5))),
            SpectralMeasure(0.0, ((1.0, 0.2), (3.0, 0.5), (5.0, 0.3))),
            SpectralMeasure(0.25, ((1.0, 0.5), (3.0, 0.25))),
        ],
        ids=["1-3", "1-3-5", "vacuum-1-3"],
    )
    def test_overlapping_ladders(self, measure):
        state = StateSpec.mixture(measure, 1.0)
        result = ladder_peel(cartan_restriction(state), 1.0)
        assert measure_error(result.measure, measure) <= 1e-10
        assert result.residual <= 1e-10

    @pytest.mark.parametrize("rungs, extendable", [(40, True), (5, False)])
    def test_truncated_ladder(self, rungs, extendable):
        # a Gibbs(1.5) ladder cut short and renormalized: 40 rungs leave a tail
        # of q^40 ~ 4e-18, 5 rungs a missing tail far above tol
        q = math.exp(-1.0)
        masses = (1.0 - q) * q ** np.arange(rungs)
        masses /= masses.sum()
        cartan = CartanMeasure(atoms=tuple(zip(1.5 + 2.0 * np.arange(rungs), masses)))
        if extendable:
            result = ladder_peel(cartan, 1.0)
            assert measure_error(result.measure, SpectralMeasure(0.0, ((1.5, 1.0),))) <= 1e-12
        else:
            with pytest.raises(NotExtendable, match="negative residual mass"):
                ladder_peel(cartan, 1.0)

    def test_small_beta_rejects_in_little_memory(self):
        # the inverse looks one rung ahead; it never lays out the ~2e5-rung ladder
        tracemalloc.start()
        try:
            with pytest.raises(NotExtendable):
                ladder_peel(CartanMeasure(atoms=((1.0, 1.0),)), 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_perturbed_mass_not_extendable(self):
        state = StateSpec.gibbs(1.5, 1.0)
        atoms = list(cartan_restriction(state).atoms)
        atoms[1] = (atoms[1][0], atoms[1][1] - 0.05)
        atoms.append((99.5, 0.05))  # keep it a probability measure
        with pytest.raises(NotExtendable):
            ladder_peel(CartanMeasure(atoms=tuple(atoms), m0=0.0), 1.0)

    def test_negative_position_not_extendable(self):
        measure = CartanMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))
        with pytest.raises(NotExtendable):
            ladder_peel(measure, 1.0)

    def test_isolated_atom_not_extendable(self):
        # a bare delta at 1 has no geometric tail to support it
        measure = CartanMeasure(atoms=((1.0, 1.0),))
        with pytest.raises(NotExtendable):
            ladder_peel(measure, 1.0)

    def test_rejects_bad_arguments(self):
        measure = CartanMeasure(atoms=((1.0, 1.0),))
        with pytest.raises(ValueError):
            ladder_peel(measure, -1.0)
        with pytest.raises(ValueError):
            ladder_peel(measure, 1.0, tol=0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError):
            ladder_peel(cartan_restriction(StateSpec.gibbs(1.5, 1.0)), beta)

    def test_rejects_beta_whose_ratio_rounds_to_one(self):
        # e^{-1e-17} is 1.0 in floats: the peel used to divide by 1 - q = 0
        with pytest.raises(ValueError, match="beta must be positive and above ~1e-16"):
            ladder_peel(cartan_restriction(StateSpec.gibbs(1.5, 1.0)), 1e-17)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        # tol nan used to slip past the guard and divide by a zero total mass
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ladder_peel(cartan_restriction(StateSpec.gibbs(1.5, 1.0)), 1.0, tol=tol)

    def test_roundtrips_to_rounding(self):
        """200 states of 1-3 atoms: the restriction's cut and the peel lose only rounding."""
        rng = np.random.default_rng(2024)
        for _ in range(200):
            measure = random_measure(rng, max_atoms=3, with_vacuum=True)
            beta = float(rng.uniform(0.5, 2.0))
            result = ladder_peel(cartan_restriction(StateSpec.mixture(measure, beta)), beta)
            assert measure_error(result.measure, measure) <= 1e-14, (measure, beta)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_randomized_roundtrips(self, beta):
        rng = np.random.default_rng(101)
        for _ in range(8):
            measure = random_measure(rng, with_vacuum=True)
            state = StateSpec.mixture(measure, beta)
            result = ladder_peel(cartan_restriction(state), beta)
            assert measure_error(result.measure, measure) <= 1e-8
            assert support_positivity_check(
                cartan_restriction(StateSpec.mixture(result.measure, beta))
            ).passed


class TestChiFit:
    def test_gibbs_roundtrip(self):
        state = StateSpec.gibbs(2.0, 1.0)
        ts = np.linspace(-10, 10, 101)
        samples = list(zip(ts, chi_closed_form(state, ts)))
        result = chi_fit(samples, 1.0, max_atoms=5)
        assert result.method == "chi-fit"
        assert measure_error(result.measure, state.measure) <= 1e-6
        assert result.residual <= 1e-8

    def test_constant_chi_is_vacuum(self):
        ts = np.linspace(-10, 10, 101)
        samples = [(float(t), 1.0 + 0j) for t in ts]
        result = chi_fit(samples, 1.0, max_atoms=5)
        assert result.measure.m1 == pytest.approx(1.0)
        assert result.measure.atoms == ()
        assert result.residual <= 1e-12

    def test_gaussian_not_extendable(self):
        ts = np.linspace(-10, 10, 101)
        samples = [(float(t), complex(math.exp(-t * t))) for t in ts]
        with pytest.raises(NotExtendable):
            chi_fit(samples, 1.0, max_atoms=5)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        ts = np.linspace(-10.0, 10.0, 101)
        samples = list(zip(ts, chi_closed_form(StateSpec.gibbs(1.5, 1.0), ts)))
        with pytest.raises(ValueError):
            chi_fit(samples, beta, max_atoms=2)

    def test_too_few_samples_rejected(self):
        ts = np.linspace(-1, 1, 5)
        samples = [(float(t), 1.0 + 0j) for t in ts]
        with pytest.raises(ValueError):
            chi_fit(samples, 1.0, max_atoms=5)

    def test_coincident_recovered_atoms_ill_posed(self):
        measure = SpectralMeasure(0.0, ((2.0, 0.5), (2.5, 0.5)))
        state = StateSpec.mixture(measure, 1.0)
        ts = np.linspace(-10, 10, 201)
        samples = list(zip(ts, chi_closed_form(state, ts)))
        with pytest.raises(IllPosed):
            chi_fit(samples, 1.0, max_atoms=5, separation=1.0)

    def test_unresolvably_close_atoms_merge(self):
        # below the Fourier resolution the merged atom is the right answer
        measure = SpectralMeasure(0.0, ((2.0, 0.5), (2.0 + 5e-7, 0.5)))
        state = StateSpec.mixture(measure, 1.0)
        ts = np.linspace(-10, 10, 201)
        samples = list(zip(ts, chi_closed_form(state, ts)))
        result = chi_fit(samples, 1.0, max_atoms=5)
        assert len(result.measure.atoms) == 1
        assert result.measure.atoms[0][0] == pytest.approx(2.0, abs=1e-5)
        assert result.measure.atoms[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_nonuniform_grid_falls_back(self):
        state = StateSpec.gibbs(1.5, 1.0)
        rng = np.random.default_rng(3)
        ts = np.sort(rng.uniform(-10, 10, 120))
        samples = list(zip(ts, chi_closed_form(state, ts)))
        result = chi_fit(samples, 1.0, max_atoms=2, tol=1e-5)
        assert measure_error(result.measure, state.measure) <= 1e-5

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_randomized_roundtrips(self, beta):
        rng = np.random.default_rng(202)
        ts = np.linspace(-10, 10, 201)
        for _ in range(4):
            measure = random_measure(rng, with_vacuum=True)
            state = StateSpec.mixture(measure, beta)
            samples = list(zip(ts, chi_closed_form(state, ts)))
            result = chi_fit(samples, beta, max_atoms=5)
            assert measure_error(result.measure, measure) <= 1e-6


class TestChiFitInputs:
    """Bad arguments and non-finite samples raise ValueError before any solver runs."""

    @pytest.fixture
    def no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran on invalid input")

        for name in ("_polish", "lsq_linear", "_hankel_svd", "_pencil_nodes"):
            monkeypatch.setattr(recovery, name, refuse)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_rejects_bad_tol(self, no_solver, tol):
        # at tol nan or inf a Gaussian used to be accepted with an invented atom
        with pytest.raises(ValueError, match="tol must be positive and finite") as info:
            chi_fit(gaussian_samples(), 1.0, max_atoms=2, tol=tol)
        assert info.type is ValueError

    def test_rejects_beta_whose_ratio_rounds_to_one(self, no_solver):
        # at beta 1e-17, g(t) = (1-q)/(1-q e^{2it}) is 0/0 at t = 0
        with pytest.raises(ValueError, match="beta must be positive and above ~1e-16"):
            chi_fit(gaussian_samples(), 1e-17, max_atoms=2)

    def test_duplicate_times_count_once(self, no_solver):
        # 11 copies of chi(0) = 1 used to be fitted with two invented atoms
        with pytest.raises(ValueError, match="at least 5 distinct sample times .* got 1"):
            chi_fit([(0.0, 1.0 + 0j)] * 11, 1.0, max_atoms=2)

    def test_rejects_negative_max_atoms(self, no_solver):
        # no samples and max_atoms -1 used to return the vacuum with a NaN residual
        with pytest.raises(ValueError, match="max_atoms"):
            chi_fit([], 1.0, max_atoms=-1)

    @pytest.mark.parametrize("index, sample", [
        (0, (math.nan, 1.0 + 0j)),
        (50, (0.0, complex(math.nan, 0.0))),
        (50, (0.0, complex(0.0, math.inf))),
        (100, (math.inf, 1.0 + 0j)),
    ])
    def test_rejects_non_finite_samples(self, no_solver, index, sample):
        samples = gaussian_samples()
        samples[index] = sample
        with pytest.raises(ValueError, match="samples must be finite"):
            chi_fit(samples, 1.0, max_atoms=2)


def mixture_samples(noise=0.0, seed=0):
    """chi of m1 0.2 with atoms at 1.3 and 3.7 at beta 1 on the usual grid, plus noise."""
    ts = np.linspace(-10, 10, 101)
    measure = SpectralMeasure(0.2, ((1.3, 0.3), (3.7, 0.5)))
    chis = chi_closed_form(StateSpec.mixture(measure, 1.0), ts)
    rng = np.random.default_rng(seed)
    return ts, chis + noise * (rng.standard_normal(ts.size) + 1j * rng.standard_normal(ts.size))


class TestWeightSolve:
    """The weight solve agrees with scipy's BVLS bit for bit; BVLS runs only off the box."""

    @pytest.fixture
    def bvls_calls(self, monkeypatch):
        calls = []
        port = recovery.lsq_linear

        def counted(*args, **kwargs):
            calls.append(1)
            return port(*args, **kwargs)

        monkeypatch.setattr(recovery, "lsq_linear", counted)
        return calls

    @staticmethod
    def bvls(ts, chis, lams):
        geom = recovery._geometric_factor(ts, math.exp(-1.0))
        params, _, a_aug, _ = recovery._solve_weights(ts, chis, geom, np.array(lams))
        b_aug = np.concatenate([chis.real, chis.imag, [recovery.MASS_ROW_WEIGHT]])
        return params, lsq_linear(a_aug, b_aug, bounds=(0.0, 1.0), method="bvls").x

    @pytest.mark.parametrize("lams", [[1.2], [1.4, 3.5], [0.9, 1.6, 3.9], [0.5, 1.2, 3.3, 6.1]])
    def test_interior_weights_match_bvls_bit_for_bit(self, bvls_calls, lams):
        ts, chis = mixture_samples(noise=1e-2)
        params, reference = self.bvls(ts, chis, lams)
        assert np.all((params > 0.0) & (params < 1.0))
        assert bvls_calls == []
        assert np.array_equal(params, reference)

    def test_weights_off_the_box_fall_back_to_bvls(self, bvls_calls):
        # data with a negative atom at 5: least squares puts a weight below 0 there
        ts, chis = mixture_samples()
        chis = chis - 0.05 * recovery._geometric_factor(ts, math.exp(-1.0)) * np.exp(5j * ts)
        params, reference = self.bvls(ts, chis, [1.3, 3.7, 5.0])
        assert len(bvls_calls) == 1
        assert params[-1] == 0.0
        assert np.array_equal(params, reference)

    def test_weight_above_one_is_held_at_one(self, bvls_calls):
        # m1 -0.3 and one atom of weight 1.3: least squares puts m1 below 0 and w above 1
        ts = np.linspace(-10, 10, 101)
        chis = -0.3 + 1.3 * recovery._geometric_factor(ts, math.exp(-1.0)) * np.exp(1.3j * ts)
        params, reference = self.bvls(ts, chis, [1.3])
        assert len(bvls_calls) == 1
        assert params[0] == 0.0 and params[1] == 1.0
        assert np.array_equal(params, reference)

    def test_several_bounds_active(self, bvls_calls):
        # negative atoms at 5, 6 and 7: least squares puts all three weights below 0
        ts, chis = mixture_samples()
        geom = recovery._geometric_factor(ts, math.exp(-1.0))
        for lam, w in ((5.0, 0.05), (6.0, 0.08), (7.0, 0.04)):
            chis = chis - w * geom * np.exp(1j * lam * ts)
        params, reference = self.bvls(ts, chis, [1.3, 3.7, 5.0, 6.0, 7.0])
        assert len(bvls_calls) == 1
        assert np.array_equal(params[3:], np.zeros(3))
        assert np.array_equal(params, reference)

    def test_rank_deficient_design(self, bvls_calls):
        # two coincident atoms make two equal columns; the negative atom at 5 forces BVLS
        ts, chis = mixture_samples()
        chis = chis - 0.05 * recovery._geometric_factor(ts, math.exp(-1.0)) * np.exp(5j * ts)
        params, reference = self.bvls(ts, chis, [1.3, 1.3, 3.7, 5.0])
        assert len(bvls_calls) == 1
        assert np.array_equal(params, reference)

    def test_step_that_does_not_move_stays_finite(self):
        # The first main step lands the second weight at -9e-17, past its bound,
        # and binds it there; the next frees it again, and its re-solved value
        # equals its current one.  scipy divides by that zero step and returns
        # [nan, 1, nan].
        a = np.array([[-0.61, -1.38, 1.34], [0.37, 0.81, 0.47], [-0.71, 0.21, -0.99],
                      [1e8, 1e8, 1e8]])
        b = np.array([0.95, 2.4, 5.17, 1e8])
        x0 = np.linalg.lstsq(a, b, rcond=None)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = recovery.lsq_linear(a, b, x0)
        assert np.all((x >= 0.0) & (x <= 1.0))
        cost = lambda v: np.sum((a @ v - b) ** 2)  # noqa: E731
        assert cost(x) <= cost(np.clip(x0, 0.0, 1.0))

    @np.errstate(divide="ignore", invalid="ignore")
    def test_random_box_problems_match_scipy(self):
        # Up to 6 columns, some with two equal columns, half with a heavy row
        # like the mass row.  None of these draws is a design on which scipy
        # returns NaN (see test_step_that_does_not_move_stays_finite).
        rng = np.random.default_rng(19)
        off_the_box = 0
        for _ in range(400):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((int(rng.integers(n + 1, 30)), n)) * rng.uniform(0.1, 3.0)
            if n > 1 and rng.random() < 0.2:
                a[:, 1] = a[:, 0]
            b = rng.standard_normal(a.shape[0]) * rng.uniform(0.1, 5.0)
            if rng.random() < 0.5:
                a = np.vstack([a, np.full((1, n), recovery.MASS_ROW_WEIGHT)])
                b = np.append(b, recovery.MASS_ROW_WEIGHT)
            x0 = np.linalg.lstsq(a, b, rcond=-1)[0]
            if np.all((x0 >= 0.0) & (x0 <= 1.0)):
                continue
            off_the_box += 1
            reference = lsq_linear(a, b, bounds=(0.0, 1.0), method="bvls").x
            assert np.array_equal(recovery.lsq_linear(a, b, x0), reference)
        assert off_the_box >= 250


@pytest.mark.parametrize("length", [21, 50, 101])
def test_pencil_nodes_match_scipy_bit_for_bit(length):
    # scipy's Hankel, SVD and pseudo-inverse are the reference the numpy pencil replaces
    rng = np.random.default_rng(length)
    ts = np.linspace(-10.0, 10.0, length)
    p = length // 2
    for _ in range(40):
        count = int(rng.integers(1, 6))
        values = sum(rng.uniform(-1, 1) * np.exp(1j * rng.uniform(0, 6) * ts) for _ in range(count))
        values = values + rng.choice([0.0, 1e-8, 1e-3]) * rng.standard_normal(length)
        max_nodes = int(rng.integers(1, 7))
        _, s, vh = svd(hankel(values[: length - p], values[length - p - 1 :]))
        rank = max(1, min(int(np.sum(s > recovery.PENCIL_RANK_CUT * s[0])), max_nodes, p))
        z = np.linalg.eigvals(pinv(vh[:rank, :-1].T) @ vh[:rank, 1:].T)
        reference = np.sort(np.angle(z) / (ts[1] - ts[0]))
        s, vh = recovery._hankel_svd(values)
        assert np.array_equal(recovery._pencil_nodes(s, vh, ts[1] - ts[0], max_nodes), reference)


class TestProjectionJacobian:
    """The polish's analytic Jacobian against central differences of the residual."""

    @staticmethod
    def jacobians(ts, chis, lams, step=1e-4):
        """(analytic, central-difference, Richardson-extrapolated) Jacobians and the weights."""
        geom = recovery._geometric_factor(ts, math.exp(-1.0))
        lams = np.array(lams, dtype=float)

        def residual(x):
            return recovery._solve_weights(ts, chis, geom, x)[3][:-1]

        def central(h):
            return np.column_stack([
                (residual(lams + h * e) - residual(lams - h * e)) / (2 * h)
                for e in np.eye(lams.size)
            ])

        params, _, a_aug, resid = recovery._solve_weights(ts, chis, geom, lams)
        analytic = recovery._projection_derivatives(ts, a_aug, params, resid)[0]
        return analytic, central(step), 2 * central(step / 2) - central(step), params

    @staticmethod
    def relative(jac, reference):
        return np.abs(jac - reference).max() / np.abs(reference).max()

    @pytest.mark.parametrize("lams", [[1.2], [1.4, 3.5], [0.9, 1.6, 3.9], [0.5, 1.2, 3.3, 6.1]])
    @pytest.mark.parametrize("data", ["noisy", "gaussian"])
    def test_interior_points(self, lams, data):
        ts, chis = mixture_samples(noise=1e-2)
        if data == "gaussian":
            chis = np.exp(-ts * ts).astype(complex)
        analytic, central, _, params = self.jacobians(ts, chis, lams)
        assert np.all((params > 0.0) & (params < 1.0))
        assert self.relative(analytic, central) <= 1e-6

    def test_weight_held_at_bound(self):
        ts, chis = mixture_samples()
        chis = chis - 0.05 * recovery._geometric_factor(ts, math.exp(-1.0)) * np.exp(5j * ts)
        analytic, central, _, params = self.jacobians(ts, chis, [1.3, 3.7, 5.0])
        assert params[-1] == 0.0 and np.all(params[:-1] > 0.0)
        assert np.all(analytic[:, -1] == 0.0)
        assert self.relative(analytic, central) <= 1e-6

    @pytest.mark.parametrize("lams", [[1.3, 1.3], [1.3, 1.3, 3.7], [0.8, 2.5, 2.5]])
    def test_coincident_nodes(self, lams):
        # a rank-deficient design; moving one of two equal nodes is a one-sided
        # change, so the O(h) error of plain central differences is extrapolated out
        ts, chis = mixture_samples(noise=1e-2)
        analytic, _, extrapolated, params = self.jacobians(ts, chis, lams)
        assert np.all(np.isfinite(analytic))
        pair = 1 + next(k for k in range(len(lams) - 1) if lams[k] == lams[k + 1])
        assert params[pair] == pytest.approx(params[pair + 1], rel=1e-12)  # an even split
        assert self.relative(analytic, extrapolated) <= 1e-6


class TestProjectionHessian:
    """The polish's exact Hessian against central differences of its gradient J^T r."""

    @staticmethod
    def hessians(ts, chis, lams, step=1e-4):
        """(analytic, central-difference) Hessians and the weights.

        At step 1e-5 the differences carry the weight solve's own rounding
        (about 1e-11 of the gradient, from MASS_ROW_WEIGHT) divided by the
        step, up to 3e-6 relative; at 1e-4 their truncation error is below 4e-7.
        """
        geom = recovery._geometric_factor(ts, math.exp(-1.0))
        lams = np.array(lams, dtype=float)

        def derivatives(x):
            params, _, a_aug, resid = recovery._solve_weights(ts, chis, geom, x)
            jac, hess = recovery._projection_derivatives(ts, a_aug, params, resid)
            return jac.T @ resid[:-1], hess, params

        central = np.column_stack([
            (derivatives(lams + step * e)[0] - derivatives(lams - step * e)[0]) / (2 * step)
            for e in np.eye(lams.size)
        ])
        _, hess, params = derivatives(lams)
        return hess, central, params

    @pytest.mark.parametrize("lams", [[1.2], [1.4, 3.5], [0.9, 1.6, 3.9], [0.5, 1.2, 3.3, 6.1]])
    @pytest.mark.parametrize("data", ["noisy", "gaussian", "expabs"])
    def test_interior_points(self, lams, data):
        ts, chis = mixture_samples(noise=1e-2)
        if data == "gaussian":
            chis = np.exp(-ts * ts).astype(complex)
        elif data == "expabs":
            chis = np.exp(-np.abs(ts)).astype(complex)
        hess, central, params = self.hessians(ts, chis, lams)
        assert np.all((params > 0.0) & (params < 1.0))
        assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()
        assert TestProjectionJacobian.relative(hess, central) <= 1e-6

    def test_weight_held_at_bound(self):
        ts, chis = mixture_samples()
        chis = chis - 0.05 * recovery._geometric_factor(ts, math.exp(-1.0)) * np.exp(5j * ts)
        hess, central, params = self.hessians(ts, chis, [1.3, 3.7, 5.0])
        assert params[-1] == 0.0 and np.all(params[:-1] > 0.0)
        assert np.all(hess[-1] == 0.0) and np.all(hess[:, -1] == 0.0)
        assert TestProjectionJacobian.relative(hess, central) <= 1e-6


class TestChiFitPipeline:
    @pytest.fixture
    def polishes(self, monkeypatch):
        """The atom count of each polish, in call order."""
        calls = []
        polish = recovery._polish

        def counted(ts, chis, geom, lams0):
            calls.append(len(lams0))
            return polish(ts, chis, geom, lams0)

        monkeypatch.setattr(recovery, "_polish", counted)
        return calls

    @staticmethod
    def nonuniform_gaussian_samples():
        # on a uniform grid the pencil's singular values reject a Gaussian
        # before any polish; on this grid the periodogram seeds 6 atoms and the
        # 5 kept are polished again
        ts = np.sort(np.random.default_rng(5).uniform(-10, 10, 101))
        return [(float(t), complex(math.exp(-t * t))) for t in ts]

    def test_gaussian_rejection_polishes_at_most_twice(self, polishes):
        with pytest.raises(NotExtendable, match="best chi-fit residual"):
            chi_fit(self.nonuniform_gaussian_samples(), 1.0, max_atoms=5)
        assert len(polishes) <= 2

    def test_gaussian_rejection_solve_count(self, monkeypatch):
        # the Newton polish takes 20 weight solves for this rejection, and the
        # bound leaves 3 to spare
        calls = []
        solve = recovery._solve_weights

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(recovery, "_solve_weights", counted)
        with pytest.raises(NotExtendable, match="best chi-fit residual"):
            chi_fit(self.nonuniform_gaussian_samples(), 1.0, max_atoms=5)
        assert len(calls) <= 23

    @pytest.mark.parametrize("grid", ["jittered", "nonuniform"])
    def test_inexact_grid_takes_the_polish_path(self, polishes, grid):
        # 1e-12 of jitter passes as uniform for the pencil, but the fit's samples
        # are then not geometric to rounding, so the singular values prove nothing
        rng = np.random.default_rng(11)
        if grid == "jittered":
            ts = np.linspace(-10, 10, 101) + 1e-12 * rng.standard_normal(101)
            assert recovery._is_uniform(ts)
        else:
            ts = np.sort(rng.uniform(-10, 10, 101))
        samples = [(float(t), complex(math.exp(-t * t))) for t in ts]
        with pytest.raises(NotExtendable, match="best chi-fit residual"):
            chi_fit(samples, 1.0, max_atoms=2)
        assert len(polishes) >= 1

    def test_uniform_accept_polishes_at_most_twice(self, polishes):
        state = StateSpec.gibbs(2.0, 1.0)
        ts = np.linspace(-10, 10, 101)
        result = chi_fit(list(zip(ts, chi_closed_form(state, ts))), 1.0, max_atoms=5)
        assert measure_error(result.measure, state.measure) <= 1e-6
        assert len(polishes) <= 2

    def test_nonuniform_accept_polishes_at_most_twice(self, polishes):
        state = StateSpec.gibbs(1.5, 1.0)
        ts = np.sort(np.random.default_rng(3).uniform(-10, 10, 120))
        result = chi_fit(list(zip(ts, chi_closed_form(state, ts))), 1.0, max_atoms=2, tol=1e-5)
        assert measure_error(result.measure, state.measure) <= 1e-5
        assert len(polishes) <= 2

    def test_noisy_trimmed_fit_is_repolished(self, polishes):
        # the 3-atom polish leaves a spare atom of nonzero weight; the 2 atoms
        # kept are polished again, so they end at a stationary point of the fit
        ts, chis = mixture_samples(noise=1e-4, seed=6)
        result = chi_fit(list(zip(ts, chis)), 1.0, max_atoms=2, tol=1e-3)
        assert polishes == [3, 2]
        assert result.residual <= 1e-3
        assert measure_error(result.measure, SpectralMeasure(0.2, ((1.3, 0.3), (3.7, 0.5)))) <= 1e-3
        lams = np.array([lam for lam, _ in result.measure.atoms])
        geom = recovery._geometric_factor(ts, math.exp(-1.0))
        params, _, a_aug, resid = recovery._solve_weights(ts, chis, geom, lams)
        assert np.all((params > 0.0) & (params < 1.0))
        jac = recovery._projection_derivatives(ts, a_aug, params, resid)[0]
        assert np.abs(jac.T @ resid[:-1]).max() <= 1e-8

    def test_pencil_seeds_skip_m1_node(self, monkeypatch):
        # m1's e^{2it} term is a pencil node of negative amplitude, not an atom
        seeds = []
        polish = recovery._polish

        def recorded(ts, chis, geom, lams0):
            seeds.append(np.array(lams0))
            return polish(ts, chis, geom, lams0)

        monkeypatch.setattr(recovery, "_polish", recorded)
        ts, chis = mixture_samples()
        chi_fit(list(zip(ts, chis)), 1.0, max_atoms=3)
        assert len(seeds) == 1 and np.allclose(seeds[0], [1.3, 3.7], atol=1e-8)

    def test_atom_at_two_is_still_seeded(self, polishes):
        # its weight outweighs m1's term at the same node, so the amplitude is
        # positive and the pencil seed alone fits, with no periodogram fallback
        measure = SpectralMeasure(0.1, ((2.0, 0.5), (3.7, 0.4)))
        ts = np.linspace(-10, 10, 101)
        chis = chi_closed_form(StateSpec.mixture(measure, 1.0), ts)
        result = chi_fit(list(zip(ts, chis)), 1.0, max_atoms=3)
        assert polishes == [2]
        assert measure_error(result.measure, measure) <= 1e-6

    def test_noisy_fit_skips_m1_node(self, monkeypatch):
        # seeded at 2, m1's term took a small weight and wandered for 129 solves
        solves = []
        solve = recovery._solve_weights

        def counted(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(recovery, "_solve_weights", counted)
        ts, chis = mixture_samples(noise=1e-4, seed=8)
        result = chi_fit(list(zip(ts, chis)), 1.0, max_atoms=2, tol=1e-3)
        assert len(solves) <= 20  # measured 12
        assert measure_error(result.measure, SpectralMeasure(0.2, ((1.3, 0.3), (3.7, 0.5)))) <= 1e-3

    def test_noisy_uniform_fit_needs_periodogram_fallback(self):
        # the pencil seed misses tol on this noise draw; the periodogram seed fits
        measure = SpectralMeasure(0.3, ((0.5, 0.3), (2.8, 0.4)))
        ts = np.linspace(-10, 10, 101)
        rng = np.random.default_rng(28)
        noise = 1e-4 * (rng.standard_normal(101) + 1j * rng.standard_normal(101))
        chis = chi_closed_form(StateSpec.mixture(measure, 0.6), ts) + noise
        result = chi_fit(list(zip(ts, chis)), 0.6, max_atoms=2, tol=1e-3)
        assert len(result.measure.atoms) == 2
        assert measure_error(result.measure, measure) <= 1e-3


class TestRankCertificate:
    """Hankel singular values of chi/g on an exactly uniform grid reject data that no
    fit with at most max_atoms atoms reaches, before any polish, and never admissible data."""

    MESSAGE = "no fit with at most"

    @staticmethod
    def bound(ts, chis, beta, max_atoms):
        """sigma_{r+1} min|g| / sqrt(min(rows, columns) N), r = max_atoms + 2, from scipy's SVD."""
        geom = recovery._geometric_factor(ts, math.exp(-beta))
        values = chis / geom
        length, p = ts.size, ts.size // 2
        s = svd(hankel(values[: length - p], values[length - p - 1 :]), compute_uv=False)
        return s[max_atoms + 2] * np.abs(geom).min() / math.sqrt(min(length - p, p + 1) * length)

    @pytest.fixture
    def no_polish(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a polish or weight solve ran")

        for name in ("_polish", "_solve_weights"):
            monkeypatch.setattr(recovery, name, refuse)

    def test_never_fires_on_admissible_data(self):
        # complex noise scaled so that the true measure's rms is 0.99 tol: a fit
        # with max_atoms atoms reaches tol, so the bound must stay below it
        rng = np.random.default_rng(2101)
        for _ in range(60):
            count = int(rng.integers(1, 6))
            m1 = float(rng.uniform(0.0, 0.5))
            beta = float(rng.uniform(0.05, 3.0))
            tol = float(rng.choice([1e-9, 1e-6, 1e-3]))
            length = int(rng.integers(21, 202))
            ts = np.linspace(-rng.uniform(5.0, 20.0), rng.uniform(5.0, 20.0), length)
            ws = (1.0 - m1) * rng.dirichlet(np.ones(count))
            measure = SpectralMeasure(m1, tuple(zip(rng.uniform(0.2, 10.0, count), ws)))
            exact = chi_closed_form(StateSpec.mixture(measure, beta), ts)
            noise = rng.standard_normal(ts.size) + 1j * rng.standard_normal(ts.size)
            noise *= 0.99 * tol / np.sqrt(np.mean(np.abs(noise) ** 2))
            chis = exact + noise
            rms = np.sqrt(np.mean(np.abs(chis - exact) ** 2))
            geom = recovery._geometric_factor(ts, math.exp(-beta))
            s = recovery._hankel_svd(chis / geom)[0]
            floor = recovery._pencil_rms_floor(ts, geom, s, count + 2)
            assert 0.0 < floor <= rms
            try:
                chi_fit(list(zip(ts, chis)), beta, max_atoms=count, tol=tol)
            except (NotExtendable, IllPosed) as exc:
                assert not str(exc).startswith(self.MESSAGE)

    @pytest.mark.parametrize("kind", ["gauss", "expabs"])
    def test_fires_before_any_polish(self, no_polish, kind):
        # the recover benchmark's rejections: every width with every beta
        ts = np.linspace(-10.0, 10.0, 101)
        for scale in (0.5, 0.833, 1.167, 1.5):
            shape = 0.5 * (scale * ts) ** 2 if kind == "gauss" else scale * np.abs(ts)
            samples = list(zip(ts, np.exp(-shape).astype(complex)))
            for beta in (0.5, 1.0, 1.5, 2.0):
                with pytest.raises(NotExtendable, match=r"^no fit with at most 2 atoms reaches"):
                    chi_fit(samples, beta, max_atoms=2)

    def test_fires_on_gaussian_at_five_atoms(self, no_polish):
        with pytest.raises(NotExtendable) as info:
            chi_fit(gaussian_samples(), 1.0, max_atoms=5)
        message = str(info.value)
        assert message.startswith("no fit with at most 5 atoms reaches tol 1.000e-06: every one")
        assert message.endswith("(pencil singular value 8)")

    @pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_bound_is_pinned(self, side):
        # three atoms and m1 make five nodes in chi/g, one more than a 2-atom fit
        # has; scaled so that the bound sits just above or just below tol
        ts = np.linspace(-10.0, 10.0, 101)
        measure = SpectralMeasure(0.2, ((1.3, 0.3), (3.7, 0.3), (5.1, 0.2)))
        chis = chi_closed_form(StateSpec.mixture(measure, 1.0), ts)
        tol = 1e-6
        chis *= tol * side / self.bound(ts, chis, 1.0, 2)
        message = ""
        try:
            chi_fit(list(zip(ts, chis)), 1.0, max_atoms=2, tol=tol)
        except NotExtendable as exc:
            message = str(exc)
        assert message.startswith(self.MESSAGE) == (side > 1.0)
        if side > 1.0:
            printed = float(message.split("rms >= ")[1].split()[0])
            assert tol * (1.0 - 2e-3) <= printed <= tol * side

    def test_fewer_singular_values_than_nodes_proves_nothing(self):
        # 21 samples give an 11 x 11 Hankel matrix: no sigma_12 for 11 nodes (9 atoms)
        ts = np.linspace(-10.0, 10.0, 21)
        geom = recovery._geometric_factor(ts, math.exp(-1.0))
        s = recovery._hankel_svd(np.exp(-ts * ts) / geom)[0]
        assert s.size == 11
        assert recovery._pencil_rms_floor(ts, geom, s, 11) == 0.0
        assert recovery._pencil_rms_floor(ts, geom, s, 10) > 0.0


class TestRoutesAgree:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_peel_and_fit_match(self, beta):
        rng = np.random.default_rng(303)
        ts = np.linspace(-10, 10, 201)
        for _ in range(3):
            measure = random_measure(rng)
            state = StateSpec.mixture(measure, beta)
            peeled = ladder_peel(cartan_restriction(state), beta)
            fitted = chi_fit(list(zip(ts, chi_closed_form(state, ts))), beta, max_atoms=5)
            assert measure_error(peeled.measure, fitted.measure) <= 1e-6
