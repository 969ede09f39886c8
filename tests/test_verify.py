import json
import math

import numpy as np
import pytest

from swnkms import algebra, states, verify
from swnkms.algebra import AlgebraElement, N, X, Y
from swnkms.funcspace import X_VAR, FunctionExpr
from swnkms.states import CartanMeasure, SpectralMeasure, StateSpec
from swnkms.verify import (
    GramResult,
    gram_psd_check,
    kms_check,
    random_element,
    support_positivity_check,
)

LN2 = math.log(2.0)

STATES = [
    StateSpec.gibbs(1.5, 1.0),
    StateSpec.gibbs(0.3, 0.5),
    StateSpec.vacuum(1.0),
    StateSpec.mixture(SpectralMeasure(0.3, ((1.0, 0.4), (2.7, 0.3))), LN2),
]


class TestKmsCheck:
    def test_gibbs_passes(self):
        report = kms_check(StateSpec.gibbs(1.5, 1.0), max_degree=3, trials=100, seed=42)
        assert report.passed
        assert report.max_residual <= 1e-8
        assert report.pairs_tested == 100

    @pytest.mark.parametrize("state", STATES)
    def test_grid_states_pass(self, state):
        report = kms_check(state, max_degree=3, trials=40, seed=7)
        assert report.passed, report

    def test_valid_state_passes_at_beta_half(self):
        """A mixture whose degree-4 pairs failed the 1e-8 default (1.57e-7) under a truncated trace."""
        measure = SpectralMeasure(0.4642014793583038, (
            (0.5966811982737747, 0.040074504204309115),
            (1.3404650466680554, 0.4638032154114315),
            (2.7684799387678165, 0.03192080102595554),
        ))
        report = kms_check(StateSpec.mixture(measure, 0.5), max_degree=4, trials=20, seed=14017000018)
        assert report.passed, report

    def test_trivial_pair_is_exact(self):
        # rho(1*1) = rho(1*U_{i beta}(1)) identically
        state = StateSpec.gibbs(1.0, 1.0)
        report = kms_check(state, max_degree=0, trials=5, seed=0)
        assert report.max_residual <= 1e-14

    def test_sabotaged_dynamics_fails_loudly(self):
        state = StateSpec.gibbs(1.5, 1.0)
        report = kms_check(
            state, max_degree=4, trials=50, seed=42, dynamics_scale=2.0
        )
        assert not report.passed
        assert report.max_residual > 1e-2

    def test_deterministic_given_seed(self):
        state = StateSpec.gibbs(2.0, 0.7)
        a = kms_check(state, max_degree=3, trials=25, seed=11)
        b = kms_check(state, max_degree=3, trials=25, seed=11)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_report_fields_serialize(self):
        report = kms_check(StateSpec.gibbs(1.0, 1.0), max_degree=2, trials=5, seed=1)
        data = json.loads(report.to_json())
        assert set(data) == {"pairs_tested", "max_residual", "worst_pair", "tolerance", "seed"}
        assert len(data["worst_pair"]) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kms_check(StateSpec.gibbs(1.0, 1.0), trials=0)
        with pytest.raises(ValueError):
            kms_check(StateSpec.gibbs(1.0, 1.0), tol=0.0)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            kms_check(StateSpec.gibbs(1.0, 1.0), max_degree=-1)


class TestWeightZeroProducts:
    """kms_check and gram_psd_check multiply only pairs whose weights cancel."""

    @pytest.fixture
    def weights_seen(self, monkeypatch):
        seen = []
        original = algebra._monomial_product

        def counting(m1, n1, f1, m2, n2, f2):
            seen.append((m1 - n1) + (m2 - n2))
            return original(m1, n1, f1, m2, n2, f2)

        monkeypatch.setattr(algebra, "_monomial_product", counting)
        return seen

    def test_kms_check(self, weights_seen):
        state = StateSpec.mixture(SpectralMeasure(0.3, ((1.0, 0.4), (2.7, 0.3))), LN2)
        for dynamics_scale in (1.0, 2.0):
            kms_check(state, max_degree=4, trials=30, seed=3, dynamics_scale=dynamics_scale)
        assert weights_seen
        assert set(weights_seen) == {0}

    def test_gram_psd_check(self, weights_seen):
        gram_psd_check(StateSpec.gibbs(1.5, 1.0), WORDS + [CUBE])
        assert weights_seen
        assert set(weights_seen) == {0}


class TestRandomElements:
    def test_degree_bounded(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            el = random_element(rng, 4)
            assert el.total_degree <= 4
            assert not el.is_zero

    def test_reproducible(self):
        a = random_element(np.random.default_rng(5), 3)
        b = random_element(np.random.default_rng(5), 3)
        assert a == b


WORDS = [
    AlgebraElement.one(),
    X,
    Y,
    X * Y,
    Y * X,
    N(X_VAR),
    X * N(X_VAR),
]

CUBE = (X + Y + N(X_VAR)) ** 3


class TestGramPsd:
    def test_vacuum_one_x(self):
        result = gram_psd_check(StateSpec.vacuum(1.0), [AlgebraElement.one(), X])
        assert isinstance(result, GramResult)
        # G = [[1, 0], [0, 0]]: X*X = -YX has vanishing vacuum value
        assert result.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert result.passed

    def test_gibbs_one_x(self):
        # G_22 = rho(X*X) = rho(N_x) - rho(XY) = 3 + 3 = 6 at lambda=1, beta=ln 2
        result = gram_psd_check(StateSpec.gibbs(1.0, LN2), [AlgebraElement.one(), X])
        assert result.passed
        assert result.min_eigenvalue == pytest.approx(1.0)

    def test_unit_word(self):
        result = gram_psd_check(StateSpec.gibbs(2.0, 1.0), [AlgebraElement.one()])
        assert result.min_eigenvalue == pytest.approx(1.0)

    @pytest.mark.parametrize("state", STATES)
    def test_word_set_psd_on_grid(self, state):
        assert gram_psd_check(state, WORDS).passed

    def test_positivity_of_squares(self):
        state = StateSpec.gibbs(1.3, 0.8)
        rng = np.random.default_rng(13)
        from swnkms.states import eval_trace

        for _ in range(10):
            a = random_element(rng, 3)
            value = eval_trace(state, a.star() * a)
            assert value.real >= -1e-8 * (1 + abs(value))
            assert abs(value.imag) <= 1e-8 * (1 + abs(value))

    def test_needs_words(self):
        with pytest.raises(ValueError):
            gram_psd_check(StateSpec.vacuum(1.0), [])


class TestSupportPositivity:
    def test_gibbs_smallest_atom(self):
        report = support_positivity_check(StateSpec.gibbs(0.5, 1.0))
        assert report.passed
        assert report.min_position == pytest.approx(0.5)

    def test_vacuum(self):
        report = support_positivity_check(StateSpec.vacuum(1.0))
        assert report.passed
        assert report.min_position == 0.0

    def test_negative_support_fails(self):
        measure = CartanMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))
        report = support_positivity_check(measure)
        assert not report.passed
        assert report.offending_atom == pytest.approx(-1.0)

    @pytest.mark.parametrize("state", STATES)
    def test_grid_states_pass(self, state):
        assert support_positivity_check(state).passed

    def test_state_skips_cartan_restriction(self, monkeypatch):
        # a state's support is read off its measure, not a truncated ladder
        calls = []
        original = states.cartan_restriction

        def counted(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(states, "cartan_restriction", counted)
        # a name imported into verify would bypass the patch on states
        monkeypatch.setattr(verify, "cartan_restriction", counted, raising=False)
        for state in STATES:
            support_positivity_check(state)
        assert calls == []
