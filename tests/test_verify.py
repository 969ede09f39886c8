import json
import math
import warnings

import numpy as np
import pytest

from swnkms import algebra, states, verify
from swnkms.algebra import (
    AlgebraElement, N, X, Y, term_tuples, weight_zero_product, weight_zero_rows,
)
from swnkms.funcspace import X_VAR, FunctionExpr
from swnkms.grammar import format_element
from swnkms.states import CartanMeasure, SpectralMeasure, StateSpec
from swnkms.verify import (
    GramResult,
    gram_psd_check,
    kms_check,
    random_element,
    random_function,
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
        for seed in range(14017000018, 14017000030):
            report = kms_check(StateSpec.mixture(measure, 0.5), max_degree=4, trials=20, seed=seed)
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

    def test_draws_one_generator_per_pair(self, draws):
        # what the guards below assert is absent: one default_rng([seed, k]) per pair
        kms_check(StateSpec.gibbs(1.0, 1.0), max_degree=2, trials=3, seed=4)
        assert draws == [[4, 0], [4, 1], [4, 2]]

    def test_rejects_negative_seed(self, draws):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            kms_check(StateSpec.gibbs(1.0, 1.0), seed=-1)
        assert draws == []

    @pytest.mark.parametrize("argument, value", [
        ("dynamics_scale", math.nan), ("dynamics_scale", math.inf), ("dynamics_scale", -math.inf),
        ("max_degree", 2.5), ("trials", 3.0), ("seed", 1.5), ("seed", "1"),
    ])
    def test_rejects_bad_argument_before_drawing(self, draws, argument, value):
        """A non-finite scale once surfaced as a trace "not finite at beta=1.0",
        and a float count as a TypeError."""
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            kms_check(StateSpec.gibbs(1.0, 1.0), **{argument: value})
        assert draws == []

    def test_numpy_integers_are_integers(self):
        state = StateSpec.gibbs(1.5, 1.0)
        report = kms_check(state, max_degree=np.int64(3), trials=np.int32(5), seed=np.uint64(2))
        assert report.to_json() == kms_check(state, max_degree=3, trials=5, seed=2).to_json()

    def test_non_finite_trace_raises(self):
        """One of these 40 pairs has traces that overflow; a nan residual once passed the check.

        The products are traced as unmerged rows; the first non-finite row names its term.
        """
        message = r"not finite at beta=1e-15 at \(m, n\) = \(7, 5\), the term x\^5 of X\^7 Y\^7 N_F"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                kms_check(StateSpec.gibbs(1.5, 1e-15), max_degree=12, trials=40, seed=3)

    def test_overflowing_dynamics_raises_naming_beta_scale_and_weight(self):
        """U_{i beta} scales weight w by e^{-beta w}: at beta 200, w = -4 is past the
        float range, and this once escaped as a bare OverflowError."""
        message = r"beta=200.0, dynamics_scale=1.0 on weight -4$"
        with pytest.raises(ValueError, match=message):
            kms_check(StateSpec.gibbs(1.5, 200.0), max_degree=4)

    def test_sabotaged_residual_is_pinned(self):
        # recorded when the checks traced canonical products; rows move it only by rounding
        state = StateSpec.gibbs(1.5, 1.0)
        report = kms_check(state, max_degree=4, trials=50, seed=42, dynamics_scale=2.0)
        assert report.max_residual == pytest.approx(19.076255073831753, rel=1e-12)


@pytest.fixture
def draws(monkeypatch):
    """The seed of every generator made through ``np.random.default_rng``, in order."""
    seen = []
    original = np.random.default_rng

    def recording(seed=None):
        seen.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return seen


def report_json(residual, pair):
    """``KmsReport.to_json()`` of a degree-4, 20-pair report for seed 17, written out."""
    return (
        '{\n  "max_residual": ' + repr(residual) + ',\n  "pairs_tested": 20,\n  "seed": 17,\n'
        '  "tolerance": 1e-08,\n  "worst_pair": [\n'
        '    "' + pair[0] + '",\n    "' + pair[1] + '"\n  ]\n}'
    )


# Worst pairs of kms_check(state, max_degree=4, trials=20, seed=17), as recorded when
# each pair was drawn and moved by U_{i beta} as AlgebraElements.
PINNED_PAIRS = {
    "none": ("", ""),
    "scale 1, a": (
        "Y^2 N[(0.11269743372845298+0.7927293956090409i)*x*exp(-0.07751009438191536)"
        " + (-0.4665711137897004+0.3965143462794576i)*x]"
        " + Y^3 N[(-0.9352440104368267+0.2867295468409701i)*x^2*exp(-0.907322043978197)"
        " + (-0.8292112758508392-0.6292962207789983i)*x^2*exp(-0.43660368045617415)]",
        "X N[(-0.1016166178023612-0.32218046945442236i)*x^2*exp(-0.6017858614208207)"
        " + (-0.3460231625229897+0.8160364886118114i)*x^2*exp(0.5521978277228718)]"
        " + X^2 N[(-0.4930266143864892+0.6707100530419776i)*x"
        " + (0.07644458825098965-0.09077359731090828i)*x^2]",
    ),
    "scale 1, b": (
        "Y N[(0.14649065848526233-0.34807264912001656i)"
        " + (0.6072767739001184-0.797231847992651i)*x*exp(0.8603605293600871)]"
        " + (-0.5116198986955316-0.6575810554884576i) X Y^3 N[exp(0.40156794692075826)]",
        "N[(-0.6757913359093812+0.6530590742280284i)"
        " + (0.17433702250874616+0.7584227629073612i)*x^2*exp(-0.48928741191776104)]"
        " + Y^2 N[(-0.6711616117152761-0.25864422104097873i)*exp(0.4064419697341437)"
        " + (-0.35165234023807423+0.2324145071222692i)*x*exp(0.8827318190072204)]"
        " + (0.274535084338283+0.7732766964167284i) X N[x*exp(-0.8862305686288054)]",
    ),
    "scale 2": (
        "(0.9193423411097794-0.2622281401456439i) N[exp(-0.3511294833334089)]"
        " + Y^4 N[(-0.8788434661034752+0.5905868064183986i)*exp(-0.1971235826347455)"
        " + (-0.9989418943705963+0.5288141460422018i)]"
        " + X N[(-0.4570238231806054-0.6029209516513063i)*x^2"
        " + (-0.31889427868467957+0.10449018164822022i)*x^2*exp(0.7557100795584231)]",
        "X N[(0.8057763467718249+0.12613370432304638i)*x"
        " + (0.10250858693002951-0.7648380798084617i)*x^2*exp(-0.025248093794776993)]"
        " + (0.47676582636846687-0.015065630523581008i) X^3 Y N[exp(0.8021221924940536)]"
        " + (-0.47101007188631017-0.7849355460698628i) X^4 N[x^2]",
    ),
}

# (STATES index, dynamics_scale, max_residual, worst pair) of the same reports
PINNED_REPORTS = [
    (0, 1.0, 2.0796143202852603e-15, "scale 1, a"),
    (0, 2.0, 53.598149570425825, "scale 2"),
    (1, 1.0, 3.4443293294343614e-16, "scale 1, b"),
    (1, 2.0, 6.389056098697153, "scale 2"),
    (2, 1.0, 0.0, "none"),
    (2, 2.0, 0.0, "none"),
    (3, 1.0, 5.284381046492703e-15, "scale 1, a"),
    (3, 2.0, 14.99999999217006, "scale 2"),
]


class TestPinnedReports:
    @pytest.mark.parametrize("index, dynamics_scale, residual, pair", PINNED_REPORTS,
                             ids=[f"state{i}-scale{scale:g}" for i, scale, _, _ in PINNED_REPORTS])
    def test_report_json_is_pinned(self, index, dynamics_scale, residual, pair):
        report = kms_check(STATES[index], max_degree=4, trials=20, seed=17, dynamics_scale=dynamics_scale)
        assert report.to_json() == report_json(residual, PINNED_PAIRS[pair])


def loop_kms(state, max_degree, trials, seed, dynamics_scale=1.0):
    """kms_check pair by pair, one trace_rows call each: (pairs, largest residual, worst index).

    The worst index is the first pair whose residual beats every earlier one,
    and None when every residual is 0.
    """
    z = 1j * state.beta * dynamics_scale
    pairs, max_residual, worst = [], 0.0, None
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        a = random_element(rng, max_degree)
        b = random_element(rng, max_degree)
        left, right = weight_zero_rows(a, b), weight_zero_rows(b, a.automorphism(z))
        rows = [l_column + r_column for l_column, r_column in zip(left, right)]
        lhs, rhs = states.trace_rows(state, rows, [len(left[0]), len(right[0])])
        pairs.append((a, b))
        residual = abs(lhs - rhs) / (1.0 + abs(lhs))
        if residual > max_residual:
            max_residual, worst = residual, index
    return pairs, max_residual, worst


class TestBatchedChecks:
    """One trace_rows call per check, equal to the per-pair and per-entry loops."""

    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("dynamics_scale", [1.0, 2.0])
    def test_kms_check_matches_pair_loop(self, state, dynamics_scale):
        for seed in (5, 6):
            report = kms_check(state, max_degree=4, trials=30, seed=seed, dynamics_scale=dynamics_scale)
            pairs, max_residual, worst = loop_kms(state, 4, 30, seed, dynamics_scale)
            assert abs(report.max_residual - max_residual) <= 1e-15 * max_residual
            expected = ("", "") if worst is None else tuple(map(format_element, pairs[worst]))
            assert report.worst_pair == expected

    @pytest.mark.parametrize("state", STATES)
    def test_gram_matches_entry_loop(self, state):
        words = WORDS + [CUBE]
        gram = np.array([[states.eval_trace(state, weight_zero_product(wi.star(), wj))
                          for wj in words] for wi in words])
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        result = gram_psd_check(state, words)
        assert abs(result.min_eigenvalue - eigs[0]) <= 1e-15 * np.abs(eigs).max()

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each trace_rows call's rows, split into one list of (m, n, t, c) per element."""
        seen = {"trace_rows": [], "eval_trace": []}
        original = states.trace_rows

        def batched(state, rows, counts):
            ends = np.cumsum(counts).tolist()
            table = list(zip(*rows))
            seen["trace_rows"].append([table[end - n : end] for n, end in zip(counts, ends)])
            return original(state, rows, counts)

        monkeypatch.setattr(verify, "trace_rows", batched)
        for module in (states, verify):
            monkeypatch.setattr(module, "eval_trace", lambda state, a: seen["eval_trace"].append(a))
        return seen

    def test_one_contraction_per_check(self, calls):
        state = StateSpec.mixture(SpectralMeasure(0.3, ((1.0, 0.4), (2.7, 0.3))), LN2)
        kms_check(state, max_degree=4, trials=25, seed=8)
        assert [len(batch) for batch in calls["trace_rows"]] == [50]
        gram_psd_check(state, WORDS)
        assert [len(batch) for batch in calls["trace_rows"]] == [50, len(WORDS) ** 2]
        assert calls["eval_trace"] == []

    def test_fewer_trials_check_a_prefix(self, calls):
        state = StateSpec.gibbs(1.5, 1.0)
        kms_check(state, max_degree=3, trials=10, seed=21)
        kms_check(state, max_degree=3, trials=20, seed=21)
        short, long = calls["trace_rows"]
        assert short == long[:20]


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
    def test_one_uniform_block_per_element(self):
        class Counting:
            def __init__(self, rng):
                self.rng, self.calls = rng, []

            def random(self, size):
                self.calls.append(size)
                return self.rng.random(size)

        rng = Counting(np.random.default_rng(3))
        for _ in range(20):
            random_element(rng, 4)
        assert rng.calls == [verify.ELEMENT_DRAWS] * 20
        random_function(rng)
        assert rng.calls[-1] == verify.FUNCTION_DRAWS

    def test_pair_block_is_two_element_blocks(self):
        # kms_check takes a pair's two blocks in one call: the same stream as two calls
        block = np.random.default_rng([3, 8]).random(2 * verify.ELEMENT_DRAWS)
        rng = np.random.default_rng([3, 8])
        first, second = rng.random(verify.ELEMENT_DRAWS), rng.random(verify.ELEMENT_DRAWS)
        assert block.tolist() == first.tolist() + second.tolist()

    @pytest.mark.parametrize("degree", range(9))
    def test_decoder_matches_the_object_route(self, degree):
        """``_decode`` gives, bit for bit, the terms the constructors canonicalize a draw to.

        600 draws per degree, plus blocks that hit the exact-zero fallbacks: a
        zero coefficient, two terms that cancel, and two monomials on one key
        that cancel (every multi-monomial draw merges at degree 0).
        """
        keys = verify._monomial_keys(degree)
        rng, twin = np.random.default_rng([degree, 1]), np.random.default_rng([degree, 1])
        blocks = []
        for _ in range(600):
            blocks.append(rng.random(verify.ELEMENT_DRAWS).tolist())
            decoded = verify._decode(blocks[-1], keys)
            assert repr(decoded) == repr(term_tuples(random_element(twin, degree)))
        blocks += ZERO_BLOCKS
        for u in blocks:
            assert repr(verify._decode(u, keys)) == repr(term_tuples(drawn_as_objects(u, keys)))

    def test_pair_replays_from_its_own_stream(self):
        state = StateSpec.gibbs(1.5, 1.0)
        report = kms_check(state, max_degree=4, trials=20, seed=99, dynamics_scale=2.0)
        pairs, _, worst = loop_kms(state, 4, 20, 99, 2.0)
        assert worst is not None
        rng = np.random.default_rng([99, worst])
        pair = (random_element(rng, 4), random_element(rng, 4))
        assert pair == pairs[worst]
        assert report.worst_pair == tuple(map(format_element, pair))

    def test_draws_cover_the_distribution(self):
        degree = 3
        rng = np.random.default_rng(2000)
        elements = [random_element(rng, degree) for _ in range(2000)]
        functions = [random_function(rng) for _ in range(2000)]
        assert {key for el in elements for key, _ in el.terms} == {
            (m, n) for m in range(degree + 1) for n in range(degree + 1) if m + n <= degree
        }
        assert {len(el.terms) for el in elements} == {1, 2, 3}
        assert {len(f.terms) for f in functions} == {1, 2}
        # Two terms of one function merge only at frequency 0 and equal powers.
        terms = [term for f in functions for term in f.terms]
        assert {n for n, _, _ in terms} == {0, 1, 2}
        assert max(abs(t) for _, t, _ in terms) < 1.0
        assert 0.45 < sum(t == 0.0 for _, t, _ in terms) / len(terms) < 0.55
        assert max(max(abs(c.real), abs(c.imag)) for _, t, c in terms if t) <= 1.0

    @pytest.mark.parametrize("degree, band", [(3, (0.59, 0.67)), (4, (0.675, 0.755))])
    def test_sabotage_blind_share(self, degree, band):
        """Share of single pairs whose sabotaged residual stays <= 1e-8.

        Drawn one integer or float per call, pairs read 0.629 (degree 3) and
        0.715 (degree 4) over 3000 seeds; the share depends on the draw's
        distribution only, not on how the uniforms are taken.
        """
        state = StateSpec.gibbs(1.5, 1.0)
        seeds = range(2000)
        blind = sum(
            kms_check(state, max_degree=degree, trials=1, seed=seed, dynamics_scale=2.0).max_residual <= 1e-8
            for seed in seeds
        )
        assert band[0] <= blind / len(seeds) <= band[1]

    def test_degree_bounded(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            el = random_element(rng, 4)
            assert el.total_degree <= 4
            assert not el.is_zero

    def test_draws_are_pinned(self):
        drawn = [format_element(random_element(np.random.default_rng([7, k]), 4)) for k in range(3)]
        assert drawn == PINNED_DRAWS

    def test_reproducible(self):
        a = random_element(np.random.default_rng(5), 3)
        b = random_element(np.random.default_rng(5), 3)
        assert a == b


def drawn_as_objects(u, keys):
    """The element a block of uniforms draws, built through FunctionExpr and AlgebraElement."""
    monomials = []
    for i in range(1 + int(3 * u[0])):
        slot = u[1 + 12 * i : 13 + 12 * i]
        terms = []
        for j in range(1 + int(2 * slot[1])):
            power, coin, freq, re, im = slot[2 + 5 * j : 7 + 5 * j]
            freq = 2.0 * freq - 1.0 if coin < 0.5 else 0.0
            terms.append((int(3 * power), freq, complex(2.0 * re - 1.0, 2.0 * im - 1.0)))
        f = FunctionExpr(terms)
        f = f if not f.is_zero else FunctionExpr.constant(1.0)
        monomials.append((keys[int(len(keys) * slot[0])], f))
    el = AlgebraElement(monomials)
    return el if not el.is_zero else AlgebraElement.one()


def _slot(key, *terms):
    """One element slot: a key uniform, a term count uniform, two terms (p, coin, t, Re, Im)."""
    padded = list(terms) + [(0.1, 0.9, 0.5, 0.3, 0.3)] * (2 - len(terms))
    return [key, 0.0 if len(terms) == 1 else 0.9] + [x for term in padded for x in term]


# On the last key, c = 0 (u = 1/2 for Re and Im) and two terms with c and -c;
# then two monomials on the first key whose functions c x and -c x cancel
ZERO_BLOCKS = [
    [0.0] + _slot(0.99, (0.4, 0.9, 0.5, 0.5, 0.5)) * 3,
    [0.0] + _slot(0.99, (0.4, 0.9, 0.5, 0.25, 0.75), (0.4, 0.7, 0.1, 0.75, 0.25)) * 3,
    [0.5] + _slot(0.0, (0.4, 0.9, 0.5, 0.25, 0.75)) + _slot(0.0, (0.4, 0.9, 0.5, 0.75, 0.25)) * 2,
]


# random_element(default_rng([7, k]), 4) for k = 0, 1, 2, as drawn when the key
# list was rebuilt on every draw
PINNED_DRAWS = [
    "X Y N[(-0.9121159840772333-0.9286394424528077i)*exp(0.22507920854606156)"
    " + (0.24435845888232532+0.9779202953637698i)*x]"
    " + X^3 Y N[(-0.9894693908688506+0.6424568367655326i)*exp(0.7471068907925238)"
    " + (-0.44314877579845335-0.4902608246917508i)*x^2*exp(-0.39393514636137295)]",
    "(0.6372710665310553+0.9531128345861433i) N[exp(-0.8954354646093112)]"
    " + (0.9856531805608211-0.38723751233407566i) Y N[exp(0.0034569430057009853)]"
    " + X^3 Y N[(-0.22856338923035002-0.7426550228683548i)*x"
    " + (-0.5811034446513395+0.35219273318054833i)*x*exp(0.04276709329514072)]",
    "X Y N[(-0.6371862420915171+0.05724001112256594i)"
    " + (-0.7261908133434118-0.19856658264469096i)*x^2*exp(-0.4412522389551756)]",
]

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

    def test_min_eigenvalue_is_pinned(self):
        # recorded when the check traced canonical products; rows move it only by rounding
        words = [AlgebraElement.one(), X, Y, X * Y, N(X_VAR), X * N(X_VAR), CUBE]
        result = gram_psd_check(StateSpec.gibbs(1.5, 1.0), words)
        assert result.min_eigenvalue == pytest.approx(0.12482018873328025, rel=1e-12)

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

    def test_non_finite_trace_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite at beta=1e-15"):
                gram_psd_check(StateSpec.gibbs(1.5, 1e-15), [X**12, AlgebraElement.one()])

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
