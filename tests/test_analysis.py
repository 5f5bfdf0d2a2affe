import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracemalloc

from rmlab.analysis import (
    PowerSumReport,
    _log_spaced,
    check_power_sum_inequalities,
    classify,
    growth_probe,
    shell_divergence_probe,
    sparse_multi_overlap_bound,
    sparse_single_overlap_bound,
    tree_multi_overlap_bound,
    tree_single_overlap_bound,
)
from rmlab.constructions import build_tree, sparse_family, sparse_function
from rmlab.funcrep import ParamSpace, StepFunction, lq_norm_on_cube
from rmlab.geometry import Cube
from rmlab.norms import rm_norm_dyadic, rm_score
from rmlab.series import harmonic_number
from rmlab.verification import PROBES, random_dyadic_step, random_intermediate_params
from reference import center

INTERMEDIATE = ParamSpace(2.0, 1.0, -0.25)
UNIT = Cube((0.0,), 1.0)


class TestPowerSums:
    def test_equal_pair_examples(self):
        rep = check_power_sum_inequalities((1.0, 1.0), 2.0)
        assert rep.full_upper and rep.head_lower
        lhs = 2.0
        rhs = 2 ** (1 - 2.0) * 4.0
        assert lhs == rhs  # equality case of the head comparison
        rep2 = check_power_sum_inequalities((1.0, 1.0), 0.5)
        assert rep2.full_lower and rep2.head_upper

    def test_random_no_violations(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            a = np.exp(rng.uniform(-3, 3, int(rng.integers(1, 25))))
            gamma = float(rng.uniform(0.0, 4.0))
            rep = check_power_sum_inequalities(a, gamma, int(rng.integers(1, a.size + 1)))
            assert rep.all_hold

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_power_sum_inequalities((1.0, 0.0), 2.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -0.5])
    def test_rejects_gamma_not_finite_and_nonnegative(self, gamma):
        with pytest.raises(ValueError):
            check_power_sum_inequalities((1.0, 2.0), gamma)

    @pytest.mark.parametrize("head", [True, False])
    def test_rejects_bool_head_count(self, head):
        with pytest.raises(ValueError):
            check_power_sum_inequalities((1.0, 2.0), 2.0, head)

    @pytest.mark.parametrize("head", [2.0, 2.5, "2", 1j])
    def test_rejects_non_integer_head_count(self, head):
        with pytest.raises(ValueError, match="head_count must be an integer"):
            check_power_sum_inequalities((1.0, 2.0, 3.0), 2.0, head)

    @pytest.mark.parametrize("head", [np.int64(2), np.uint8(2), 2])
    def test_integer_head_counts_give_python_bools(self, head):
        rep = check_power_sum_inequalities(np.array([1.0, 2.0, 3.0]), 1.0, head)
        assert rep == check_power_sum_inequalities((1.0, 2.0, 3.0), 1.0, 2)
        assert all(type(v) is bool for v in vars(rep).values())

    def test_overflow_is_an_input_error(self):
        with pytest.raises(ValueError):
            check_power_sum_inequalities((1e300, 1e300), 2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        # constant sequences are the equality cases, where rounding decides
        seq=st.one_of(
            st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=30),
            st.builds(lambda c, n: [c] * n, st.floats(1e-6, 1e6), st.integers(1, 30)),
        ),
        gamma=st.floats(0.0, 4.0),
        head=st.integers(1, 30),
    )
    @example(seq=[0.1] * 6, gamma=0.5, head=6)
    @example(seq=[0.1] * 7, gamma=2.5, head=7)
    def test_sums_are_exactly_rounded(self, seq, gamma, head):
        head = min(head, len(seq))
        powers = [x ** gamma for x in seq]

        def exact(xs):
            return float(sum(Fraction(x) for x in xs))

        full_pow, head_pow = exact(powers), exact(powers[:head])
        full_sum = exact(seq) ** gamma
        head_sum = head ** (1.0 - gamma) * exact(seq[:head]) ** gamma

        def leq(lhs, rhs):
            return lhs <= rhs + 1e-300

        upper, lower = gamma >= 1.0, gamma <= 1.0
        expected = PowerSumReport(
            full_upper=leq(full_pow, full_sum) if upper else None,
            head_upper=leq(head_pow, head_sum) if lower else None,
            full_lower=leq(full_sum, full_pow) if lower else None,
            head_lower=leq(head_sum, head_pow) if upper else None,
        )
        assert check_power_sum_inequalities(np.array(seq), gamma, head, rel_tol=0.0) == expected


def check_holder_cube(f, cube, params):
    """|Q|**(1-p*alpha-p/q) ||f||_{L^q(Q)}**p <= (int_Q |f|**theta)**(1-p*alpha), on lq_norm_on_cube."""
    theta = params.theta
    lhs = cube.volume ** params.score_exponent * lq_norm_on_cube(f, cube, params.q) ** params.p
    rhs = (lq_norm_on_cube(f, cube, theta) ** theta) ** (1.0 - params.p * params.alpha)
    return lhs <= rhs * (1.0 + 1e-12) + 1e-300


class TestHolderAndEmbedding:
    def test_constant_attains_equality(self):
        f = StepFunction(((UNIT, 2.0),))
        params = INTERMEDIATE
        theta = params.theta
        lhs = UNIT.volume ** params.score_exponent * 2.0 ** params.p
        rhs = (2.0 ** theta) ** (1.0 - params.p * params.alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert check_holder_cube(f, UNIT, params)

    def test_hand_computed_case(self):
        # indicator of [0,1] inside [0,2] at (2, 1, -1/4):
        # lhs = 2**(-1/2), rhs = 1
        f = StepFunction(((UNIT, 1.0),))
        big = Cube((0.0,), 2.0)
        params = INTERMEDIATE
        lhs = big.volume ** params.score_exponent * 1.0
        assert lhs == pytest.approx(2.0 ** -0.5, rel=1e-14)
        assert check_holder_cube(f, big, params)

    def test_random_holder(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            params = random_intermediate_params(rng)
            f = random_dyadic_step(rng, UNIT, int(rng.integers(1, 4)))
            cube = Cube((float(rng.uniform(-0.5, 0.5)),), float(rng.uniform(0.3, 2.0)))
            assert check_holder_cube(f, cube, params)

    def test_embedding_sparse_own_family(self):
        f = sparse_function(100)
        fam = sparse_family(100)
        params = INTERMEDIATE
        score = rm_score(f, fam, params, check=False)
        h100 = harmonic_number(100)
        assert score ** (1.0 / params.p) <= h100 ** (1.0 / params.theta) + 1e-12


class TestClassify:
    def test_spec_spot_values(self):
        assert classify(2, 1, 0.0, "whole-space").verdict == "EqualsLp"
        res = classify(2, 1, -0.25, "whole-space")
        assert res.verdict == "ProperSupersetOfLtheta"
        assert res.theta == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert classify(1, 2, 0.1, "cube").verdict == "ZeroSpace"

    def test_boundaries(self):
        assert classify(2, 1, -0.5, "whole-space").verdict == "EqualsLq"
        assert classify(3, 2, -1.0 / 6.0, "whole-space").verdict == "EqualsLq"
        assert classify(2, 1, -0.75, "cube").verdict == "EqualsLq"
        assert classify(2, 1, -0.75, "whole-space").verdict == "ZeroSpace"
        assert classify(2, 2, 0.0, "whole-space").verdict == "EqualsLq"
        assert classify(2, 3, 0.0, "whole-space").verdict == "ZeroSpace"
        assert classify(2, 3, -0.1, "cube").verdict == "EqualsLq"

    def test_morrey_identification(self):
        assert classify(math.inf, 2, -0.25, "whole-space").verdict == "EqualsMorrey"
        assert classify(math.inf, 2, -0.25, "cube").verdict == "EqualsMorrey"
        assert classify(math.inf, 2, 0.0, "whole-space").verdict == "EqualsLp"
        assert classify(math.inf, 2, -0.5, "whole-space").verdict == "EqualsLq"

    def test_total_on_grid(self):
        for p in (1.0, 2.0, math.inf):
            for q in (1.0, 3.0, math.inf):
                for alpha in (-2.0, -0.3, 0.0, 0.4):
                    for kind in ("whole-space", "cube"):
                        res = classify(p, q, alpha, kind)
                        assert res.verdict in {
                            "ZeroSpace",
                            "EqualsLq",
                            "EqualsLp",
                            "ProperSupersetOfLtheta",
                            "EqualsMorrey",
                        }

    @pytest.mark.parametrize("p,q,alpha", [
        (2.0, 1.0, math.nan), (math.nan, 1.0, 0.0), (2.0, math.nan, 0.0), (2.0, 1.0, math.inf), (2.0, 1.0, -math.inf),
    ], ids=["alpha-nan", "p-nan", "q-nan", "alpha-inf", "alpha-minus-inf"])
    def test_refuses_what_the_parameter_space_refuses(self, p, q, alpha):
        with pytest.raises(ValueError):
            ParamSpace(p, q, alpha)
        with pytest.raises(ValueError):
            classify(p, q, alpha, "whole-space")


class TestGrowthProbe:
    def test_harmonic_logarithmic(self):
        partials = np.cumsum(1.0 / np.arange(1, 10_001))
        pts = [int(v) for v in np.logspace(1, 4, 13)]
        rep = growth_probe(iter(partials), pts)
        assert rep.fit_class == "logarithmic"
        assert abs(rep.rate - 1.0) <= 0.05

    def test_geometric_bounded(self):
        partials = np.cumsum(0.5 ** np.arange(1, 1001))
        rep = growth_probe(iter(partials), [2, 5, 10, 30, 100, 300, 1000])
        assert rep.fit_class == "bounded"

    def test_power_tail_bounded(self):
        partials = np.cumsum(np.arange(1, 100_001, dtype=float) ** -1.5)
        rep = growth_probe(iter(partials), [int(v) for v in np.logspace(1, 5, 13)])
        assert rep.fit_class == "bounded"

    def test_constant_terms_linear(self):
        partials = np.cumsum(np.full(2000, 2.0 ** -0.5))
        rep = growth_probe(iter(partials), [2, 5, 10, 50, 200, 1000, 2000])
        assert rep.fit_class == "linear"
        assert rep.rate == pytest.approx(2.0 ** -0.5, rel=1e-9)

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            growth_probe(iter([1.0, 0.5, 2.0, 3.0, 4.0]), [1, 2, 3, 4, 5])


class TestAnalyticBounds:
    def test_single_overlap_series_limit(self):
        zeta = pytest.importorskip("scipy.special").zeta
        val = sparse_single_overlap_bound(10 ** 6, INTERMEDIATE)
        assert val == pytest.approx(float(zeta(1.5)), rel=1e-8)
        assert val >= float(zeta(1.5))

    def test_prop_rn_working_memory(self):
        # its sparse_single_overlap_bound(10**6, .) sums a million powers; a one-shot
        # np.sum would hold two 8 MB arrays, about 15 MB traced for the whole probe
        tracemalloc.start()
        try:
            passed = PROBES["prop-rn"]().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < 2 << 20

    def test_single_overlap_first_term(self):
        val = sparse_single_overlap_bound(1, INTERMEDIATE)
        tail = 1.0 / 0.5
        assert val == pytest.approx(1.0 + tail, rel=1e-14)

    def test_single_overlap_partial_sums_nondecreasing(self):
        partials = [
            sum(l ** (INTERMEDIATE.p * INTERMEDIATE.alpha - 1.0) for l in range(1, L + 1))
            for L in (1, 2, 5, 10, 100)
        ]
        assert all(b >= a for a, b in zip(partials, partials[1:]))

    def test_multi_overlap_geometric_factor(self):
        bound, sup_g = sparse_multi_overlap_bound(INTERMEDIATE, 1)
        geometric = 2.0 ** -0.5 / (1.0 - 2.0 ** -0.5)
        assert bound / sup_g == pytest.approx(geometric, rel=1e-12)
        g1 = 1.0 / 0.5 ** 0.5
        assert sup_g >= g1

    def test_tree_single_overlap_closed_form(self):
        val = tree_single_overlap_bound(INTERMEDIATE)
        assert val == pytest.approx(2.0 ** 0.75 / (1.0 - 2.0 ** -0.5), rel=1e-14)
        assert val == pytest.approx(5.741999891020301, rel=1e-12)
        huge = tree_single_overlap_bound(ParamSpace(2.0, 1.0, -1e-6))
        assert huge > 1e5

    def test_tree_single_overlap_blows_up_at_zero(self):
        # the bound grows without limit as alpha approaches 0 from below
        vals = [tree_single_overlap_bound(ParamSpace(2.0, 1.0, a)) for a in (-0.5, -0.1, -0.01, -1e-4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1e3

    def test_bounds_dominate_optimizer_scores(self):
        f = sparse_function(200)
        params = INTERMEDIATE
        bound = sparse_single_overlap_bound(10 ** 5, params) + sparse_multi_overlap_bound(params, 1)[0]
        for m, depth in ((6, 8), (9, 10)):
            est = rm_norm_dyadic(f, Cube((0.0,), float(2 ** m)), depth, params)
            assert est.value ** params.p <= bound

    def test_bounds_dominate_adversarial_families(self):
        # families built directly on the sparse structure, beyond what any
        # grid optimizer explores: exact supports, support merges, and
        # bridging cubes between consecutive supports
        count = 120
        f = sparse_function(count)
        fam = sparse_family(count)
        params = INTERMEDIATE
        bound = sparse_single_overlap_bound(10 ** 5, params) + sparse_multi_overlap_bound(params, 1)[0]

        supports = rm_score(f, fam, params, check=False)
        assert supports <= bound

        bridges = []
        for l in range(1, count, 2):
            lo = fam[l - 1].lower[0]
            hi = fam[l].lower[0] + fam[l].side
            bridges.append(Cube((lo,), hi - lo))
        assert rm_score(f, bridges, params, check=False) <= bound

        wide = []
        for l in range(1, count - 3, 4):
            lo = fam[l - 1].lower[0]
            hi = fam[l + 2].lower[0] + fam[l + 2].side
            wide.append(Cube((lo,), hi - lo))
        mixed = wide + [fam[count - 1]]
        assert rm_score(f, mixed, params, check=False) <= bound

    def test_tree_multi_overlap_bound_positive_finite(self):
        tree = build_tree(1, 8, INTERMEDIATE)
        val = tree_multi_overlap_bound(tree)
        assert 0.0 < val < math.inf

    def test_tree_bounds_dominate_descendant_covers(self):
        # per level, the minimal cubes covering each branch's descendant set
        # are exactly the worst multi-overlap families the estimates control
        tree = build_tree(1, 10, INTERMEDIATE)
        from rmlab.constructions import tree_function

        f = tree_function(tree)
        params = INTERMEDIATE
        total_bound = tree_single_overlap_bound(params) + tree_multi_overlap_bound(tree)
        for level in range(0, 7):
            cover = []
            half_span = 0.5 * tree.spacing.length(level) + tree.spacing.reach(level)
            for cube in tree.levels[level]:
                mid = center(cube)[0]
                cover.append(Cube((mid - half_span,), 2 * half_span))
            score = rm_score(f, cover, params, check=False)
            assert score <= total_bound


class TestShellDivergenceProbe:
    def test_harmonic_with_predicted_rate(self):
        res = shell_divergence_probe(200, 1, 1.0, 2.0, 0.25)
        assert res.report.fit_class == "logarithmic"
        assert abs(res.report.rate / res.expected_rate - 1.0) <= 0.10
        assert all(b >= a for a, b in zip(res.partial_sums, res.partial_sums[1:]))

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            shell_divergence_probe(50, 1, 2.0, 1.0, -0.25)

    @pytest.mark.parametrize("top", [2, 3, 5, 8, 12, 13, 50, 199, 200, 1000, 4096, 10 ** 5])
    def test_sample_points_are_those_of_np_unique(self, top):
        pts = np.unique(np.round(np.logspace(math.log10(2), math.log10(top), 12)).astype(int))
        want = tuple(int(v) for v in pts if v >= 1)
        got = _log_spaced(top)
        assert got == want
        assert all(type(v) is int for v in got)


class TestInterpolationIndex:
    def test_examples(self):
        # the index classify reports for the intermediate regime is ParamSpace.theta
        assert ParamSpace(2.0, 1.0, 0.0).theta == 2.0
        assert ParamSpace(2.0, 1.0, -0.25).theta == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert classify(2.0, 1.0, -0.25, "whole-space").theta == ParamSpace(2.0, 1.0, -0.25).theta
