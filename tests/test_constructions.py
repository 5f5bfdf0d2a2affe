import math

import pytest

from rmlab.constructions import (
    TreeSpacing,
    build_tree,
    descendant_radius,
    descendant_reach,
    modification_cutoff,
    power_split,
    shell_thresholds,
    sparse_family,
    sparse_function,
    tree_function,
    tree_side_length,
)
from rmlab.funcrep import ParamSpace, RadialPower, lebesgue_norm, lq_norm_on_cube, shell_integral_radial
from rmlab.geometry import (
    Cube,
    Domain,
    box_distance,
    interiors_pairwise_disjoint,
)
from rmlab.norms import rm_score
from rmlab.series import power_series_tail

INTERMEDIATE = ParamSpace(2.0, 1.0, -0.25)


class TestSparseFamily:
    def test_examples(self):
        fam = sparse_family(2)
        assert (fam[0].lower, fam[0].side) == ((2.0,), 1.0)
        assert (fam[1].lower, fam[1].side) == ((4.0,), 0.5)

    def test_volumes(self):
        fam = sparse_family(100, dim=1)
        for l in range(1, 101):
            assert fam[l - 1].volume == pytest.approx(1.0 / l, rel=1e-12)
        fam3 = sparse_family(50, dim=3)
        for l in range(1, 51):
            assert fam3[l - 1].volume == pytest.approx(1.0 / l, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pairwise_disjoint(self, dim):
        fam = sparse_family(500, dim=dim)
        assert interiors_pairwise_disjoint(fam)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_consecutive_gap_formula(self, dim):
        # gap between consecutive cubes is 2**(l+1) - 2**l - l**(-1/n) > 0;
        # checked in materialized form where floats reach, in log form to 10**4
        fam = sparse_family(60, dim=dim)
        for l in range(1, 60):
            got = box_distance(fam[l - 1], fam[l])
            expected = math.sqrt(dim) * (2.0 ** (l + 1) - 2.0 ** l - l ** (-1.0 / dim))
            assert got == pytest.approx(expected, rel=1e-12)
        for l in range(1, 10_001):
            # 2**(l+1) - 2**l = 2**l > l**(-1/n) always
            assert l * math.log(2.0) > -math.log(l) / dim or l >= 1

    def test_sparse_function_heights(self):
        f = sparse_function(5)
        assert all(h == 1.0 for _, h in f.pieces)
        assert lebesgue_norm(f, Domain.whole_space(1), math.inf).value == 1.0


class TestModificationCutoff:
    def test_brute_scan_oracle(self):
        # direct evaluation of the gap criterion for i = 0..20
        for dim in (1, 2, 3):
            ratio = (2 ** (1 / (2 * dim)) + 1) / (2 ** (1 / (2 * dim)) - 1)
            passing = [i for i in range(21) if ratio * 2 ** (-(2 * i + 3) / (2 * dim)) < 0.5]
            smallest = passing[0] - 1
            assert modification_cutoff(dim) == smallest
        assert modification_cutoff(1) == 2

    def test_minimality_contract(self):
        for dim in (1, 2, 3):
            n0 = modification_cutoff(dim)
            ratio = (2 ** (1 / (2 * dim)) + 1) / (2 ** (1 / (2 * dim)) - 1)

            def crit(i):
                return ratio * 2 ** (-(2 * i + 3) / (2 * dim)) < 0.5

            assert crit(n0 + 1)
            assert any(not crit(i) for i in range(n0 + 1))

    def test_scan_monotone_in_constant(self):
        # halving the ratio constant can only shorten the failing prefix
        def first_passing(const, dim=1):
            i = 0
            while const * 2 ** (-(2 * i + 3) / (2 * dim)) >= 0.5:
                i += 1
            return i

        c = (2 ** 0.5 + 1) / (2 ** 0.5 - 1)
        assert first_passing(c / 2) <= first_passing(c)
        assert first_passing(c / 4) <= first_passing(c / 2)


class TestDescendantRadius:
    def test_matches_manual_summation(self):
        for dim in (1, 2):
            for level in (0, 3, 10):
                manual = math.sqrt(dim) * sum(
                    tree_side_length(k, dim) + tree_side_length(k + 1, dim)
                    for k in range(level, level + 200)
                )
                assert descendant_radius(level, dim) == pytest.approx(manual, rel=1e-13)

    def test_truncation_insensitive(self):
        manual_64 = math.sqrt(1) * sum(
            tree_side_length(k, 1) + tree_side_length(k + 1, 1) for k in range(10, 74)
        )
        manual_200 = math.sqrt(1) * sum(
            tree_side_length(k, 1) + tree_side_length(k + 1, 1) for k in range(10, 210)
        )
        assert manual_64 == pytest.approx(manual_200, rel=1e-14)

    def test_geometric_comparison_bound(self):
        for dim in (1, 2, 3):
            n0 = modification_cutoff(dim)
            ratio = (2 ** (1 / (2 * dim)) + 1) / (2 ** (1 / (2 * dim)) - 1)
            for i in range(n0 + 1, n0 + 8):
                reach = descendant_reach(i, dim)
                assert reach < ratio * tree_side_length(i, dim)

    def test_thresholds_in_closed_form(self):
        sc = shell_thresholds(1.0, 0.25, 200)
        z = sc.normalizer
        for k, t in enumerate(sc.thresholds, start=1):
            assert t == power_series_tail(sc.exponent, k, rel_scale=z) / (2.0 * z)

    def test_strictly_decreasing(self):
        vals = [descendant_radius(i, 1) for i in range(3, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestModifyDistances:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaps_positive(self, dim):
        spacing = TreeSpacing.build(dim)
        for i in range(13):
            assert spacing.gap(i) > 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_widened_gap_algebra(self, dim):
        # with the doubling rule the gap equals sqrt(n) * reach(i+1) exactly
        spacing = TreeSpacing.build(dim)
        for i in range(spacing.cutoff + 1):
            assert spacing.gap(i) == pytest.approx(
                math.sqrt(dim) * spacing.reach(i + 1), rel=1e-14
            )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_raw_range_gap_above_half_distance(self, dim):
        spacing = TreeSpacing.build(dim)
        for i in range(spacing.cutoff + 1, spacing.cutoff + 8):
            per_axis_gap = spacing.gap(i) / math.sqrt(dim)
            assert per_axis_gap > 0.5 * tree_side_length(i, dim)


class TestBuildTree:
    def test_level_counts(self):
        tree = build_tree(1, 8, INTERMEDIATE)
        assert [len(f) for f in tree.levels] == [2 ** i for i in range(9)]

    def test_disjoint_and_contained(self):
        tree = build_tree(1, 10, INTERMEDIATE)
        cubes = tree.all_cubes()
        assert interiors_pairwise_disjoint(cubes)
        assert all(tree.domain.contains_cube(c) for c in cubes)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_disjoint_and_contained_higher_dim(self, dim):
        tree = build_tree(dim, 8, INTERMEDIATE)
        cubes = tree.all_cubes()
        assert len(cubes) == 2 ** 9 - 1
        assert interiors_pairwise_disjoint(cubes)
        assert all(tree.domain.contains_cube(c) for c in cubes)

    def test_centers_on_diagonal(self):
        tree = build_tree(2, 6, INTERMEDIATE)
        for fam in tree.levels:
            for cube in fam:
                c = cube.center
                assert abs(c[0] - c[1]) <= 1e-12 * max(1.0, abs(c[0]))

    def test_child_distance(self):
        for dim in (1, 2):
            tree = build_tree(dim, 6, INTERMEDIATE)
            for i in range(1, 5):
                parent = tree.levels[i - 1][0]
                kids = [
                    c
                    for c in tree.levels[i]
                    if abs(c.center[0] - parent.center[0])
                    < 2 * (tree.spacing.distance(i - 1) + tree.spacing.length(i - 1))
                ]
                target = math.sqrt(dim) * tree.spacing.distance(i - 1)
                dists = sorted(box_distance(parent, k) for k in kids)
                assert dists[0] == pytest.approx(target, rel=1e-9)

    def test_descendant_radius_consistency(self):
        tree = build_tree(1, 9, INTERMEDIATE)
        for i in (0, 1, 2):
            anchor = tree.levels[i][0]
            radius = tree.spacing.radius(i)
            reaches = []
            for j in range(i + 1, 10):
                level_max = 0.0
                for cube in tree.levels[j]:
                    # descendants of the leftmost branch only: restrict to
                    # cubes within the anchor's reach window
                    far_corner = max(abs(v) for v in cube.upper + cube.lower)
                    d = box_distance(anchor, cube) + cube.side * math.sqrt(1)
                    if box_distance(anchor, cube) <= radius:
                        level_max = max(level_max, d)
                reaches.append(level_max)
            materialized = max(reaches)
            assert materialized <= radius * (1 + 1e-12)
            # converges upward: deeper levels approach the certified radius
            assert materialized >= radius * 0.9

    def test_gap_consistency(self):
        # closest materialized descendant approaches the certified gap from above
        tree = build_tree(1, 12, INTERMEDIATE)
        for i in (0, 1, 5, 8):
            anchor = tree.levels[i][0]
            certified = tree.spacing.gap(i)
            best = math.inf
            for j in range(i + 1, 13):
                for cube in tree.levels[j]:
                    d = box_distance(anchor, cube)
                    if 0.0 < d < best:
                        best = d
            tail = math.sqrt(1) * (
                tree.spacing.reach(i + 1)
                - sum(
                    tree.spacing.distance(k) + tree.spacing.length(k + 1)
                    for k in range(i + 1, 12)
                )
            )
            assert best >= certified - 1e-15
            assert best == pytest.approx(certified + tail, abs=1e-9)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            build_tree(1, 4, ParamSpace(2.0, 1.0, 0.1))


class TestTreeFunction:
    def test_level_contributions_to_critical_power(self):
        tree = build_tree(1, 12, INTERMEDIATE)
        theta = INTERMEDIATE.theta
        for i in range(13):
            contrib = len(tree.levels[i]) * tree.height(i) ** theta * tree.spacing.length(i)
            assert contrib == pytest.approx(2.0 ** -0.5, rel=1e-12)

    def test_q_integral_partial_sum(self):
        tree = build_tree(1, 8, INTERMEDIATE)
        f = tree_function(tree)
        got = lebesgue_norm(f, Domain.of_cube(tree.domain), 1.0).value
        expected = sum(2.0 ** (-0.125 * i * i - 0.5) for i in range(9))
        assert got == pytest.approx(expected, rel=1e-11)

    def test_depth_zero(self):
        tree = build_tree(1, 0, INTERMEDIATE)
        f = tree_function(tree)
        assert len(f) == 1
        got = lebesgue_norm(f, Domain.of_cube(tree.domain), 1.0).value
        assert got == pytest.approx(2.0 ** -0.5, rel=1e-13)


class TestPowerSplit:
    def test_ring_floor_recomputed(self):
        # symbolic recomputation for n=1, N=2, (p,q,alpha) = (2,1,-1/4):
        # (N**n-1)**(1-p/q) * [S+ * (2**(1/4) - 1) / (1/4)]**2 = (4(2**(1/4)-1))**2
        split = power_split(2, 1, INTERMEDIATE)
        expected = (4.0 * (2.0 ** 0.25 - 1.0)) ** 2
        assert split.ring_score_floor == pytest.approx(expected, rel=1e-14)
        assert split.ring_score_floor == pytest.approx(0.5727893178824464, rel=1e-12)

    @pytest.mark.parametrize("dim,base", [(1, 2), (2, 2)])
    def test_per_ring_lower_bound(self, dim, base):
        params = INTERMEDIATE
        split = power_split(base, dim, params)
        floor = split.ring_score_floor
        for i in range(-3, 4):
            fam = split.ring_family(i)
            score = rm_score(split.function, fam, params, check=False)
            assert score >= floor * (1.0 - 1e-7)

    def test_one_dim_ring_score_equals_floor(self):
        # n=1, N=2: single ring cube and the annulus equals the ring exactly
        split = power_split(2, 1, INTERMEDIATE)
        for i in (-2, 0, 3):
            score = rm_score(split.function, split.ring_family(i), INTERMEDIATE, check=False)
            assert score == pytest.approx(split.ring_score_floor, rel=1e-10)

    def test_theta_norm_on_ring_at_the_critical_exponent(self):
        # theta * s = -n exactly at this triple, so each ring (0, 2h]^2 \ (0, h]^2 carries
        # the scale-free integral (pi/2) ln 2 of the annulus between radii 1 and 2
        split = power_split(2, 2, INTERMEDIATE)
        theta = INTERMEDIATE.theta
        assert split.radial_exponent * theta == -2.0
        want = shell_integral_radial(-2.0, 1.0, 2.0, 2)
        for i in (-3, 0, 2):
            got = sum(lq_norm_on_cube(split.function, cube, theta) ** theta for cube in split.ring_family(i))
            assert got == pytest.approx(want, rel=1e-12)
        quad = pytest.importorskip("scipy.integrate").quad
        # integral over [1, 2]^2 of 1/(x^2 + y^2) = int_1^2 (atan(2/x) - atan(1/x)) / x dx
        ref, _ = quad(lambda x: (math.atan(2.0 / x) - math.atan(1.0 / x)) / x, 1.0, 2.0, epsabs=0.0, epsrel=1e-13)
        f = RadialPower.from_params(INTERMEDIATE, 2)
        got = lebesgue_norm(f, Domain.of_cube(Cube((1.0, 1.0), 1.0)), theta).value
        assert got == pytest.approx(ref ** (1.0 / theta), rel=1e-12)

    def test_inner_part_critical_integrability_switch(self):
        # integral of |f|**t over the unit corner block: finite iff t' < theta
        split = power_split(2, 1, INTERMEDIATE)
        theta = INTERMEDIATE.theta

        def ring_partial(theta_prime, rings):
            t = split.radial_exponent * theta_prime
            total = 0.0
            for i in range(-rings, 0):
                for cube in split.ring_family(i):
                    total += lq_norm_on_cube(split.function, cube, theta_prime) ** theta_prime
            return total

        below = [ring_partial(0.8 * theta, m) for m in (20, 40, 80)]
        above = [ring_partial(1.2 * theta, m) for m in (20, 40, 80)]
        assert below[2] / below[1] < 1.05
        assert above[2] / above[1] > 1.5

    def test_degenerate_exponent_rejected(self):
        # q*n*(alpha - 1/p) + n <= 0 has no convergent ring integral
        bad = ParamSpace(1.2, 1.0, 1.0 / 1.2 - 1.0 / 1.0 + 0.01)
        with pytest.raises(ValueError):
            power_split(2, 2, ParamSpace(4.0, 3.99, -10.0))


class TestShellThresholds:
    def test_normalizer_matches_zeta(self):
        zeta = pytest.importorskip("scipy.special").zeta
        sc = shell_thresholds(1.0, 0.25, 5)
        assert sc.exponent == pytest.approx(-4.0 / 3.0, rel=1e-15)
        assert sc.normalizer == pytest.approx(float(zeta(4.0 / 3.0)), rel=1e-10)

    def test_first_threshold_closed_form(self):
        sc = shell_thresholds(1.0, 0.25, 1)
        z = sc.normalizer
        assert sc.thresholds[0] == pytest.approx((z - 1.0) / (2.0 * z), abs=1e-11)

    def test_thresholds_in_closed_form(self):
        sc = shell_thresholds(1.0, 0.25, 200)
        z = sc.normalizer
        for k, t in enumerate(sc.thresholds, start=1):
            assert t == power_series_tail(sc.exponent, k, rel_scale=z) / (2.0 * z)

    def test_strictly_decreasing(self):
        sc = shell_thresholds(1.0, 0.25, 60)
        ts = (1.0,) + sc.thresholds
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_mass_law(self):
        sc = shell_thresholds(1.0, 0.25, 50)
        for k in range(2, 51):
            assert sc.shell_mass(k) == pytest.approx(sc.power_law_shell_mass(k), abs=1e-10)
        assert sc.shell_mass(1) == pytest.approx(
            sc.first_shell_extra + sc.power_law_shell_mass(1), abs=1e-10
        )

    def test_divergent_normalizer_rejected(self):
        with pytest.raises(ValueError):
            shell_thresholds(1.0, 1.5, 3)
