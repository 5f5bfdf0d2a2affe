import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import norms
from rmlab.estimate import LOWER_BOUND
from rmlab.funcrep import ParamSpace, RadialPower, StepFunction, lebesgue_norm, lq_norm_on_cube
from rmlab.geometry import Cube, Domain, dyadic_children
from rmlab.norms import (
    DEFAULT_OFFSETS,
    MAX_DP_CELLS,
    MAX_INTERVAL_CELLS,
    _coarsen,
    _dp_grid,
    morrey_norm_estimate,
    riesz_norm,
    rm_norm_dyadic,
    rm_norm_estimate,
    rm_norm_intervals_1d,
    rm_score,
)
from rmlab.constructions import build_tree, tree_function
from rmlab.verification import (
    random_dyadic_partition,
    random_dyadic_step,
    random_intermediate_params,
    random_step_function,
)

RIESZ2 = ParamSpace(2.0, 1.0, 0.0)
UNIT = Cube((0.0,), 1.0)


def _dp_generic(f, cube, depth, params):
    """Recursive keep-or-split DP integrating every cell directly: the test oracle."""
    norm_q = lq_norm_on_cube(f, cube, params.q)
    score = cube.volume ** params.score_exponent * norm_q ** params.p if norm_q > 0.0 else 0.0
    if depth == 0:
        return score
    return max(score, sum(_dp_generic(f, child, depth - 1, params) for child in dyadic_children(cube)))


def oracle_trace(f, root, depth, params, offsets):
    """Running best p-th-root score per horizon 0..depth, maximised over the shifted grids."""
    best = [0.0] * (depth + 1)
    for vec in product(offsets, repeat=root.dim):
        shifted = root.translate(tuple(o * root.side for o in vec))
        for d in range(depth + 1):
            best[d] = max(best[d], _dp_generic(f, shifted, d, params))
    return [v ** (1.0 / params.p) for v in np.maximum.accumulate(best)]


def bruteforce_1d(f, root, m, params):
    """Best score over all 2**(m-1) compositions of an m-cell grid into
    intervals, each interval integrated directly: the test oracle."""
    w = root.side / m
    edges = root.lower[0] + w * np.arange(m + 1, dtype=float)
    e = params.score_exponent
    score = {}
    for i in range(m):
        for j in range(i + 1, m + 1):
            nq = lq_norm_on_cube(f, Cube((edges[i],), edges[j] - edges[i]), params.q)
            score[i, j] = (edges[j] - edges[i]) ** e * nq ** params.p if nq > 0.0 else 0.0
    best = 0.0
    for mask in range(1 << (m - 1)):
        cuts = [0, *(b + 1 for b in range(m - 1) if mask >> b & 1), m]
        best = max(best, sum(score[a, b] for a, b in zip(cuts, cuts[1:])))
    return best ** (1.0 / params.p)


def _coarsen_by_reduce(a, combine):
    """The reshape-and-reduce coarsening the strided kernel replaced: the test reference."""
    half = a.shape[0] // 2
    return combine.reduce(a.reshape((half, 2) * a.ndim), axis=tuple(range(1, 2 * a.ndim, 2)))


def two_step():
    return StepFunction(((Cube((0.0,), 0.5), 2.0), (Cube((0.5,), 0.5), 1.0)))


class TestRmScore:
    def test_examples(self):
        ones = StepFunction(((UNIT, 1.0),))
        assert rm_score(ones, [UNIT], RIESZ2) == pytest.approx(1.0, rel=1e-14)
        f = two_step()
        assert rm_score(f, [UNIT], RIESZ2) == pytest.approx(2.25, rel=1e-14)
        halves = [Cube((0.0,), 0.5), Cube((0.5,), 0.5)]
        assert rm_score(f, halves, RIESZ2) == pytest.approx(2.5, rel=1e-14)

    def test_additive_and_monotone(self):
        f = two_step()
        quarters = [Cube((0.25 * j,), 0.25) for j in range(4)]
        partial = rm_score(f, quarters[:2], RIESZ2)
        assert rm_score(f, quarters, RIESZ2) >= partial
        total = sum(rm_score(f, [c], RIESZ2) for c in quarters)
        assert rm_score(f, quarters, RIESZ2) == pytest.approx(total, rel=1e-12)

    def test_rejects_overlapping_family(self):
        f = two_step()
        with pytest.raises(ValueError):
            rm_score(f, [UNIT, Cube((0.5,), 1.0)], RIESZ2)

    def test_rejects_out_of_domain(self):
        f = two_step()
        with pytest.raises(ValueError):
            rm_score(f, [Cube((0.5,), 1.0)], RIESZ2, domain=Domain.of_cube(UNIT))

    def test_q_monotone_on_families(self):
        # fixed p and alpha: larger inner exponent gives larger family scores
        rng = np.random.default_rng(19)
        for _ in range(40):
            p = float(rng.uniform(2.0, 4.0))
            q = float(rng.uniform(1.0, p - 0.5))
            beta = float(rng.uniform(q + 0.01, p - 0.01))
            alpha = float((1.0 / p - 1.0 / q) * rng.uniform(0.05, 0.95))
            f = random_dyadic_step(rng, UNIT, 3)
            cells = [Cube((0.25 * j,), 0.25) for j in range(4)]
            low = rm_score(f, cells, ParamSpace(p, q, alpha), check=False)
            high = rm_score(f, cells, ParamSpace(p, beta, alpha), check=False)
            assert low <= high * (1.0 + 1e-12)


class TestCoarsen:
    @pytest.mark.parametrize("combine", [np.add, np.maximum], ids=["add", "maximum"])
    @pytest.mark.parametrize("dim, cells", [(1, 2), (1, 6), (1, 512), (2, 2), (2, 6), (2, 512)])
    def test_bit_identical_to_reduce_in_one_and_two_dims(self, dim, cells, combine):
        a = 10.0 ** np.random.default_rng(cells * dim).uniform(-3.0, 3.0, (cells,) * dim)
        assert np.array_equal(_coarsen(a, combine), _coarsen_by_reduce(a, combine))

    @pytest.mark.parametrize("cells", [2, 4, 16, 64])
    def test_three_dims(self, cells):
        a = 10.0 ** np.random.default_rng(cells).uniform(-3.0, 3.0, (cells,) * 3)
        assert np.array_equal(_coarsen(a, np.maximum), _coarsen_by_reduce(a, np.maximum))
        want = _coarsen_by_reduce(a, np.add)
        assert np.max(np.abs(_coarsen(a, np.add) - want) / want) <= 4 * np.finfo(float).eps


class TestDyadicOptimizer:
    def test_two_piece_example(self):
        est = rm_norm_dyadic(two_step(), UNIT, 3, RIESZ2, offsets=(0.0,))
        assert est.value == pytest.approx(math.sqrt(2.5), rel=1e-12)
        assert est.kind == LOWER_BOUND
        got = sorted((c.lower[0], c.side) for c in est.certificate)
        assert got == [(0.0, 0.5), (0.5, 0.5)]

    def test_constant_refinement_neutral(self):
        ones = StepFunction(((UNIT, 1.0),))
        est = rm_norm_dyadic(ones, UNIT, 5, RIESZ2, offsets=(0.0,))
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert [tuple(c.lower) for c in est.certificate] == [(0.0,)]

    def test_singleton_regime_certificate(self):
        params = ParamSpace(2.0, 1.0, -0.6)
        f = two_step()
        est = rm_norm_dyadic(f, UNIT, 5, params, offsets=(0.0,))
        assert [tuple(c.lower) for c in est.certificate] == [(0.0,)]
        assert est.value ** 2 == pytest.approx(rm_score(f, [UNIT], params), rel=1e-12)

    def test_monotone_in_depth_and_offsets(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            f = random_dyadic_step(rng, UNIT, 3)
            params = random_intermediate_params(rng)
            vals = [rm_norm_dyadic(f, UNIT, d, params, offsets=(0.0,)).value for d in range(5)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            wider = rm_norm_dyadic(f, UNIT, 4, params, offsets=(0.0, 1 / 3, 2 / 3)).value
            assert wider >= vals[4] - 1e-12

    def test_certificate_rescoring(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            f = random_dyadic_step(rng, UNIT, 4)
            params = random_intermediate_params(rng)
            est = rm_norm_dyadic(f, UNIT, 4, params)
            rescored = rm_score(f, est.certificate, params) ** (1.0 / params.p)
            assert rescored == pytest.approx(est.value, rel=1e-10)

    def test_trace_nondecreasing(self):
        rng = np.random.default_rng(31)
        f = random_dyadic_step(rng, UNIT, 4)
        est = rm_norm_dyadic(f, UNIT, 6, random_intermediate_params(rng))
        values = [v for _, v in est.trace]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(37)
        f = random_dyadic_step(rng, UNIT, 2)
        params = random_intermediate_params(rng)
        # two-dimensional product function on the diagonal blocks
        f2 = StepFunction(tuple((Cube((c.lower[0], c.lower[0]), c.side), h) for c, h in f.pieces))
        square = Cube((0.0, 0.0), 1.0)
        jittered = random_step_function(rng, 1)
        line = Cube((-4.0,), 8.0)
        sup = ParamSpace(2.0, math.inf, -0.3)
        radial = ParamSpace(2.0, 1.0, -0.1)
        cases = [
            (f, UNIT, 3, params, (0.0,), 1e-12),
            (jittered, line, 3, params, None, 1e-12),
            (f2, square, 3, params, (0.0, 0.5), 1e-12),
            (f2, square, 2, sup, None, 1e-12),
            (jittered, line, 3, sup, (0.0, 0.25), 1e-12),
            (RadialPower.from_params(radial, 1), UNIT, 3, radial, None, 1e-8),
            (RadialPower.from_params(radial, 2), square, 2, radial, (0.0, 0.5), 1e-8),
        ]
        for g, root, depth, prm, offsets, rel in cases:
            est = rm_norm_dyadic(g, root, depth, prm, offsets=offsets)
            want = oracle_trace(g, root, depth, prm, DEFAULT_OFFSETS if offsets is None else offsets)
            assert [d for d, _ in est.trace] == [float(d) for d in range(depth + 1)]
            assert [v for _, v in est.trace] == pytest.approx(want, rel=rel)
            assert est.value > 0.0
            if not math.isinf(prm.q):
                rescored = rm_score(g, est.certificate, prm) ** (1.0 / prm.p)
                assert rescored == pytest.approx(est.value, rel=rel)

    def test_near_critical_radial_power(self):
        # s_q + n = 0.024: the origin cell's mass is large but finite
        params = ParamSpace(2.0, 1.9, -0.02)
        f = RadialPower.from_params(params, 2)
        est = rm_norm_dyadic(f, Cube((0.0, 0.0), 1.0), 2, params, offsets=(0.0,))
        assert est.value > 0.0
        assert rm_score(f, est.certificate, params) == pytest.approx(est.value ** params.p, rel=1e-12)

    def test_radial_cell_just_off_the_origin(self):
        # the grid cell at index 3 has lower corner -0.3 + 3 * 0.1 = 5.55e-17, a rounding residue
        params = ParamSpace(2.0, 1.5, -0.1)
        f = RadialPower.from_params(params, 2)
        est = rm_norm_dyadic(f, Cube((-0.3, -0.3), 0.8), 3, params, offsets=(0.0,))
        assert est.value > 0.0
        assert rm_score(f, est.certificate, params) == pytest.approx(est.value ** params.p, rel=1e-12)

    def test_overlapping_pieces_value_rescores(self):
        # overlapping supports add up; the bound must still re-score from its certificate
        doubled = StepFunction(((UNIT, 1.0), (UNIT, 1.0)))
        est = rm_norm_dyadic(doubled, UNIT, 2, RIESZ2, offsets=(0.0,))
        assert est.value ** 2 == pytest.approx(4.0, rel=1e-12)
        assert est.value ** 2 == pytest.approx(rm_score(doubled, est.certificate, RIESZ2), rel=1e-12)

    def test_certificate_order_is_depth_first(self):
        f = random_dyadic_step(np.random.default_rng(67), UNIT, 3)
        est = rm_norm_dyadic(f, UNIT, 3, RIESZ2, offsets=(0.0,))
        lows = [c.lower[0] for c in est.certificate]
        assert len(lows) > 2
        assert lows == sorted(lows)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from((1, 2)), depth=st.integers(0, 3))
    def test_value_dominates_every_aligned_partition(self, seed, dim, depth):
        rng = np.random.default_rng(seed)
        root = Cube((-4.0,) * dim, 8.0)
        f = random_step_function(rng, dim)
        params = random_intermediate_params(rng)
        family = random_dyadic_partition(rng, root, max_depth=depth)
        est = rm_norm_dyadic(f, root, depth, params, offsets=(0.0,))
        assert est.value ** params.p >= rm_score(f, family, params) * (1.0 - 1e-12)

    def test_empty_offsets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rm_norm_dyadic(two_step(), UNIT, 2, RIESZ2, offsets=())

    def test_repeated_offsets_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(71)
        square = Cube((-4.0, -4.0), 8.0)
        f = random_step_function(rng, 2)
        params = random_intermediate_params(rng)
        once = rm_norm_dyadic(f, square, 3, params, offsets=(0.5, 0.0))
        grids = []
        monkeypatch.setattr(norms, "_dp_grid", lambda *a: grids.append(a[1]) or _dp_grid(*a))
        again = rm_norm_dyadic(f, square, 3, params, offsets=(0.5, 0.0, 0.5, 0.0, 0.0))
        assert (again.value, again.certificate, again.trace) == (once.value, once.certificate, once.trace)
        assert grids == [(0.0, 0.0), (0.0, -4.0), (-4.0, 0.0), (-4.0, -4.0)]

    def test_depth_cap(self):
        assert MAX_DP_CELLS == 1 << 24
        with pytest.raises(ValueError):
            rm_norm_dyadic(two_step(), UNIT, 25, RIESZ2)
        ones4 = StepFunction(((Cube((0.0,) * 4, 1.0), 1.0),))
        with pytest.raises(ValueError):
            rm_norm_dyadic(ones4, Cube((0.0,) * 4, 1.0), 7, RIESZ2)


class TestBruteForce:
    """The interval DP against the composition enumeration and the dyadic DP."""

    @pytest.mark.parametrize("kind", ["dyadic", "random"])
    def test_equals_enumeration_oracle(self, kind):
        rng = np.random.default_rng(73 if kind == "dyadic" else 79)
        root = UNIT if kind == "dyadic" else Cube((-4.0,), 8.0)
        for m in range(1, 15):
            f = random_dyadic_step(rng, root, 3) if kind == "dyadic" else random_step_function(rng, 1)
            for params in (random_intermediate_params(rng), ParamSpace(2.0, math.inf, -0.3)):
                est = rm_norm_intervals_1d(f, root, m, params)
                assert est.value == pytest.approx(bruteforce_1d(f, root, m, params), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 7), sup=st.booleans())
    def test_dominates_aligned_dyadic(self, seed, k, sup):
        rng = np.random.default_rng(seed)
        root = Cube((-4.0,), 8.0)
        f = random_step_function(rng, 1)
        params = ParamSpace(2.0, math.inf, -0.3) if sup else random_intermediate_params(rng)
        dp = rm_norm_dyadic(f, root, k, params, offsets=(0.0,))
        assert rm_norm_intervals_1d(f, root, 1 << k, params).value >= dp.value * (1.0 - 1e-12)

    def test_agrees_with_optimizer_on_shared_cells(self):
        rng = np.random.default_rng(41)
        for k, cells in ((2, 4), (3, 8)):
            for _ in range(10):
                f = random_dyadic_step(rng, UNIT, k)
                for p in (1.5, 2.0, 3.0):
                    params = ParamSpace(p, 1.0, 0.0)
                    iv = rm_norm_intervals_1d(f, UNIT, cells, params)
                    dp = rm_norm_dyadic(f, UNIT, k, params, offsets=(0.0,))
                    assert iv.value == pytest.approx(dp.value, abs=1e-12, rel=1e-12)

    def test_constant_function_composition_invariant(self):
        ones = StepFunction(((UNIT, 1.0),))
        est = rm_norm_intervals_1d(ones, UNIT, 6, RIESZ2)
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_monotone_under_grid_refinement(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            f = random_dyadic_step(rng, UNIT, 3)
            params = random_intermediate_params(rng)
            for m in (2, 3, 5, 7):
                coarse = rm_norm_intervals_1d(f, UNIT, m, params).value
                fine = rm_norm_intervals_1d(f, UNIT, 2 * m, params).value
                assert fine >= coarse - 1e-12

    def test_optimizer_never_exceeds_oracle_on_aligned_grids(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            k = int(rng.integers(2, 4))
            f = random_dyadic_step(rng, UNIT, k)
            params = random_intermediate_params(rng)
            iv = rm_norm_intervals_1d(f, UNIT, 1 << k, params)
            dp = rm_norm_dyadic(f, UNIT, k, params, offsets=(0.0,))
            assert dp.value <= iv.value * (1.0 + 1e-12)

    def test_certificate_rescoring(self):
        rng = np.random.default_rng(53)
        f = random_dyadic_step(rng, UNIT, 3)
        params = random_intermediate_params(rng)
        est = rm_norm_intervals_1d(f, UNIT, 9, params)
        rescored = rm_score(f, est.certificate, params) ** (1.0 / params.p)
        assert rescored == pytest.approx(est.value, rel=1e-10)
        root = Cube((-4.0,), 8.0)
        for m in (5, 64, 333, 1024):
            f = random_step_function(rng, 1)
            for params in (random_intermediate_params(rng), ParamSpace(2.0, math.inf, -0.3)):
                est = rm_norm_intervals_1d(f, root, m, params)
                assert est.value > 0.0
                lows = [c.lower[0] for c in est.certificate]
                assert lows == sorted(lows)
                assert rm_score(f, est.certificate, params) == pytest.approx(est.value ** params.p, rel=1e-12)

    def test_adjacent_certificate_intervals_share_edges(self):
        # many cuts near 0 on a grid whose edges carry the rounding of lo = -4.48...:
        # sides taken as w * (j - i) instead of edge differences overlap by ~2 ulps of lo
        heights = np.random.default_rng(1).uniform(0.5, 3.0, 32)
        f = StepFunction(tuple((Cube((-1.0 + 0.0625 * k,), 0.0625), float(h)) for k, h in enumerate(heights)))
        root = Cube((-4.483925383633984,), 9.873081152386249)
        for m in (225, 1000):
            est = rm_norm_intervals_1d(f, root, m, RIESZ2)
            assert len(est.certificate) > 40
            assert rm_score(f, est.certificate, RIESZ2) == pytest.approx(est.value ** 2, rel=1e-12)

    def test_prop_q_tree_beyond_dyadic(self):
        params = ParamSpace(2.0, 1.0, -0.25)
        tree = build_tree(1, 12, params)
        f = tree_function(tree)
        est = rm_norm_intervals_1d(f, tree.domain, 4096, params)
        assert est.value ** 2 == pytest.approx(4.62766, abs=1e-4)
        assert rm_score(f, est.certificate, params) == pytest.approx(est.value ** 2, rel=1e-12)
        assert est.value > rm_norm_dyadic(f, tree.domain, 12, params).value

    def test_grid_cap(self):
        assert MAX_INTERVAL_CELLS == 1 << 14
        for cells in (0, MAX_INTERVAL_CELLS + 1):
            with pytest.raises(ValueError):
                rm_norm_intervals_1d(two_step(), UNIT, cells, RIESZ2)


class TestRieszNorm:
    def test_two_piece(self):
        est = riesz_norm(two_step(), UNIT, 2.0, 3)
        assert est.value == pytest.approx(math.sqrt(2.5), rel=1e-12)

    def test_indicator(self):
        ones = StepFunction(((UNIT, 1.0),))
        assert riesz_norm(ones, UNIT, 2.0, 4).value == pytest.approx(1.0, rel=1e-12)

    def test_refinement_below_constancy_scale(self):
        f = two_step()
        v1 = riesz_norm(f, UNIT, 2.5, 1).value
        v4 = riesz_norm(f, UNIT, 2.5, 4).value
        assert v4 == pytest.approx(v1, rel=1e-12)

    def test_matches_lebesgue_norm(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            depth = int(rng.integers(1, 6))
            f = random_dyadic_step(rng, UNIT, depth)
            for p in (1.5, 2.0, 3.0):
                lp = lebesgue_norm(f, Domain.of_cube(UNIT), p).value
                rp = riesz_norm(f, UNIT, p, depth).value
                assert rp == pytest.approx(lp, rel=1e-9)


class TestMorreyEstimate:
    def test_flat_exponent_full_cube(self):
        ones = StepFunction(((UNIT, 1.0),))
        est = morrey_norm_estimate(ones, Domain.of_cube(UNIT), 1.0, -1.0)
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert [tuple(c.lower) for c in est.certificate] == [(0.0,)]

    def test_indicator_on_line(self):
        ones = StepFunction(((UNIT, 1.0),))
        est = morrey_norm_estimate(ones, Domain.whole_space(1), 1.0, -0.5)
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_height_scaling(self):
        rng = np.random.default_rng(61)
        f = random_dyadic_step(rng, UNIT, 3)
        doubled = StepFunction(tuple((c, 2.0 * h) for c, h in f.pieces))
        v1 = morrey_norm_estimate(f, Domain.whole_space(1), 2.0, -0.25).value
        v2 = morrey_norm_estimate(doubled, Domain.whole_space(1), 2.0, -0.25).value
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_infinite_p_routes_to_single_cube_branch(self):
        ones = StepFunction(((UNIT, 1.0),))
        est = rm_norm_estimate(ones, ParamSpace(math.inf, 1.0, -0.5), UNIT, 4)
        assert est.value == pytest.approx(1.0, rel=1e-12)
