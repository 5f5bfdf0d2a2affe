import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import funcrep, norms
from rmlab.estimate import LOWER_BOUND
from rmlab.funcrep import ParamSpace, RadialPower, StepFunction, grid_cell_values, lebesgue_norm, lq_norm_on_cube
from rmlab.geometry import Cube, CubeFamily, Domain, dyadic_children
from rmlab.norms import (
    DEFAULT_OFFSETS,
    MAX_DP_CELLS,
    MAX_INTERVAL_CELLS,
    _coarsen,
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
    """The reshape-and-reduce coarsening the strided kernel replaced, grid by
    grid along axis 0: the test reference."""
    grids, half, n = a.shape[0], a.shape[1] // 2, a.ndim - 1
    return combine.reduce(a.reshape((grids,) + (half, 2) * n), axis=tuple(range(2, 2 * n + 1, 2)))


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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        kind=st.sampled_from(("step-1d", "step-2d", "radial-2d")),
        sup=st.booleans(),
    )
    def test_equals_family_order_sum_of_cube_norms(self, seed, kind, sup):
        rng = np.random.default_rng(seed)
        params = random_intermediate_params(rng)
        if sup:
            params = ParamSpace(params.p, math.inf, params.alpha)
        if kind == "radial-2d":
            f = RadialPower.from_params(params, 2)
            # the sup of a negative power is infinite on a cube at the origin
            root = Cube((0.125, 0.125) if sup else (0.0, 0.0), 1.0)
        else:
            dim = 1 if kind == "step-1d" else 2
            f = random_step_function(rng, dim)
            root = Cube((-4.0,) * dim, 8.0)
        family = random_dyadic_partition(rng, root, max_depth=3)
        e = params.score_exponent
        expected = 0.0
        for c in family:
            norm_q = lq_norm_on_cube(f, c, params.q)
            if norm_q > 0.0:
                expected += c.volume ** e * norm_q ** params.p
        assert rm_score(f, family, params, check=False) == expected

    def test_large_family_masses_stay_in_bounded_memory(self):
        # 4096 cells against the 8191 pieces of the depth-12 tree: 3.4e7
        # (cube, piece) pairs, about 1.3 GB if their overlaps were formed at
        # once rather than one cube at a time
        tree = build_tree(1, 12, ParamSpace(2.0, 1.0, -0.25))
        f = tree_function(tree)
        root = tree.domain
        w = root.side / 4096
        family = [Cube((root.lower[0] + w * i,), w) for i in range(4096)]
        tracemalloc.start()
        try:
            # score exponent 0 at (1, 1, 0): the score is the integral of f
            score = rm_score(f, family, ParamSpace(1.0, 1.0, 0.0), check=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert score == pytest.approx(math.fsum(h * c.volume for c, h in f.pieces), rel=1e-12)


def unravel_step_function(rng, dim, max_pieces=12, span=8.0):
    """random_step_function with np.unravel_index lattice indices: the test reference."""
    count = int(rng.integers(1, max_pieces + 1))
    cells = rng.choice(16 ** dim if dim == 1 else 6 ** dim, size=count, replace=False)
    pieces = []
    base = 16 if dim == 1 else 6
    cell_w = span / base
    for c in cells:
        idx = np.unravel_index(int(c), (base,) * dim)
        side = cell_w * float(rng.uniform(0.2, 0.95))
        lo = tuple(
            -0.5 * span + idx[j] * cell_w + float(rng.uniform(0.0, cell_w - side))
            for j in range(dim)
        )
        pieces.append((Cube(lo, side), float(rng.uniform(0.05, 4.0))))
    return StepFunction(tuple(pieces))


class TestScoreOverflow:
    """A score past the double range raises ValueError: an infinite lower
    bound would not re-score from its certificate."""

    def test_tree_heights_to_the_twentieth_power(self):
        # level-12 heights are 2**54 = 1.8e16, and 1.8e16**20 overflows
        tree = build_tree(1, 12, ParamSpace(2.0, 1.0, -0.25))
        f, params = tree_function(tree), ParamSpace(30.0, 20.0, -0.01)
        with pytest.raises(ValueError, match="overflows a double"):
            rm_norm_dyadic(f, tree.domain, 12, params, offsets=(0.0,))
        with pytest.raises(ValueError, match="overflows a double"):
            rm_norm_intervals_1d(f, tree.domain, 64, params)
        with pytest.raises(ValueError, match="overflows a double"):
            rm_score(f, [c for c, _ in f.pieces], params)

    def test_finite_masses_with_an_overflowing_score(self):
        # the mass 1e200 is finite; its square is not
        f = StepFunction(((UNIT, 1e200),))
        with pytest.raises(ValueError, match="overflows a double"):
            rm_score(f, [UNIT], RIESZ2)
        with pytest.raises(ValueError, match="overflows a double"):
            rm_norm_dyadic(f, UNIT, 3, RIESZ2)
        with pytest.raises(ValueError, match="overflows a double"):
            rm_norm_intervals_1d(f, UNIT, 8, RIESZ2)

    def test_unbounded_sup_stays_infinite(self):
        # |x|**-1 is unbounded on the cell at the origin: an infinite score, not an overflow
        params = ParamSpace(2.0, math.inf, -0.3)
        f = RadialPower(-1.0, 2)
        est = rm_norm_dyadic(f, Cube((0.0, 0.0), 1.0), 2, params, offsets=(0.0,))
        assert est.value == math.inf
        assert rm_score(f, est.certificate, params) == math.inf


class TestRandomStepFunction:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 23, 2024])
    def test_same_pieces_and_draws_as_unravel_index(self, dim, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert random_step_function(rng, dim).pieces == unravel_step_function(ref, dim).pieces
        assert rng.random() == ref.random()


class TestCoarsen:
    @pytest.mark.parametrize("combine", [np.add, np.maximum], ids=["add", "maximum"])
    @pytest.mark.parametrize("dim, cells", [(1, 2), (1, 6), (1, 512), (2, 2), (2, 6), (2, 512)])
    def test_bit_identical_to_reduce_in_one_and_two_dims(self, dim, cells, combine):
        a = 10.0 ** np.random.default_rng(cells * dim).uniform(-3.0, 3.0, (3,) + (cells,) * dim)
        assert np.array_equal(_coarsen(a, combine), _coarsen_by_reduce(a, combine))

    @pytest.mark.parametrize("cells", [2, 4, 16, 64])
    def test_three_dims(self, cells):
        a = 10.0 ** np.random.default_rng(cells).uniform(-3.0, 3.0, (3,) + (cells,) * 3)
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
        monkeypatch.setattr(
            norms, "grid_cell_values", lambda f, o, *a: grids.extend(map(tuple, o.tolist())) or grid_cell_values(f, o, *a)
        )
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


def grid_by_grid(f, root, depth, params, offsets):
    """rm_norm_dyadic with every grid alone in its pass, as a one-row origins
    array, keeping the first maximum: the reference for the batched passes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_PASS_CELLS", 0)
        return rm_norm_dyadic(f, root, depth, params, offsets=offsets)


def counting(mp, name, count):
    """Patch funcrep.<name> under both its names, funcrep's (which
    grid_cell_values calls) and norms's, to call `count` with its
    arguments first."""
    wrapped = getattr(funcrep, name)
    for module in (funcrep, norms):
        mp.setattr(module, name, lambda *a: count(*a) or wrapped(*a))


def with_pass_sizes(f, root, depth, params, offsets):
    """rm_norm_dyadic on a step function and the number of grids in each of
    its passes, counted at _step_cell_masses, which every pass calls: from
    grid_cell_values without a tail, and directly with one."""
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        counting(mp, "_step_cell_masses", lambda f, pairs, shape, q: sizes.append(shape[0]))
        est = rm_norm_dyadic(f, root, depth, params, offsets=offsets)
    return est, sizes


def outcome(est):
    return est.value, est.trace, est.certificate


class TestBatchedGrids:
    """The grids of one pass share one array pass; the outcome is that of one grid at a time."""

    # deepest DP per (function, dim): one or several grids per pass
    DEPTHS = {("step", 1): 20, ("step", 2): 8, ("step", 3): 5, ("radial", 1): 12, ("radial", 2): 4}

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        kind=st.sampled_from(sorted(DEPTHS)),
        sup=st.booleans(),
        offsets=st.lists(st.sampled_from((0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0)), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_matches_one_grid_per_pass(self, seed, kind, sup, offsets, data):
        function, dim = kind
        depth = data.draw(st.integers(0, self.DEPTHS[kind]), label="depth")
        rng = np.random.default_rng(seed)
        params = random_intermediate_params(rng)
        if sup:
            params = ParamSpace(params.p, math.inf, params.alpha)
        if function == "radial":
            f = RadialPower.from_params(params, dim)
            # the sup of a negative power is infinite on a cube at the origin
            root = Cube((0.125 if sup else 0.0,) * dim, 1.0)
        else:
            f = random_step_function(rng, dim)
            root = Cube((-4.0,) * dim, 8.0)
        est = rm_norm_dyadic(f, root, depth, params, offsets=offsets)
        assert outcome(est) == outcome(grid_by_grid(f, root, depth, params, offsets))

    def test_uneven_passes_in_three_dims(self):
        rng = np.random.default_rng(5)
        f = random_step_function(rng, 3)
        params = random_intermediate_params(rng)
        root = Cube((-4.0,) * 3, 8.0)
        est, sizes = with_pass_sizes(f, root, 4, params, None)
        assert sizes == [16, 11]
        assert outcome(est) == outcome(grid_by_grid(f, root, 4, params, None))

    # at depth 5 the top is level 4, and the passes are sized by the top level
    @pytest.mark.parametrize("depth, sizes", [(4, [16, 11]), (5, [16, 11])])
    def test_tie_across_a_pass_boundary_goes_to_the_first_grid(self, depth, sizes):
        # f = 1 on [0.25, 1.5]**3 fills the eight grids whose offsets are all
        # 0.25 or 0.5, and keeping their root cube scores 1 in each, so they
        # tie exactly; grid 13, the first of them, wins over grid 14 and the
        # grids of the later passes
        f = StepFunction(((Cube((0.25,) * 3, 1.25), 1.0),))
        root = Cube((0.0,) * 3, 1.0)
        params = ParamSpace(2.0, 1.0, -0.25)
        est, got = with_pass_sizes(f, root, depth, params, (0.0, 0.25, 0.5))
        assert got == sizes
        assert est.value == 1.0
        assert est.certificate == CubeFamily((Cube((0.25,) * 3, 1.0),))
        assert outcome(est) == outcome(grid_by_grid(f, root, depth, params, (0.0, 0.25, 0.5)))

    def test_deep_line_runs_its_default_grids_in_one_pass(self):
        # the top is level 12 of 18, so the 3 grids hold 3 * 2**12 dense cells
        rng = np.random.default_rng(7)
        f = random_step_function(rng, 1)
        params = random_intermediate_params(rng)
        root = Cube((-4.0,), 8.0)
        est, sizes = with_pass_sizes(f, root, 18, params, None)
        assert sizes == [3]
        assert outcome(est) == outcome(grid_by_grid(f, root, 18, params, None))

    @pytest.mark.parametrize("dim, depth, passes", [(1, 18, 1), (1, 6, 1), (3, 4, 2), (3, 5, 2)])
    def test_pairs_are_scattered_once_per_pass(self, dim, depth, passes):
        rng = np.random.default_rng(dim + depth)
        f = random_step_function(rng, dim)
        params = random_intermediate_params(rng)
        root = Cube((-4.0,) * dim, 8.0)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            counting(mp, "_step_cell_pairs", lambda f, origins, width, cells: calls.append(len(origins)))
            est = rm_norm_dyadic(f, root, depth, params, offsets=(0.0, 0.25, 0.5))
        assert len(calls) == passes
        assert sum(calls) == 3 ** dim
        assert outcome(est) == outcome(grid_by_grid(f, root, depth, params, (0.0, 0.25, 0.5)))


def tail_piece(rng, kind, dim, pieces):
    """One support cube of a given kind, in or near the root [-4, 4]**dim."""
    if kind == "aligned":  # on the faces of the dyadic cells of the root and its 0.5 shift
        level = int(rng.integers(0, 4))
        w = 8.0 / 2 ** level
        return Cube(tuple(-4.0 + w * int(rng.integers(0, 2 ** level)) for _ in range(dim)), w)
    if kind == "sub-ulp":  # far below the ulp of its position
        return Cube(tuple(rng.uniform(-4.0, 4.0, dim).tolist()), 1e-20)
    if kind == "touching" and pieces:  # shares a face with the last piece
        c = pieces[-1][0]
        return Cube((c.lower[0] + c.side,) + c.lower[1:], float(rng.uniform(0.1, 2.0)))
    if kind == "overlapping" and pieces:  # overlaps an earlier piece, which adds to it
        c = pieces[int(rng.integers(len(pieces)))][0]
        return Cube(tuple(x + 0.25 * c.side for x in c.lower), c.side)
    side = float(rng.uniform(0.05, 4.0))
    return Cube(tuple(rng.uniform(-4.5, 4.5 - side, dim).tolist()), side)


def with_top(bits, f, root, depth, params, offsets):
    """rm_norm_dyadic with its dense levels stopping at 2**bits cells per grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_TOP_BITS", bits)
        return rm_norm_dyadic(f, root, depth, params, offsets=offsets)


class TestRefinedTail:
    """Below the dense top only the cells a piece face cuts are refined."""

    KINDS = ("random", "aligned", "touching", "sub-ulp", "overlapping")
    DEPTHS = {1: 6, 2: 4, 3: 3}

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        dim=st.sampled_from((1, 2, 3)),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        p=st.sampled_from((1.5, 2.0, 3.0)),
        q=st.sampled_from((1.0, 2.0, math.inf)),
        alpha=st.sampled_from((-0.3, -0.1, 0.0, 0.1, 0.25)),
        offsets=st.lists(st.sampled_from((0.0, 0.25, 0.5)), min_size=1, max_size=2, unique=True),
        data=st.data(),
    )
    def test_matches_recursive_oracle(self, seed, dim, kinds, p, q, alpha, offsets, data):
        rng = np.random.default_rng(seed)
        pieces = []
        for kind in kinds:
            pieces.append((tail_piece(rng, kind, dim, pieces), float(rng.choice((0.0, 0.5, 1.0, 3.0)))))
        f = StepFunction(tuple(pieces))
        depth = data.draw(st.integers(1, self.DEPTHS[dim]), label="depth")
        top = data.draw(st.integers(0, min(2, depth - 1)), label="top")
        root = Cube((-4.0,) * dim, 8.0)
        params = ParamSpace(p, q, alpha)
        est = with_top(top * dim, f, root, depth, params, offsets)
        want = oracle_trace(f, root, depth, params, offsets)
        assert [v for _, v in est.trace] == pytest.approx(want, rel=1e-12)
        assert rm_score(f, est.certificate, params) ** (1.0 / p) == pytest.approx(est.value, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.25])
    def test_pure_cells_in_closed_form(self, alpha):
        # f = 1 on [0, 1]: every cell of the aligned grid is pure or empty; a
        # positive alpha splits the whole unit cube down to the horizon
        f = StepFunction(((UNIT, 1.0),))
        root = Cube((0.0,), 2.0)
        params = ParamSpace(2.0, 1.0, alpha)
        est = with_top(0, f, root, 6, params, (0.0,))
        dense = with_top(24, f, root, 6, params, (0.0,))
        assert [v for _, v in est.trace] == pytest.approx([v for _, v in dense.trace], rel=1e-12)
        assert len(est.certificate) == (32 if alpha > 0.0 else 1)
        assert rm_score(f, est.certificate, params) ** 0.5 == pytest.approx(est.value, rel=1e-12)

    def test_deep_tree_matches_the_dense_levels(self):
        tree = build_tree(1, 12, ParamSpace(2.0, 1.0, -0.25))
        f = tree_function(tree)
        params = ParamSpace(2.5, 1.5, -0.1)
        est = rm_norm_dyadic(f, tree.domain, 18, params)
        dense = with_top(24, f, tree.domain, 18, params, None)
        assert est.value == pytest.approx(dense.value, rel=1e-11)
        assert [v for _, v in est.trace] == pytest.approx([v for _, v in dense.trace], rel=1e-11)
        assert rm_score(f, est.certificate, params) ** (1.0 / 2.5) == pytest.approx(est.value, rel=1e-12)


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

    def test_sub_ulp_supports_are_skipped_as_enclosures(self):
        # the deepest supports of the depth-10 tree lie below the ulp of
        # their position, so the enclosure of such a run has side 0
        f = tree_function(build_tree(1, 10, ParamSpace(2.0, 1.0, -0.25)))
        est = morrey_norm_estimate(f, Domain.whole_space(1), 1.0, -0.5, dyadic_depth=8)
        (cube,) = est.certificate
        assert est.value > 0.0
        assert est.value == cube.volume ** -0.5 * lq_norm_on_cube(f, cube, 1.0)

    def test_infinite_p_routes_to_single_cube_branch(self):
        ones = StepFunction(((UNIT, 1.0),))
        est = rm_norm_estimate(ones, ParamSpace(math.inf, 1.0, -0.5), UNIT, 4)
        assert est.value == pytest.approx(1.0, rel=1e-12)
