import json
import math
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmlab import funcrep
from rmlab.constructions import build_tree, tree_function
from rmlab.estimate import EXACT
from rmlab.funcrep import (
    ParamSpace,
    RadialPower,
    StepFunction,
    _overlap_widths,
    _step_cell_pairs,
    lebesgue_norm,
    lq_norm_on_cube,
    positive_orthant_sphere_measure,
    weak_norm,
)
from rmlab.geometry import Cube, DimensionMismatchError, Domain
from rmlab.constructions import sparse_function
from rmlab.verification import random_step_function
from reference import evaluate, shell_integral_radial


def two_step():
    return StepFunction(((Cube((0.0,), 0.5), 2.0), (Cube((0.5,), 0.5), 1.0)))


def scatter_one_origin(pairs, low, sides, origin, width, cells, stride, offset):
    """_scatter_axis for one origin at a time, with np.clip: the test reference."""
    piece, flat, vol, cover = pairs
    lo = np.clip((low - origin) / width, -1.0, cells)
    hi = np.clip((low + sides - origin) / width, -1.0, cells)
    first = np.clip(np.floor(lo).astype(np.int64) - 1, 0, cells - 1)
    last = np.clip(np.floor(hi).astype(np.int64) + 1, 0, cells - 1)
    reps = (last - first + 1)[piece]
    run = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
    piece = np.repeat(piece, reps)
    cell = first[piece] + run
    w = _overlap_widths(low[piece], sides[piece], origin + width * cell, width)
    vol = np.repeat(vol, reps) * w
    cover = np.repeat(cover, reps) & (w == width)
    flat = np.repeat(flat, reps) + cell * stride + offset
    hit = vol > 0.0
    return piece[hit], flat[hit], vol[hit], cover[hit]


def scatter_per_origin(pairs, low, sides, at, width, cells, stride, per_origin):
    """The origins of one axis scattered one by one and joined origin-major."""
    parts = [scatter_one_origin(pairs, low, sides, o, width, cells, stride, k * per_origin)
             for k, o in enumerate(at.tolist())]
    return tuple(np.concatenate(x) for x in zip(*parts))


def pairs_per_origin(f, origins, width, cells):
    """_step_cell_pairs with every origin of an axis scattered on its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcrep, "_scatter_axis", scatter_per_origin)
        return _step_cell_pairs(f, origins, width, cells)


def assert_same_pairs(got, want):
    """Same (piece, flat, volume, cover) arrays, in the same order, to the bit."""
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestParamSpace:
    def test_theta_examples(self):
        assert ParamSpace(2.0, 1.0, 0.0).theta == 2.0
        assert ParamSpace(2.0, 1.0, -0.25).theta == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_theta_endpoint_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = float(rng.uniform(1.1, 5.0))
            q = float(rng.uniform(1.0, p))
            split = 1.0 / p - 1.0 / q
            assert ParamSpace(p, q, split).theta == pytest.approx(q, rel=1e-12)

    def test_theta_degenerate(self):
        with pytest.raises(ValueError):
            ParamSpace(2.0, 1.0, 0.5).theta

    def test_theta_between_q_and_p_in_regime(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = float(rng.uniform(1.1, 5.0))
            q = float(1.0 + rng.uniform(0.0, 0.95) * (p - 1.0))
            alpha = (1.0 / p - 1.0 / q) * float(rng.uniform(0.02, 0.98))
            ps = ParamSpace(p, q, alpha)
            assert ps.is_intermediate_regime()
            assert q < ps.theta < p

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            ParamSpace(2.0, 1.0, 0.1).require_intermediate_regime()
        with pytest.raises(ValueError):
            ParamSpace(0.5, 1.0, 0.0)


class TestEvaluate:
    """The reference pointwise evaluation that the Monte Carlo cube-norm test uses."""

    def test_examples(self):
        f = StepFunction(((Cube((0.0,), 1.0), 2.0),))
        assert evaluate(f, (0.5,)) == 2.0
        assert evaluate(f, (1.5,)) == 0.0
        r = RadialPower(-1.0, 1)
        assert evaluate(r, (2.0,)) == 0.5
        assert evaluate(r, (-1.0,)) == 0.0


class TestLqNormOnCube:
    def test_indicator(self):
        f = StepFunction(((Cube((0.0,), 1.0), 1.0),))
        assert lq_norm_on_cube(f, Cube((0.0,), 1.0), 2.0) == 1.0

    def test_two_piece_exact(self):
        val = lq_norm_on_cube(two_step(), Cube((0.0,), 1.0), 2.0)
        assert val == pytest.approx(math.sqrt(2.5), rel=1e-14)

    def test_radial_closed_form(self):
        # integral of x**(-1/2) over [1, 4] equals 2
        r = RadialPower(-0.5, 1)
        assert lq_norm_on_cube(r, Cube((1.0,), 3.0), 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_sup_norm(self):
        assert lq_norm_on_cube(two_step(), Cube((0.0,), 1.0), math.inf) == 2.0
        assert lq_norm_on_cube(two_step(), Cube((0.6,), 0.2), math.inf) == 1.0
        r = RadialPower(-1.0, 2)
        assert lq_norm_on_cube(r, Cube((3.0, 4.0), 1.0), math.inf) == pytest.approx(0.2, rel=1e-12)
        assert lq_norm_on_cube(r, Cube((0.0, 0.0), 1.0), math.inf) == math.inf

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pieces = []
            xs = np.sort(rng.uniform(-2, 2, 5))
            for i in range(4):
                w = xs[i + 1] - xs[i]
                if w > 1e-3:
                    pieces.append((Cube((float(xs[i]),), float(w)), float(rng.uniform(0, 3))))
            if not pieces:
                continue
            f = StepFunction(tuple(pieces))
            q = float(rng.uniform(1.0, 4.0))
            inner = Cube((-1.0,), 1.5)
            outer = Cube((-2.5,), 5.0)
            assert lq_norm_on_cube(f, inner, q) <= lq_norm_on_cube(f, outer, q) + 1e-12

    def test_monte_carlo_sanity(self):
        rng = np.random.default_rng(11)
        f = two_step()
        q = 3.0
        cube = Cube((0.2,), 0.6)
        pts = rng.uniform(0.2, 0.8, 200_000)
        mc = np.mean([evaluate(f, (float(x),)) ** q for x in pts[:20_000]]) * 0.6
        exact = lq_norm_on_cube(f, cube, q) ** q
        assert exact == pytest.approx(mc, rel=2e-2)


def branch_overlap_width(lo_a, side_a, lo_b, side_b):
    """The overlap width by cases on which interval starts first: the test reference."""
    if lo_a >= lo_b:
        return max(min(side_a, (lo_b - lo_a) + side_b), 0.0)
    return max(min(side_b, (lo_a - lo_b) + side_a), 0.0)


lows_st = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, 1.0, 1.0 + 2 ** -52, -3.0])
sides_st = st.floats(1e-300, 1e6) | st.sampled_from([2 ** -60, 2 ** -52, 1.0, 3.0])


class TestOverlapWidths:
    @settings(max_examples=300, deadline=None)
    @given(lo_a=lows_st, side_a=sides_st, lo_b=lows_st, side_b=sides_st)
    def test_bit_equal_to_the_case_split(self, lo_a, side_a, lo_b, side_b):
        got = float(_overlap_widths(np.float64(lo_a), np.float64(side_a), np.float64(lo_b), np.float64(side_b)))
        assert struct.pack("<d", got) == struct.pack("<d", branch_overlap_width(lo_a, side_a, lo_b, side_b))

    def test_sub_ulp_piece_keeps_its_width(self):
        assert float(_overlap_widths(np.float64(1.0), np.float64(2 ** -60), np.float64(0.0), np.float64(2.0))) == 2 ** -60


class TestLebesgueNorm:
    def test_examples(self):
        f = StepFunction(((Cube((0.0,), 1.0), 1.0),))
        assert lebesgue_norm(f, Domain.whole_space(1), 3.0).value == 1.0
        # truncated sparse construction at L = 2: critical-power mass is 1.5
        sf = sparse_function(2)
        theta = ParamSpace(2.0, 1.0, -0.25).theta
        est = lebesgue_norm(sf, Domain.whole_space(1), theta)
        assert est.kind == EXACT
        assert est.value ** theta == pytest.approx(1.5, rel=1e-12)
        empty = StepFunction(())
        assert lebesgue_norm(empty, Domain.whole_space(1), 2.0).value == 0.0

    def test_sup_norm_and_cube_domain(self):
        f = two_step()
        assert lebesgue_norm(f, Domain.whole_space(1), math.inf).value == 2.0
        dom = Domain.of_cube(Cube((0.5,), 0.5))
        assert lebesgue_norm(f, dom, math.inf).value == 1.0
        assert lebesgue_norm(f, dom, 1.0).value == pytest.approx(0.5, rel=1e-14)


class TestDistributionAndWeakNorm:
    def test_weak_norm_examples(self):
        f = StepFunction(((Cube((0.0,), 1.0), 1.0),))
        assert weak_norm(f, 2.0, -0.25) == 1.0
        f2 = StepFunction(((Cube((0.0,), 1.0), 2.0),))
        assert weak_norm(f2, 2.0, -0.25) == 2.0

    def test_weak_norm_unbounded_along_truncations(self):
        prev = 0.0
        for L in (10, 100, 1000):
            w = weak_norm(sparse_function(L), 2.0, -0.25)
            H = float(np.sum(1.0 / np.arange(1, L + 1)))
            assert w == pytest.approx(H ** 0.75, rel=1e-12)
            assert w > prev
            prev = w

    @given(st.integers(1, 30), st.integers(0, 10_000))
    @example(count=24, seed=458)  # theta = 538.7: h ** theta overflows a float
    @settings(max_examples=60, deadline=None)
    def test_chebyshev_weak_below_lebesgue(self, count, seed):
        rng = np.random.default_rng(seed)
        pieces = tuple(
            (Cube((float(3 * i),), float(rng.uniform(0.1, 1.0))), float(rng.uniform(0.0, 4.0)))
            for i in range(count)
        )
        f = StepFunction(pieces)
        p = float(rng.uniform(1.1, 4.0))
        # keep theta = p/(1-p*alpha) inside [1, inf): alpha in [1/p - 1, 1/p)
        alpha = float(rng.uniform(1.0 / p - 1.0, 1.0 / p - 1e-3))
        theta = p / (1.0 - p * alpha)
        lhs = weak_norm(f, p, alpha)
        rhs = lebesgue_norm(f, Domain.whole_space(1), theta).value
        assert lhs <= rhs * (1 + 1e-12)

    def test_chebyshev_bulk(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            count = int(rng.integers(1, 12))
            pieces = tuple(
                (Cube((float(3 * i),), float(rng.uniform(0.1, 1.0))), float(rng.uniform(0.0, 4.0)))
                for i in range(count)
            )
            f = StepFunction(pieces)
            p = float(rng.uniform(1.1, 4.0))
            alpha = float(rng.uniform(1.0 / p - 1.0, 1.0 / p - 1e-3))
            theta = p / (1.0 - p * alpha)
            assert weak_norm(f, p, alpha) <= lebesgue_norm(
                f, Domain.whole_space(1), theta
            ).value * (1 + 1e-12)


class TestShellIntegralRadial:
    def test_examples(self):
        assert shell_integral_radial(0.0, 1.0, 2.0, 1) == pytest.approx(1.0, rel=1e-14)
        assert shell_integral_radial(0.0, 1.0, 2.0, 2) == pytest.approx(3 * math.pi / 4, rel=1e-14)

    def test_orthant_sphere_measures(self):
        assert positive_orthant_sphere_measure(1) == pytest.approx(1.0, rel=1e-14)
        assert positive_orthant_sphere_measure(2) == pytest.approx(math.pi / 2, rel=1e-14)
        assert positive_orthant_sphere_measure(3) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_log_form(self):
        val = shell_integral_radial(-2.0, 1.0, math.e, 2)
        assert val == pytest.approx(math.pi / 2, rel=1e-12)

    def test_against_nested_quadrature(self):
        # Cartesian iterated integral over the exact quarter-annulus region,
        # independent of the polar factorization used by the implementation
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(17)
        for _ in range(4):
            s_q = float(rng.uniform(-1.4, 0.5))
            r_in = float(rng.uniform(0.3, 1.0))
            r_out = float(rng.uniform(r_in + 0.3, 3.0))

            def integrand(y, x):
                return (x * x + y * y) ** (0.5 * s_q)

            def y_range(x):
                lo = math.sqrt(max(r_in ** 2 - x * x, 0.0))
                hi = math.sqrt(max(r_out ** 2 - x * x, 0.0))
                return [lo, hi]

            ref, _ = scipy_integrate.nquad(integrand, [y_range, [0.0, r_out]])
            assert shell_integral_radial(s_q, r_in, r_out, 2) == pytest.approx(ref, rel=1e-6)


class TestJsonRoundTrip:
    def test_bit_exact(self):
        awkward = [0.1 + 0.2, 1e-300, 2.0 ** -84, math.pi, 1.0 / 3.0]
        # the second coordinate keeps the pieces' interiors disjoint
        pieces = tuple(
            (Cube((v, 4.0 * i), abs(v) + 0.5), abs(v)) for i, v in enumerate(awkward)
        )
        f = StepFunction(pieces)
        g = StepFunction.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
        for (c1, h1), (c2, h2) in zip(f.pieces, g.pieces):
            assert struct.pack("d", h1) == struct.pack("d", h2)
            assert struct.pack("d", c1.side) == struct.pack("d", c2.side)
            for a, b in zip(c1.lower, c2.lower):
                assert struct.pack("d", a) == struct.pack("d", b)

    def test_overlapping_pieces_rejected(self):
        piece = {"lower": [0.0], "side": 1.0, "height": 1.0}
        with pytest.raises(ValueError, match="overlapping"):
            StepFunction.from_json_dict({"dim": 1, "pieces": [piece, piece]})

    def test_schema(self):
        f = two_step()
        doc = json.loads(json.dumps(f.to_json_dict()))
        assert set(doc) == {"dim", "pieces"}
        assert set(doc["pieces"][0]) == {"lower", "side", "height"}


class TestStepFunctionChecks:
    def test_heights_become_floats(self):
        f = StepFunction(((Cube((0.0,), 1.0), 2),))
        assert f.pieces == ((Cube((0.0,), 1.0), 2.0),) and type(f.pieces[0][1]) is float

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_heights(self, h):
        with pytest.raises(ValueError, match=f"heights must be finite and >= 0, got {h}"):
            StepFunction(((Cube((0.0,), 1.0), 1.0), (Cube((1.0,), 1.0), h)))

    def test_mixed_dimensions_are_reported_before_heights(self):
        with pytest.raises(DimensionMismatchError, match="mixes support dimensions"):
            StepFunction(((Cube((0.0,), 1.0), -1.0), (Cube((0.0, 0.0), 1.0), 1.0)))


class TestStepCellPairs:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from((1, 2, 3)))
    def test_cover_is_a_full_overlap_width_on_every_axis(self, seed, dim):
        rng = np.random.default_rng(seed)
        # random pieces plus one of side 3 that covers whole cells of width <= 1
        f = StepFunction(random_step_function(rng, dim).pieces + ((Cube((-1.5,) * dim, 3.0), 1.0),))
        cells = 1 << int(rng.integers(3, 7 - dim))
        width = 8.0 / cells
        offsets = rng.choice((0.0, 0.25, 1.0 / 3.0, 0.5), size=(int(rng.integers(1, 5)), dim))
        origins = -4.0 + 8.0 * offsets
        piece, flat, vol, cover = _step_cell_pairs(f, origins, width, cells)
        lows, sides, _ = f._arrays
        grid, index = np.divmod(flat, cells ** dim)
        idx = np.unravel_index(index, (cells,) * dim)
        want = np.ones(len(piece), dtype=bool)
        for j in range(dim):
            want &= _overlap_widths(lows[piece, j], sides[piece], origins[grid, j] + width * idx[j], width) == width
        assert want.any()
        assert np.array_equal(cover, want)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        dim=st.sampled_from((1, 2, 3)),
        offsets=st.lists(st.sampled_from((0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9)), min_size=1, max_size=3,
                         unique=True),
        group=st.sampled_from((1, 8, 64, 1 << 14)),
        data=st.data(),
    )
    def test_origins_scattered_together_match_one_at_a_time(self, seed, dim, offsets, group, data):
        # a small group bound splits an axis's origins into several groups
        rng = np.random.default_rng(seed)
        f = random_step_function(rng, dim)
        cells = 1 << data.draw(st.integers(0, 10 // dim), label="bits")
        origins = -4.0 + 8.0 * np.array(list(product(offsets, repeat=dim)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(funcrep, "_SCATTER_PAIRS", group)
            got = _step_cell_pairs(f, origins, 8.0 / cells, cells)
        assert_same_pairs(got, pairs_per_origin(f, origins, 8.0 / cells, cells))

    def test_groups_of_the_default_bound(self):
        # each origin of the depth-12 tree makes over 2**14 unfiltered pairs
        # at 2**10 cells, so each is a group of its own; the depth-10 tree's
        # origins share groups
        for depth, groups in ((12, 3), (10, 2)):
            tree = build_tree(1, depth, ParamSpace(2.0, 1.0, -0.25))
            f, root = tree_function(tree), tree.domain
            origins = root.lower[0] + root.side * np.array([[0.0], [1.0 / 3.0], [2.0 / 3.0]])
            width = root.side / 1024
            sizes = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(funcrep, "_overlap_widths", lambda *a: sizes.append(len(a[0])) or _overlap_widths(*a))
                got = _step_cell_pairs(f, origins, width, 1024)
            assert len(sizes) == groups
            assert_same_pairs(got, pairs_per_origin(f, origins, width, 1024))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_offsets_that_round_to_one_origin(self, dim):
        # on a root of side 1e-20 at 0.3 every offset rounds to the origin
        # 0.3, so the grids share one row of the product of distinct origins
        root = Cube((0.3,) * dim, 1e-20)
        f = StepFunction(((root, 1.0), (Cube((0.3 + 2.5e-21,) * dim, 5e-21), 2.0)))
        origins = 0.3 + 1e-20 * np.array(list(product((0.0, 1.0 / 3.0, 2.0 / 3.0), repeat=dim)))
        assert len(np.unique(origins)) == 1
        got = _step_cell_pairs(f, origins, 1e-20 / 4, 4)
        assert np.array_equal(np.unique(got[1] // 4 ** dim), np.arange(3 ** dim))
        assert_same_pairs(got, pairs_per_origin(f, origins, 1e-20 / 4, 4))

    def test_arrays_of_the_pieces(self):
        f = sparse_function(100)
        lows, sides, heights = f._arrays
        assert np.array_equal(lows, np.array([c.lower for c, _ in f.pieces]))
        assert np.array_equal(sides, np.array([c.side for c, _ in f.pieces]))
        assert np.array_equal(heights, np.array([h for _, h in f.pieces]))
        lows, sides, heights = StepFunction(())._arrays
        assert lows.shape == (0, 0) and sides.shape == heights.shape == (0,)
