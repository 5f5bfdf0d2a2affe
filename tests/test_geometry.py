import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmlab.geometry import (
    _FACE_SLACK,
    _checked_cubes,
    Cube,
    CubeFamily,
    DimensionMismatchError,
    Domain,
    box_distance,
    dyadic_children,
    interiors_pairwise_disjoint,
    ring_subdivision,
    shell_partition_1d,
)

coords = st.floats(-10.0, 10.0, allow_nan=False)
side_lengths = st.floats(0.1, 5.0, allow_nan=False)


def grid_cube_strategy(dim):
    """Cubes on a coarse half-integer grid, often far from the origin, so
    that families drawn from it share faces, repeat or nest cubes, tie on
    lower[0], and include sides below the face slack at their position."""
    return st.builds(
        lambda lo, s, offset: Cube(tuple(offset + 0.5 * k for k in lo), s),
        st.lists(st.integers(0, 6), min_size=dim, max_size=dim),
        st.sampled_from((0.5, 1.0, 1.5, 3.0, 1e-14)),
        st.sampled_from((0.0, -2.0, 1000.0)),
    )


def disjoint_pair_reference(a, b):
    """The per-axis slack test on one pair, coordinate by coordinate: the test reference."""
    for lo_a, lo_b in zip(a.lower, b.lower):
        lo = max(lo_a, lo_b)
        hi = min(lo_a + a.side, lo_b + b.side)
        if hi - lo <= _FACE_SLACK * max(abs(lo), abs(hi)):
            return True
    return False


def cube_strategy(dim):
    return st.builds(
        lambda lo, s: Cube(tuple(lo), s),
        st.lists(coords, min_size=dim, max_size=dim),
        side_lengths,
    )


class TestCube:
    def test_volume_examples(self):
        assert Cube((0.0, 0.0), 1.0).volume == 1.0
        assert Cube((0.0,), 0.5).volume == 0.5
        assert Cube((0.0, 0.0, 0.0), 2.0).volume == 8.0

    def test_invalid_cubes(self):
        with pytest.raises(ValueError):
            Cube((0.0,), 0.0)
        with pytest.raises(ValueError):
            Cube((0.0,), -1.0)
        with pytest.raises(ValueError):
            Cube((math.inf,), 1.0)
        with pytest.raises(ValueError):
            Cube((), 1.0)
        with pytest.raises(ValueError, match="finite"):
            Cube((0.0,), math.nan)
        with pytest.raises(ValueError, match="finite"):
            Cube((0.0,), math.inf)
        with pytest.raises(ValueError, match="finite"):
            Cube((0.0, math.nan), 1.0)

    def test_checked_cubes_are_cubes(self):
        lows = np.array([[0.0, -1.5], [2.0 ** -60, 1e300]])
        sides = np.array([0.5, 2.0 ** -1070])
        got = _checked_cubes(lows, sides)
        assert got == (Cube((0.0, -1.5), 0.5), Cube((2.0 ** -60, 1e300), 2.0 ** -1070))
        assert all(type(x) is float for c in got for x in c.lower + (c.side,))
        assert _checked_cubes(np.zeros((0, 2)), np.zeros(0)) == ()

    @pytest.mark.parametrize("lows, sides, match", [
        ([[0.0], [math.inf]], [1.0, 1.0], "finite"),
        ([[0.0, math.nan]], [1.0], "finite"),
        ([[0.0]], [math.nan], "finite"),
        ([[0.0]], [math.inf], "finite"),
        ([[0.0], [1.0], [2.0]], [1.0, 0.0, -1.0], "cube side must be positive, got 0.0"),
    ])
    def test_checked_cubes_raise_as_cube_does(self, lows, sides, match):
        with pytest.raises(ValueError, match=match):
            _checked_cubes(np.array(lows), np.array(sides))
        with pytest.raises(ValueError, match=match):
            [Cube(tuple(lo), s) for lo, s in zip(lows, sides)]

    def test_contains(self):
        c = Cube((0.0, 0.0), 2.0)
        assert c.contains_point((1.0, 2.0))
        assert not c.contains_point((1.0, 2.1))
        assert c.contains_cube(Cube((0.5, 0.5), 1.0))
        assert not c.contains_cube(Cube((1.5, 0.0), 1.0))


class TestDisjointness:
    def test_examples(self):
        assert interiors_pairwise_disjoint((Cube((0.0,), 1.0), Cube((1.0,), 1.0)))
        assert not interiors_pairwise_disjoint((Cube((0.0,), 1.0), Cube((0.5,), 1.0)))
        assert interiors_pairwise_disjoint((Cube((0.0, 0.0), 1.0), Cube((2.0, 2.0), 1.0)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            interiors_pairwise_disjoint((Cube((0.0,), 1.0), Cube((0.0, 0.0), 1.0)))

    def test_pairwise_matches_pair_function(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cubes = [
                Cube(tuple(rng.uniform(-3, 3, 2)), float(rng.uniform(0.2, 2.0)))
                for _ in range(6)
            ]
            pairs = [(a, b) for i, a in enumerate(cubes) for b in cubes[i + 1 :]]
            expected = [disjoint_pair_reference(a, b) for a, b in pairs]
            assert [interiors_pairwise_disjoint((a, b)) for a, b in pairs] == expected
            assert interiors_pairwise_disjoint(cubes) == all(expected)

    def test_touching_row_with_one_overlap(self):
        cubes = [Cube((float(i),), 1.0) for i in range(40)]
        assert interiors_pairwise_disjoint(cubes)
        cubes[13] = Cube((12.5,), 1.0)
        assert not interiors_pairwise_disjoint(cubes)

    @given(st.integers(1, 3).flatmap(lambda dim: st.lists(grid_cube_strategy(dim), max_size=12)))
    # a side below the face slack at its position: the pair test judges the
    # cube disjoint from itself, and the family test must agree
    @example([Cube((1000.0,), 1e-14)] * 2)
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_every_pair(self, cubes):
        expected = all(
            disjoint_pair_reference(a, b)
            for i, a in enumerate(cubes)
            for b in cubes[i + 1 :]
        )
        assert interiors_pairwise_disjoint(cubes) == expected


class TestBoxDistance:
    def test_examples(self):
        assert box_distance(Cube((0.0,), 1.0), Cube((3.0,), 1.0)) == 2.0
        assert box_distance(Cube((0.0,), 1.0), Cube((1.0,), 1.0)) == 0.0
        d = box_distance(Cube((0.0, 0.0), 1.0), Cube((2.0, 2.0), 1.0))
        assert d == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @given(cube_strategy(2), cube_strategy(2))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert box_distance(a, b) == box_distance(b, a)

    def test_point_sampling_lower_bound(self):
        # every sampled point pair sits at least box_distance apart, and a
        # dense face sample comes close to attaining it
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = Cube(tuple(rng.uniform(-4, 4, 2)), float(rng.uniform(0.3, 2.0)))
            b = Cube(tuple(rng.uniform(-4, 4, 2)), float(rng.uniform(0.3, 2.0)))
            d = box_distance(a, b)
            pa = rng.uniform(0, 1, (200, 2)) * a.side + np.array(a.lower)
            pb = rng.uniform(0, 1, (200, 2)) * b.side + np.array(b.lower)
            pairwise = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1)
            assert np.all(pairwise >= d - 1e-12)

    def test_set_distance_triangle_inequality(self):
        # d(A, C) <= d(A, B) + diam(B) + d(B, C) for closed boxes
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b, c = (
                Cube(tuple(rng.uniform(-5, 5, 2)), float(rng.uniform(0.2, 2.0)))
                for _ in range(3)
            )
            diam_b = b.side * math.sqrt(2.0)
            assert box_distance(a, c) <= box_distance(a, b) + diam_b + box_distance(b, c) + 1e-12


class TestDyadicChildren:
    def test_examples(self):
        kids = dyadic_children(Cube((0.0,), 1.0))
        assert sorted(c.lower[0] for c in kids) == [0.0, 0.5]
        kids2 = dyadic_children(Cube((0.0, 0.0), 1.0))
        assert len(kids2) == 4
        assert all(c.side == 0.5 for c in kids2)

    @given(cube_strategy(2))
    @settings(max_examples=60, deadline=None)
    def test_tiles_parent(self, cube):
        kids = dyadic_children(cube)
        assert len(kids) == 4
        assert interiors_pairwise_disjoint(kids)
        total = sum(c.volume for c in kids)
        assert total == pytest.approx(cube.volume, rel=1e-12)
        # containment up to rounding of the shared far corner
        tol = 1e-12 * (abs(cube.side) + max(abs(v) for v in cube.lower))
        for kid in kids:
            for lo_k, hi_k, lo_c, hi_c in zip(kid.lower, kid.upper, cube.lower, cube.upper):
                assert lo_k >= lo_c - tol and hi_k <= hi_c + tol


class TestRingSubdivision:
    def test_examples(self):
        fam = ring_subdivision(0, 2, 1)
        assert len(fam) == 1
        assert fam[0].lower == (1.0,) and fam[0].side == 1.0
        fam2 = ring_subdivision(0, 2, 2)
        assert len(fam2) == 3
        assert all(c.side == 1.0 for c in fam2)
        fam3 = ring_subdivision(1, 3, 1)
        assert [(c.lower[0], c.side) for c in fam3] == [(3.0, 3.0), (6.0, 3.0)]

    @pytest.mark.parametrize("i,N,n", [(0, 2, 1), (1, 3, 2), (-2, 2, 2), (0, 3, 3)])
    def test_count_disjoint_volume(self, i, N, n):
        fam = ring_subdivision(i, N, n)
        assert len(fam) == N ** n - 1
        assert interiors_pairwise_disjoint(fam)
        expected = float(N) ** ((i + 1) * n) - float(N) ** (i * n)
        assert sum(c.volume for c in fam) == pytest.approx(expected, rel=1e-12)

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            ring_subdivision(0, 1, 1)
        with pytest.raises(ValueError):
            ring_subdivision(0, 2, 4)  # N must exceed sqrt(n)


class TestShellPartition:
    def test_examples(self):
        fam = shell_partition_1d(1.0, 0.5, 1)
        assert [(c.lower[0], c.side) for c in fam] == [(-1.0, 0.5), (0.5, 0.5)]
        fam2 = shell_partition_1d(1.0, 0.5, 2)
        assert len(fam2) == 4
        assert all(c.side == 0.25 for c in fam2)

    def test_total_length(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t_in = float(rng.uniform(0.05, 0.8))
            t_out = float(rng.uniform(t_in + 0.05, 1.5))
            parts = int(rng.integers(1, 6))
            fam = shell_partition_1d(t_out, t_in, parts)
            assert sum(c.volume for c in fam) == pytest.approx(2 * (t_out - t_in), rel=1e-12)
            assert interiors_pairwise_disjoint(fam)

    def test_ordering_violation(self):
        with pytest.raises(ValueError):
            shell_partition_1d(0.5, 1.0, 1)


class TestFamilyAndDomain:
    def test_family_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            CubeFamily((Cube((0.0,), 1.0), Cube((0.0, 0.0), 1.0)))

    def test_domain_invariants(self):
        with pytest.raises(ValueError):
            Domain("cube", 1, None)
        d = Domain.of_cube(Cube((0.0,), 2.0))
        assert d.contains_cube(Cube((0.5,), 1.0))
        assert not d.contains_cube(Cube((1.5,), 1.0))
        assert Domain.whole_space(1).contains_cube(Cube((100.0,), 1.0))
