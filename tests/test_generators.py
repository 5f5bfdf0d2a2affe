"""The seeded generators of the probes against one-draw-per-value references.

The generators draw their uniforms in batches and make their cubes once
per batch; the references below draw each value with its own rng call
and make each cube with Cube(...).  Both must give the same doubles, to
the bit, and leave the random stream in the same state, so that every
later draw of a probe is the same too.
"""

import numpy as np
import pytest

from rmlab.constructions import TreeSpacing, build_tree
from rmlab.funcrep import ParamSpace, StepFunction
from rmlab.geometry import Cube, dyadic_children
from rmlab.verification import (
    random_dyadic_partition,
    random_dyadic_step,
    random_intermediate_params,
    random_step_function,
)

SEEDS = range(40)
ROOTS = {
    1: [Cube((0.0,), 1.0), Cube((-0.0,), 8.0), Cube((-4.0,), 8.0), Cube((0.3,), 1e-9)],
    2: [Cube((0.0, 0.0), 1.0), Cube((-4.0, -0.0), 8.0), Cube((1e6, -0.7), 0.1)],
    3: [Cube((0.0, 0.0, 0.0), 1.0), Cube((-0.0, 2.5, -1.0), 3.0)],
}


def bits(cubes, heights=None):
    """repr of the (lower, side) pairs and heights: equal iff equal to the bit, -0.0 included."""
    return repr((tuple((c.lower, c.side) for c in cubes), heights))


def piece_bits(f):
    return bits([c for c, _ in f.pieces], tuple(h for _, h in f.pieces))


def reference_dyadic_step(rng, root, depth):
    n = root.dim
    cells_per_axis = 1 << depth
    w = root.side / cells_per_axis
    pieces = []
    for idx in np.ndindex(*(cells_per_axis,) * n):
        if rng.random() < 0.25:
            continue
        h = float(rng.uniform(0.05, 3.0))
        lo = tuple(root.lower[j] + idx[j] * w for j in range(n))
        pieces.append((Cube(lo, w), h))
    if not pieces:
        lo = tuple(root.lower)
        pieces.append((Cube(lo, w), float(rng.uniform(0.05, 3.0))))
    return StepFunction(tuple(pieces))


def reference_step_function(rng, dim):
    count = int(rng.integers(1, 13))
    base = 16 if dim == 1 else 6
    cells = rng.choice(base ** dim, size=count, replace=False)
    pieces = []
    cell_w = 8.0 / base
    for c in cells.tolist():
        idx = [0] * dim
        for j in range(dim - 1, -1, -1):
            c, idx[j] = divmod(c, base)
        side = cell_w * float(rng.uniform(0.2, 0.95))
        lo = tuple(-4.0 + idx[j] * cell_w + float(rng.uniform(0.0, cell_w - side)) for j in range(dim))
        pieces.append((Cube(lo, side), float(rng.uniform(0.05, 4.0))))
    return StepFunction(tuple(pieces))


def reference_dyadic_partition(rng, root, max_depth):
    cells = []
    stack = [(root, 0)]
    while stack:
        cube, d = stack.pop()
        if d < max_depth and rng.random() < 0.55:
            stack.extend((kid, d + 1) for kid in dyadic_children(cube))
        else:
            cells.append(cube)
    return tuple(cells)


def reference_intermediate_params(rng):
    p = float(rng.uniform(1.2, 4.0))
    q = float(1.0 + rng.uniform(0.0, 0.92) * (p - 1.0))
    split = 1.0 / p - 1.0 / q
    alpha = float(split * rng.uniform(0.05, 0.95))
    return ParamSpace(p, q, alpha)


def reference_tree_levels(dim, depth):
    """The level cubes of build_tree, one Cube(...) per cube."""
    spacing = TreeSpacing.build(dim)
    l0 = spacing.length(0)
    centers = [0.0]
    levels = [[Cube((-0.5 * l0,) * dim, l0)]]
    for i in range(1, depth + 1):
        li = spacing.length(i)
        offset = 0.5 * spacing.length(i - 1) + spacing.distance(i - 1) + 0.5 * li
        new_centers = []
        cubes = []
        for c in centers:
            for s in (-1.0, 1.0):
                m = c + s * offset
                new_centers.append(m)
                cubes.append(Cube((m - 0.5 * li,) * dim, li))
        centers = new_centers
        levels.append(cubes)
    return levels


def same_streams(rng, ref):
    return rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_step_function(dim):
    for seed in SEEDS:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert piece_bits(random_step_function(rng, dim)) == piece_bits(reference_step_function(ref, dim))
            assert same_streams(rng, ref)


@pytest.mark.parametrize("dim, depths", [(1, range(7)), (2, range(4)), (3, range(3))])
def test_random_dyadic_step(dim, depths):
    for seed in SEEDS:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for root in ROOTS[dim]:
            for depth in depths:
                got = random_dyadic_step(rng, root, depth)
                assert piece_bits(got) == piece_bits(reference_dyadic_step(ref, root, depth))
                assert same_streams(rng, ref)


def test_random_dyadic_step_with_every_cell_zero():
    # seed 3 draws 0.0856 < 0.25 first: the one cell of depth 0 is zero, so the root takes the height
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    got = random_dyadic_step(rng, ROOTS[2][1], 0)
    assert piece_bits(got) == piece_bits(reference_dyadic_step(ref, ROOTS[2][1], 0))
    assert got.pieces[0][0].lower == (-4.0, -0.0) and same_streams(rng, ref)


@pytest.mark.parametrize("dim, depths", [(1, range(6)), (2, range(4)), (3, range(3))])
def test_random_dyadic_partition(dim, depths):
    for seed in SEEDS:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for root in ROOTS[dim]:
            for max_depth in depths:
                got = random_dyadic_partition(rng, root, max_depth)
                assert bits(got) == bits(reference_dyadic_partition(ref, root, max_depth))
                assert same_streams(rng, ref)


def test_random_intermediate_params():
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            got, want = random_intermediate_params(rng), reference_intermediate_params(ref)
            assert repr((got.p, got.q, got.alpha)) == repr((want.p, want.q, want.alpha))
            assert all(type(x) is float for x in (got.p, got.q, got.alpha))
            assert same_streams(rng, ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", range(13))
def test_build_tree(dim, depth):
    tree = build_tree(dim, depth, ParamSpace(2.0, 1.0, -0.25))
    want = reference_tree_levels(dim, depth)
    assert [bits(level) for level in tree.levels] == [bits(level) for level in want]
    assert all(type(x) is float for level in tree.levels for c in level for x in c.lower + (c.side,))
