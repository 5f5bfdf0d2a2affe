"""Partition-norm engines.

The family score of f against a disjoint-interior cube family is

    sum_i |Q_i| ** (1 - p*alpha - p/q) * ||f||_{L^q(Q_i)} ** p

and the partition norm is the supremum of score ** (1/p) over all such
families.  Exact suprema over uncountable cube families are not
computable; the optimizer returns certified lower bounds over (shifted)
dyadic grids, with the achieving family attached as a certificate, while
analytic upper bounds live in the analysis module.  NormEstimate.kind
makes the gap explicit.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .estimate import LOWER_BOUND, NormEstimate
from .funcrep import FunctionLike, ParamSpace, StepFunction, grid_cell_values, lq_norm_on_cube
from .geometry import Cube, CubeFamily, Domain, dyadic_children, interiors_pairwise_disjoint

__all__ = [
    "rm_score",
    "rm_norm_dyadic",
    "rm_norm_intervals_1d",
    "rm_norm_estimate",
    "riesz_norm",
    "morrey_norm_estimate",
    "DEFAULT_OFFSETS",
    "MAX_DP_CELLS",
    "MAX_INTERVAL_CELLS",
]

DEFAULT_OFFSETS: tuple[float, ...] = (0.0, 1.0 / 3.0, 2.0 / 3.0)
# finest-level cells per grid the DP may allocate: depth * dim <= 24
MAX_DP_CELLS = 1 << 24
# grid cells of the O(m**2) interval DP
MAX_INTERVAL_CELLS = 1 << 14


def rm_score(
    f: FunctionLike,
    family: CubeFamily | Sequence[Cube],
    params: ParamSpace,
    domain: Domain | None = None,
    check: bool = True,
) -> float:
    """Exact family score sum_i |Q_i|**(1-p*alpha-p/q) * ||f||_{L^q(Q_i)}**p.

    Zero-mass cubes contribute zero regardless of the volume exponent.
    Raises if the family has overlapping interiors or leaves the domain.
    """
    if math.isinf(params.p):
        raise ValueError("family scores need finite p; use the single-cube norm for p = inf")
    cubes = tuple(family)
    if check and not interiors_pairwise_disjoint(cubes):
        raise ValueError("family interiors overlap")
    if domain is not None:
        for c in cubes:
            if not domain.contains_cube(c):
                raise ValueError(f"cube {c} is not inside the domain")
    e = params.score_exponent
    total = 0.0
    for c in cubes:
        norm_q = lq_norm_on_cube(f, c, params.q)
        if norm_q > 0.0:
            total += c.volume ** e * norm_q ** params.p
    return total


# ---------------------------------------------------------------------------
# dyadic dynamic program
# ---------------------------------------------------------------------------

def _scores(volume: float | np.ndarray, mass: np.ndarray, params: ParamSpace) -> np.ndarray:
    """Scores volume**e * mass**r, 0 where the mass is 0, of cells with masses
    integral |f|**q (r = p/q), or sup |f| for q = inf (r = p).  `volume` is
    one float for all cells or an array shaped like `mass`."""
    r = params.p if math.isinf(params.q) else params.p / params.q
    s = np.zeros_like(mass)
    pos = mass > 0.0
    if np.ndim(volume):
        volume = volume[pos]
    s[pos] = volume ** params.score_exponent * mass[pos] ** r
    return s


# even and odd cells along axis j; a coarsened grid has depth >= 1, so dim <= 24
_EVEN, _ODD = (tuple((slice(None),) * j + (slice(b, None, 2),) for j in range(24)) for b in (0, 1))


def _coarsen(a: np.ndarray, combine: np.ufunc) -> np.ndarray:
    """Combine each block of 2**n child cells into its parent cell.

    Cells pair along one axis at a time, last axis first: the order of a
    reduce over the (half, 2)**n blocks in 1-D and 2-D.  That reduce adds
    the root's 2**n children as one run instead, so the root keeps it.
    """
    if a.shape[0] == 2:
        return combine.reduce(a, axis=None, keepdims=True)
    for j in range(a.ndim - 1, -1, -1):
        a = combine(a[_EVEN[j]], a[_ODD[j]])
    return a


def _dp_grid(
    f: FunctionLike, origin: tuple[float, ...], side: float, depth: int, params: ParamSpace
) -> tuple[list[float], list[np.ndarray], list[np.ndarray]]:
    """Bottom-up dyadic DP on one shifted grid over a mass pyramid.

    Level d has 2**d cells per axis; each coarser level sums its children
    (max for q = inf).  Returns the best score per horizon 0..depth, the
    cell scores per level and, for horizon `depth`, the keep-whole arrays.
    """
    n = len(origin)
    values = grid_cell_values(f, origin, side / (1 << depth), 1 << depth, params.q)
    combine = np.maximum if math.isinf(params.q) else np.add
    scores = []
    for d in range(depth, -1, -1):
        scores.append(_scores((side / (1 << d)) ** n, values, params))
        if d:
            values = _coarsen(values, combine)
    scores.reverse()

    best_by_horizon: list[float] = []
    for horizon in range(depth + 1):
        best = scores[horizon]
        keep = [np.ones(best.shape, dtype=bool)]
        for d in range(horizon - 1, -1, -1):
            split = _coarsen(best, np.add)
            keep.append(scores[d] >= split)
            best = np.where(keep[-1], scores[d], split)
        best_by_horizon.append(float(best.flat[0]))
    keep.reverse()
    return best_by_horizon, scores, keep


def _read_family(
    origin: tuple[float, ...], side: float, scores: list[np.ndarray], keep: list[np.ndarray]
) -> CubeFamily:
    """The achieving family, read top-down from the keep arrays.

    Cells of zero score are left out.  The order is depth-first with
    children in dyadic_children order, which for n = 1 is left to right.
    """
    n = len(origin)
    children = list(iter_product((0, 1), repeat=n))[::-1]  # popped in dyadic_children order
    cells = []
    stack = [(0, (0,) * n)]
    while stack:
        d, i = stack.pop()
        if keep[d][i]:
            if scores[d][i] > 0.0:
                w = side / (1 << d)
                cells.append(Cube(tuple(o + w * k for o, k in zip(origin, i)), w))
        else:
            stack.extend((d + 1, tuple(2 * k + b for k, b in zip(i, bits))) for bits in children)
    return CubeFamily(tuple(cells))


def rm_norm_dyadic(
    f: FunctionLike,
    root: Cube,
    depth: int,
    params: ParamSpace,
    offsets: Sequence[float] | None = None,
) -> NormEstimate:
    """Certified lower bound on the partition norm via shifted dyadic grids.

    Each offset vector translates the grid origin by that fraction of the
    root side per axis; within one grid the optimizer picks, for every
    cell, either the cell itself or the best split into its dyadic
    children.  The result is the max over grids, reported as the p-th
    root, with the achieving family as certificate and the per-depth
    running maxima as trace.  A grid's finest level may hold at most
    MAX_DP_CELLS cells, so depth * dim <= 24.
    """
    if math.isinf(params.p):
        raise ValueError("p = inf routes to morrey_norm_estimate")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = root.dim
    if 1 << (n * depth) > MAX_DP_CELLS:
        raise ValueError(f"depth {depth} in dimension {n} exceeds the budget of {MAX_DP_CELLS} cells")
    offset_list = tuple(dict.fromkeys(DEFAULT_OFFSETS if offsets is None else offsets))
    if not offset_list:
        raise ValueError("offsets must not be empty")
    if any(not 0.0 <= o < 1.0 for o in offset_list):
        raise ValueError("offsets must lie in [0, 1)")

    best_by_depth = [0.0] * (depth + 1)
    best_value = -1.0
    best_family: CubeFamily = CubeFamily(())
    for vec in iter_product(offset_list, repeat=n):
        origin = tuple(lo + o * root.side for lo, o in zip(root.lower, vec))
        values, scores, keep = _dp_grid(f, origin, root.side, depth, params)
        for d, v in enumerate(values):
            best_by_depth[d] = max(best_by_depth[d], v)
        if values[depth] > best_value:
            best_value = values[depth]
            best_family = _read_family(origin, root.side, scores, keep)

    running = np.maximum.accumulate(best_by_depth).tolist()
    trace = tuple((float(d), v ** (1.0 / params.p)) for d, v in enumerate(running))
    value = max(best_value, 0.0) ** (1.0 / params.p)
    return NormEstimate(value, LOWER_BOUND, certificate=best_family, trace=trace)


# ---------------------------------------------------------------------------
# exact 1-D optimum over grid intervals
# ---------------------------------------------------------------------------

def rm_norm_intervals_1d(f: FunctionLike, root: Cube, grid_cells: int, params: ParamSpace) -> NormEstimate:
    """Exact maximum of the family score over every family of intervals of a
    uniform 1-D grid with m cells.

    Scores are nonnegative, so gaps are never needed and the optimum is a
    composition of the grid into contiguous intervals.  The optimal-partitioning
    recurrence best[j] = max_i best[i] + score([i, j)) finds it in O(m**2)
    (Jackson et al., IEEE SPL 2005).  The masses of [i, j) for a fixed j
    accumulate over the finest cells from j leftwards, so no prefix sums
    are differenced.  Zero-mass intervals are left out of the certificate.
    """
    if root.dim != 1:
        raise ValueError("the interval DP is one-dimensional")
    if math.isinf(params.p):
        raise ValueError("the interval DP needs finite p")
    if not 1 <= grid_cells <= MAX_INTERVAL_CELLS:
        raise ValueError(f"grid_cells must be in 1..{MAX_INTERVAL_CELLS}")
    m = grid_cells
    lo = root.lower[0]
    w = root.side / m
    edges = lo + w * np.arange(m + 1, dtype=float)
    cells = grid_cell_values(f, (lo,), w, m, params.q)
    combine = np.maximum if math.isinf(params.q) else np.add

    best = np.zeros(m + 1)
    start = np.zeros(m + 1, dtype=np.int64)
    for j in range(1, m + 1):
        # mass and score of [i, j) for i = 0..j-1
        mass = combine.accumulate(cells[j - 1::-1])[::-1]
        total = best[:j] + _scores(edges[j] - edges[:j], mass, params)
        start[j] = np.argmax(total)
        best[j] = total[start[j]]
    pieces = []
    j = m
    while j:
        i = int(start[j])
        if cells[i:j].any():
            pieces.append(Cube((float(edges[i]),), float(edges[j] - edges[i])))
        j = i
    value = float(best[m]) ** (1.0 / params.p)
    family = CubeFamily(tuple(reversed(pieces)))
    return NormEstimate(value, LOWER_BOUND, certificate=family, trace=((float(m), value),))


# ---------------------------------------------------------------------------
# specializations and dispatch
# ---------------------------------------------------------------------------

def riesz_norm(
    f: FunctionLike, root: Cube, p: float, depth: int, offsets: Sequence[float] = (0.0,)
) -> NormEstimate:
    """Partition norm at (p, q=1, alpha=0): sum |Q_i| (average |f| on Q_i)**p.

    At a depth resolving the constancy scale of a step function this equals
    the L^p norm on the root.  Offsets default to the aligned grid so the
    certificate stays inside the root cube.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("Riesz norm needs p in (1, inf)")
    return rm_norm_dyadic(f, root, depth, ParamSpace(p, 1.0, 0.0), offsets=offsets)


def morrey_norm_estimate(
    f: FunctionLike,
    domain: Domain,
    q: float,
    alpha: float,
    dyadic_depth: int = 6,
    root: Cube | None = None,
) -> NormEstimate:
    """Lower bound for sup over single cubes of |Q|**(-alpha-1/q) ||f||_{L^q(Q)}.

    Candidates: every support cube of f, dyadic subcubes of a root cube
    (the domain cube, or a bounding cube of the support on the whole
    space), and smallest enclosing cubes of runs of adjacent supports.
    """
    if math.isinf(q):
        raise ValueError("Morrey estimate needs q < inf")
    if not -1.0 / q <= alpha <= 0.0:
        raise ValueError(f"alpha must lie in [-1/q, 0], got {alpha}")
    candidates: list[Cube] = []
    supports: list[Cube] = []
    if isinstance(f, StepFunction) and len(f) > 0:
        supports = [c for c, h in f.pieces if h > 0.0]
    candidates.extend(supports)

    if root is None:
        if domain.kind == "cube":
            assert domain.cube is not None
            root = domain.cube
        elif supports:
            lows = np.min(np.array([c.lower for c in supports]), axis=0)
            highs = np.max(np.array([c.upper for c in supports]), axis=0)
            side = float(np.max(highs - lows))
            root = Cube(tuple(lows), side)
    if root is not None:
        frontier = [root]
        for _ in range(dyadic_depth + 1):
            candidates.extend(frontier)
            if len(frontier) > 4096:
                break
            frontier = [kid for c in frontier for kid in dyadic_children(c)]

    if supports:
        order = sorted(supports, key=lambda c: c.lower)
        for i in range(len(order)):
            for j in range(i + 1, min(i + 9, len(order) + 1)):
                group = order[i:j]
                lows = np.min(np.array([c.lower for c in group]), axis=0)
                highs = np.max(np.array([c.upper for c in group]), axis=0)
                side = float(np.max(highs - lows))
                candidates.append(Cube(tuple(lows), side))

    if domain.kind == "cube":
        candidates = [c for c in candidates if domain.contains_cube(c)]

    e = -alpha - 1.0 / q
    best = 0.0
    best_cube: Cube | None = None
    for c in candidates:
        nq = lq_norm_on_cube(f, c, q)
        if nq == 0.0:
            continue
        val = c.volume ** e * nq
        if val > best:
            best = val
            best_cube = c
    cert = CubeFamily((best_cube,) if best_cube is not None else ())
    return NormEstimate(best, LOWER_BOUND, certificate=cert, trace=((float(len(candidates)), best),))


def rm_norm_estimate(
    f: FunctionLike,
    params: ParamSpace,
    root: Cube,
    depth: int,
    offsets: Sequence[float] | None = None,
    domain: Domain | None = None,
) -> NormEstimate:
    """Partition-norm lower bound; p = inf routes to the single-cube branch."""
    if math.isinf(params.p):
        dom = domain if domain is not None else Domain.of_cube(root)
        return morrey_norm_estimate(f, dom, params.q, params.alpha, dyadic_depth=min(depth, 8), root=root)
    return rm_norm_dyadic(f, root, depth, params, offsets=offsets)
