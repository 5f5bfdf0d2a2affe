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
from .funcrep import (
    FunctionLike,
    ParamSpace,
    RadialPower,
    StepFunction,
    _step_cell_masses,
    _step_cell_pairs,
    grid_cell_values,
    lq_norm_on_cube,
)
from .geometry import Cube, CubeFamily, Domain, _overlap_widths, dyadic_children, interiors_pairwise_disjoint

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
    Raises if the family has overlapping interiors or leaves the domain,
    or if the score overflows a double.
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
    try:
        with np.errstate(over="ignore"):
            for c in cubes:
                norm_q = lq_norm_on_cube(f, c, params.q)
                if norm_q > 0.0:
                    total += c.volume ** e * norm_q ** params.p
    except OverflowError:
        total = math.inf
    _refuse_overflow(total, f, params.q)
    return total


def _refuse_overflow(score: float, f: FunctionLike, q: float) -> None:
    """ValueError if the score is infinite by overflow.  Only the sup (q = inf)
    of a radial power with a negative exponent is truly infinite."""
    if math.isinf(score) and not (math.isinf(q) and isinstance(f, RadialPower) and f.exponent < 0.0):
        raise ValueError("the score overflows a double")


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


# even and odd cells along axis j; axis 0 holds the grids, and a coarsened
# grid has depth >= 1, so dim <= 24
_EVEN, _ODD = (tuple((slice(None),) * j + (slice(b, None, 2),) for j in range(25)) for b in (0, 1))
# dense top-level cells the DP holds per pass over its grids; a larger top level
# gets a pass of its own.  A step function's tail arrays grow with the grids per pass
_PASS_CELLS = 1 << 16
# a step function's dense levels stop at 2**_TOP_BITS cells per grid; below
# them only the cells a piece face cuts are refined
_TOP_BITS = 12


def _coarsen(a: np.ndarray, combine: np.ufunc) -> np.ndarray:
    """Combine each block of 2**n child cells into its parent cell, grid by grid.

    Axis 0 of `a` holds the grids.  Cells pair along one axis at a time,
    last axis first: the order of a reduce over the (half, 2)**n blocks in
    1-D and 2-D.  That reduce adds the root's 2**n children as one run
    instead, so the root keeps it.
    """
    if a.shape[1] == 2:
        return combine.reduce(a.reshape(len(a), -1), axis=1).reshape((len(a),) + (1,) * (a.ndim - 1))
    for j in range(a.ndim - 1, 0, -1):
        a = combine(a[_EVEN[j]], a[_ODD[j]])
    return a


def _pair_sums(a: np.ndarray, kids: int, combine: np.ufunc) -> np.ndarray:
    """Combine each run of `kids` children on the last axis into its parent,
    in _coarsen's pairing order: the children are in C order of their axis
    bits, so adjacent ones differ in the last axis's bit."""
    a = a.reshape(a.shape[:-1] + (-1, kids))
    while a.shape[-1] > 1:
        a = combine(a[..., 0::2], a[..., 1::2])
    return a[..., 0]


class _Tail:
    """A step function's DP from its top level down, for the grids of one pass.

    Only the mixed cells get children: those that two or more pieces
    meet, or one piece that does not cover them.  A pure cell, which one
    piece covers and no other meets, has its best subtree in closed form:
    splitting it multiplies its score by 2**(n*p*alpha), so at horizon H
    a pure cell of level d is worth its score for alpha <= 0 (kept whole,
    as the dense tie rule keeps it) and score * 2**(n*p*alpha*(H - d))
    for alpha > 0 (split down to the horizon).  Empty cells drop out.  A
    cell's lower corner is origin + w * i at every level, as in the dense
    levels, and the mass of a mixed cell is summed up from its children in
    _coarsen's order.

    Level top + k holds the arrays mass[k] (integral |f|**q, or sup |f|
    for q = inf), pure[k] (exactly one piece meets the cell, and it
    covers the cell), mixed[k] (the rows refined one level further),
    score[k] and keep[k] (kept whole at the last horizon) over its rows.
    At the top the rows are the top cells a piece meets; below it they
    are the 2**n children, empty ones too, of each mixed cell one level
    up, in blocks of 2**n in the order of those parents, so that row r's
    parent is the (r >> n)-th.
    """

    def __init__(self, f: StepFunction, origins: np.ndarray, side: float, top: int, depth: int,
                 params: ParamSpace, pairs: tuple[np.ndarray, np.ndarray, np.ndarray], top_mass: np.ndarray):
        """`pairs` are the grids' top-level (piece, flat, volume) pairs from
        _step_cell_pairs, and `top_mass` their masses from _step_cell_masses;
        the masses of the mixed top cells in it are replaced by the sums of
        their children."""
        n = origins.shape[1]
        kids, cells = 1 << n, 1 << top
        self.n, self.top, self.depth, self.params = n, top, depth, params
        lows, sides, heights = f._arrays
        lows = lows.reshape(len(sides), n)  # (0, n) for a function without pieces
        weight = heights if math.isinf(params.q) else heights ** params.q
        # the pairs (row, piece, volume) of the top cells a piece meets
        piece, flat, vol = pairs
        live = heights[piece] > 0.0
        piece, flat, vol = piece[live], flat[live], vol[live]
        met = np.bincount(flat, minlength=top_mass.size) > 0
        self.top_cells = np.flatnonzero(met)  # grid * cells**n + C index of the cell
        row = (np.cumsum(met) - 1)[flat]
        grid, index = np.divmod(self.top_cells, cells ** n)
        idx = list(np.unravel_index(index, (cells,) * n))
        full = np.ones(len(piece), dtype=bool)
        for j in range(n):
            lo = origins[grid, j] + side / cells * idx[j]
            full &= _overlap_widths(lows[piece, j], sides[piece], lo[row], side / cells) == side / cells
        bits = (np.arange(kids)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # child c's bit on axis j
        self.mass, self.pure, self.mixed = [top_mass.flat[self.top_cells]], [], []
        size = len(self.top_cells)
        for d in range(top, depth + 1):
            if d > top:
                if math.isinf(params.q):
                    self.mass.append(np.zeros(size))
                    np.maximum.at(self.mass[-1], row, weight[piece])
                else:
                    # an empty bincount is an integer array
                    self.mass.append(np.bincount(row, weights=weight[piece] * vol, minlength=size).astype(float))
            count = np.bincount(row, minlength=size)
            self.pure.append((count == 1) & (np.bincount(row[full], minlength=size) == 1))
            split = (count > 0) & ~self.pure[-1] if d < depth else np.zeros(size, dtype=bool)
            self.mixed.append(np.flatnonzero(split))
            if d == depth:
                break
            # the pairs of the mixed cells, split among their children
            on = split[row]
            row, piece = (np.cumsum(split) - 1)[row[on]], piece[on]
            if d == top:
                grid, idx = grid[self.mixed[-1]], [i[self.mixed[-1]] for i in idx]
            else:  # from the grid and index of each row's parent
                parent, bit = self.mixed[-1] >> n, self.mixed[-1] & (kids - 1)
                grid, idx = grid[parent], [2 * i[parent] + bits[bit, j] for j, i in enumerate(idx)]
            w = side / (1 << (d + 1))
            vol = np.ones((len(piece), 1))
            full = np.ones((len(piece), 1), dtype=bool)
            for j in range(n):
                low, piece_side = lows[piece, j], sides[piece]
                widths = np.stack([_overlap_widths(low, piece_side, (origins[grid, j] + w * (2 * idx[j] + b))[row], w)
                                   for b in (0, 1)], axis=1)
                vol = (vol[:, :, None] * widths[:, None, :]).reshape(len(piece), 2 << j)
                full = (full[:, :, None] & (widths == w)[:, None, :]).reshape(len(piece), 2 << j)
            hit = np.flatnonzero(vol)
            pair = hit >> n
            row, piece = (row[pair] << n) | (hit & (kids - 1)), piece[pair]
            vol, full = vol.ravel()[hit], full.ravel()[hit]
            size = len(grid) << n
        # the mixed cells' masses, from the deepest level up
        combine = np.maximum if math.isinf(params.q) else np.add
        for k in range(depth - top - 1, -1, -1):
            self.mass[k][self.mixed[k]] = _pair_sums(self.mass[k + 1], kids, combine)
        top_mass.flat[self.top_cells] = self.mass[0]
        self.score = [_scores((side / (1 << d)) ** n, mass, params) for d, mass in enumerate(self.mass, top)]
        self.keep = [np.ones(len(mass), dtype=bool) for mass in self.mass]
        self.shape = top_mass.shape

    def best(self) -> tuple[np.ndarray, np.ndarray]:
        """Each top cell's best score at the horizons top + 1 .. depth (axis
        0), and whether it is kept whole at the last one.  Sets `keep` for
        the last horizon."""
        n, top, depth, alpha = self.n, self.top, self.depth, self.params.alpha
        # at level top + k, best[h] is each row's best score at horizon top + k + h
        best = self.score[-1][None]
        for k in range(depth - top - 1, -1, -1):
            score, pure, mixed = self.score[k], self.pure[k], self.mixed[k]
            split = _pair_sums(best, 1 << n, np.add)
            best = np.repeat(score[None], depth - top - k + 1, axis=0)
            if alpha > 0.0:
                best[:, pure] *= 2.0 ** (n * self.params.p * alpha * np.arange(len(best)))[:, None]
            best[1:, mixed] = np.maximum(score[mixed], split)
            self.keep[k][pure] = (alpha <= 0.0) | (score[pure] == 0.0)
            self.keep[k][mixed] = score[mixed] >= split[-1]
        size = math.prod(self.shape)
        out = np.zeros((depth - top, size))
        out[:, self.top_cells] = best[1:]
        kept = np.ones(size, dtype=bool)
        kept[self.top_cells] = self.keep[0]
        return out.reshape((depth - top,) + self.shape), kept.reshape(self.shape)

    def family(self, origin: tuple[float, ...], side: float, grid: int, index: tuple[int, ...]) -> list[Cube]:
        """The cells kept whole at the last horizon below one top cell that is
        split, in _read_family's order."""
        n, top = self.n, self.top
        children = list(iter_product((0, 1), repeat=n))[::-1]  # popped in dyadic_children order
        kids = [sum(b << (n - 1 - j) for j, b in enumerate(bits)) for bits in children]
        flat = grid * (1 << top * n) + int(np.ravel_multi_index(index, (1 << top,) * n))
        cells = []
        # (level, multi-index, row of the level), the row None below a split pure cell
        stack: list[tuple[int, tuple[int, ...], int | None]] = [
            (top, index, int(np.searchsorted(self.top_cells, flat)))
        ]
        while stack:
            d, i, row = stack.pop()
            if row is None:
                kept, score, pure = d == self.depth, 1.0, True
            else:
                kept, score, pure = self.keep[d - top][row], self.score[d - top][row], self.pure[d - top][row]
            if kept:
                if score > 0.0:
                    w = side / (1 << d)
                    cells.append(Cube(tuple(o + w * k for o, k in zip(origin, i)), w))
                continue
            if pure:
                rows = [None] * len(kids)
            else:
                rank = int(np.searchsorted(self.mixed[d - top], row))
                rows = [(rank << n) + c for c in kids]
            stack.extend((d + 1, tuple(2 * k + b for k, b in zip(i, bits)), r) for bits, r in zip(children, rows))
        return cells


def _read_family(
    origin: tuple[float, ...],
    side: float,
    scores: list[np.ndarray],
    keep: list[np.ndarray],
    tail: _Tail | None,
    grid: int,
) -> CubeFamily:
    """The achieving family of one grid, read top-down from the keep arrays
    of its dense levels, and from the tail below a top cell that is split.

    Cells of zero score are left out.  The order is depth-first with
    children in dyadic_children order, which for n = 1 is left to right.
    """
    n = len(origin)
    top = len(keep) - 1
    children = list(iter_product((0, 1), repeat=n))[::-1]  # popped in dyadic_children order
    cells = []
    stack = [(0, (0,) * n)]
    while stack:
        d, i = stack.pop()
        if keep[d][i]:
            if scores[d][i] > 0.0:
                w = side / (1 << d)
                cells.append(Cube(tuple(o + w * k for o, k in zip(origin, i)), w))
        elif d < top:
            stack.extend((d + 1, tuple(2 * k + b for k, b in zip(i, bits))) for bits in children)
        else:
            cells.extend(tail.family(origin, side, grid, i))
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
    running maxima as trace; of grids with equal best scores the first
    in offset-product order wins.  A grid's finest level may hold at most
    MAX_DP_CELLS cells, so depth * dim <= 24.

    The grids run in passes, each one array pass with the grids on a
    leading axis: their top-level cell masses come from one
    grid_cell_values call, or from its two steps when a tail follows, and
    the mass pyramid and the keep-or-split sweep work on every grid and
    every horizon at once.  A pass holds at most _PASS_CELLS dense
    top-level cells, or one grid when its top level alone has more.
    Keep-whole arrays are built for the last horizon only, the one the
    certificate is read from.

    The dense pyramid of a step function stops at a top level of at most
    2**_TOP_BITS cells per grid, min(depth, _TOP_BITS // dim).  Below it
    only the mixed cells are refined, those that two or more pieces meet,
    or one piece that does not cover them, starting from the (cell,
    piece) pairs that the top masses were summed from, scattered once per
    pass; the tail's arrays grow with the grids per pass.  A pure cell,
    which one piece covers and no other meets, has a closed-form best
    subtree: splitting it multiplies its score by 2**(n*p*alpha), so it
    is kept whole for alpha <= 0 and split down to the horizon for
    alpha > 0.  Empty cells drop out.  A mixed top cell's mass is summed
    up from its children.  A radial power has no pure cell, so its top
    is the full depth.  Raises ValueError if the best score overflows a
    double.
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

    origins = np.array(root.lower) + np.array(list(iter_product(offset_list, repeat=n))) * root.side
    combine = np.maximum if math.isinf(params.q) else np.add
    top = min(depth, _TOP_BITS // n) if isinstance(f, StepFunction) else depth
    best_by_depth = [0.0] * (depth + 1)
    best_value = -1.0
    best_family: CubeFamily = CubeFamily(())
    width, cells = root.side / (1 << top), 1 << top
    per_pass = max(1, _PASS_CELLS >> (n * top))
    with np.errstate(over="ignore"):  # an overflow shows as an infinite score, refused below
        for first in range(0, len(origins), per_pass):
            batch = origins[first:first + per_pass]
            if top < depth:  # a step function: one scatter feeds its top masses and its tail
                pairs = _step_cell_pairs(f, batch, width, cells)
                values = _step_cell_masses(f, pairs, (len(batch),) + (cells,) * n, params.q)
                tail = _Tail(f, batch, root.side, top, depth, params, pairs, values)
            else:
                values, tail = grid_cell_values(f, batch, width, cells, params.q), None
            scores = []
            for d in range(top, -1, -1):
                scores.append(_scores((root.side / (1 << d)) ** n, values, params))
                if d:
                    values = _coarsen(values, combine)
            scores.reverse()

            # best[k] holds each cell's best score at horizon d + k, for every
            # horizon at once; keep arrays are built for the last horizon only
            if tail is None:
                best, kept = scores[depth][None], np.ones(scores[depth].shape, dtype=bool)
            else:
                best, kept = tail.best()
                best = np.concatenate([scores[top][None], best])
            keep = [kept]
            for d in range(top - 1, -1, -1):
                split = _coarsen(best.reshape((-1,) + best.shape[2:]), np.add)
                split = split.reshape(best.shape[:2] + split.shape[1:])
                keep.append(scores[d] >= split[-1])
                last = np.where(keep[-1], scores[d], split[-1])
                best = np.concatenate([scores[d][None], np.maximum(scores[d], split[:-1]), last[None]])
            keep.reverse()
            for horizon in range(depth):
                best_by_depth[horizon] = max(best_by_depth[horizon], float(best[horizon].max()))
            best = best[depth].reshape(-1)
            g = int(np.argmax(best))  # the first best grid, as the strict > keeps the first across passes
            best_by_depth[depth] = max(best_by_depth[depth], float(best[g]))
            if best[g] > best_value:
                best_value = float(best[g])
                best_family = _read_family(
                    tuple(batch[g].tolist()), root.side, [s[g] for s in scores], [k[g] for k in keep], tail, g
                )
    _refuse_overflow(best_value, f, params.q)

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
    Raises ValueError if the best score overflows a double.
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
    combine = np.maximum if math.isinf(params.q) else np.add
    best = np.zeros(m + 1)
    start = np.zeros(m + 1, dtype=np.int64)
    with np.errstate(over="ignore"):  # an overflow shows as an infinite score, refused below
        cells = grid_cell_values(f, np.array([[lo]]), w, m, params.q)[0]
        for j in range(1, m + 1):
            # mass and score of [i, j) for i = 0..j-1
            mass = combine.accumulate(cells[j - 1::-1])[::-1]
            total = best[:j] + _scores(edges[j] - edges[:j], mass, params)
            start[j] = np.argmax(total)
            best[j] = total[start[j]]
    _refuse_overflow(float(best[m]), f, params.q)
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

def riesz_norm(f: FunctionLike, root: Cube, p: float, depth: int) -> NormEstimate:
    """Partition norm at (p, q=1, alpha=0): sum |Q_i| (average |f| on Q_i)**p.

    At a depth resolving the constancy scale of a step function this equals
    the L^p norm on the root.  The one grid is the aligned one, so the
    certificate stays inside the root cube.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("Riesz norm needs p in (1, inf)")
    return rm_norm_dyadic(f, root, depth, ParamSpace(p, 1.0, 0.0), offsets=(0.0,))


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
                if side > 0.0:  # a run of supports below the ulp of its position rounds to 0
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
