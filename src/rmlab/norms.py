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
    _step_cell_pairs,
    grid_cell_values,
    lq_norm_on_cube,
)
from .geometry import Cube, Domain, _checked_cubes, _overlap_widths, dyadic_children, interiors_pairwise_disjoint

__all__ = [
    "rm_score",
    "rm_norm_dyadic",
    "rm_norm_intervals_1d",
    "riesz_norm",
    "morrey_norm_estimate",
    "DEFAULT_OFFSETS",
    "MAX_DP_CELLS",
    "MAX_INTERVAL_CELLS",
]

DEFAULT_OFFSETS: tuple[float, ...] = (0.0, 1.0 / 3.0, 2.0 / 3.0)
# the DP's bound on 2**(dim * depth), so dim * depth <= 24: a radial power's
# finest-level cells per grid.  A step function's complete levels stop at
# 2**_TOP_BITS = 2**10 cells per grid, so for it the bound caps only the depth
MAX_DP_CELLS = 1 << 24
# grid cells of the O(m**2) interval DP
MAX_INTERVAL_CELLS = 1 << 14


def rm_score(f: FunctionLike, family: Sequence[Cube], params: ParamSpace, check: bool = True) -> float:
    """Exact family score sum_i |Q_i|**(1-p*alpha-p/q) * ||f||_{L^q(Q_i)}**p.

    Zero-mass cubes contribute zero regardless of the volume exponent.
    Raises if the family has overlapping interiors, or if the score
    overflows a double.
    """
    if math.isinf(params.p):
        raise ValueError("family scores need finite p; use the single-cube norm for p = inf")
    cubes = tuple(family)
    if check and not interiors_pairwise_disjoint(cubes):
        raise ValueError("family interiors overlap")
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


def _refuse_unscorable(side: float, root: Cube, params: ParamSpace, cells: str) -> None:
    """ValueError unless a DP's smallest cells, of this side, have a volume v > 0, and v**e (e the score
    exponent) is finite in doubles for them and for the root; v**e is monotone in v, so that bounds every cell's."""
    try:
        if side ** root.dim == 0.0:
            raise ValueError(f"{cells} have volume 0 in doubles")
        (side ** root.dim) ** params.score_exponent, (root.side ** root.dim) ** params.score_exponent
    except OverflowError:  # a float power that overflows raises it
        raise ValueError(f"{cells} or the root have a volume whose power {params.score_exponent!r} "
                         "overflows a double") from None


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


# top-level cells the DP holds per pass over its grids; a larger top level
# gets a pass of its own.  A step function's refined levels grow with the
# grids per pass
_PASS_CELLS = 1 << 16
# a step function's levels are complete down to 2**_TOP_BITS cells per grid,
# level 10 // dim; below them only the cells a piece face cuts are refined.
# The sweep holds up to depth + 1 horizons per row, so every complete level
# costs that many floats per cell
_TOP_BITS = 10


def _pair_sums(a: np.ndarray, kids: int, combine: np.ufunc, root: bool) -> np.ndarray:
    """Combine each run of `kids` children on the last axis into its parent.

    The children are in C order of their axis bits, so adjacent ones differ
    in the last axis's bit, and they pair along one axis at a time, last
    axis first.  A root combines its run in one reduce instead.
    """
    a = a.reshape(a.shape[:-1] + (-1, kids))
    if root:
        return combine.reduce(a.reshape(-1, kids), axis=1).reshape(a.shape[:-1])
    while a.shape[-1] > 1:
        a = combine(a[..., 0::2], a[..., 1::2])
    return a[..., 0]


def _as_rows(a: np.ndarray, n: int, level: int) -> np.ndarray:
    """The cells of grids of (2**level,) * n cells in C order, one grid per
    row of `a`, as the rows of their level: grid by grid, each cell's
    children in one block in C order of their axis bits, the blocks in the
    order of their parents."""
    bits = a.reshape((len(a),) + (2,) * (n * level))  # axis j's bit of level l + 1 on axis 1 + j * level + l
    return bits.transpose([0] + [1 + j * level + l for l in range(level) for j in range(n)]).reshape(-1)


class _Levels:
    """The DP of the grids of one pass, each level one flat array of rows.

    Level 0 has one row per grid.  Level d + 1 holds the 2**n children of
    each refined row of level d, in blocks of 2**n in the order of those
    parents and in C order of their axis bits within a block, so that row
    r's parent is the (r >> n)-th refined row.  Above the top level every
    row is refined, so each level down to the top holds all of its cells.
    A radial power's top is its depth.  A step function's top has at most
    2**_TOP_BITS = 2**10 cells per grid, and below it only the mixed cells
    are refined: those that two or more pieces meet, or one piece that does
    not cover them.  A pure cell, which one piece covers and no other meets,
    has its best subtree in closed form: splitting it multiplies its score
    by 2**(n*p*alpha), so at horizon H a pure cell of level d is worth its
    score for alpha <= 0 (kept whole) and score * 2**(n*p*alpha*(H - d))
    for alpha > 0 (split down to the horizon).  Empty cells drop out.

    Level d holds score[d] and keep[d] (kept whole at the last horizon)
    over its rows, and above the last level pure[d] and refined[d] (the
    refined rows, slice(None) for all of them).  A cell's mass is integral
    |f|**q, or sup |f| for q = inf.  A radial power's come from
    grid_cell_values.  A step function's pure rows take the term of their
    one pair from _step_cell_pairs, and its last level sums its pairs'
    terms.  Every refined row's mass is summed up from its children.  A
    cell's lower corner is origin + w * i at every level.
    """

    def __init__(self, f: FunctionLike, origins: np.ndarray, side: float, top: int, depth: int,
                 params: ParamSpace):
        grids, n = origins.shape
        cells = 1 << top
        self.n, self.side, self.depth, self.params = n, side, depth, params
        self.refined: list[slice | np.ndarray] = [slice(None)] * top
        self.pure = [np.zeros(grids << (n * d), dtype=bool) for d in range(top)]
        if isinstance(f, StepFunction):
            from_top = self._refine(f, origins, top)
        else:
            from_top = [_as_rows(grid_cell_values(f, origins, side / cells, cells, params.q), n, top)]
        masses: list[np.ndarray | None] = [None] * top + from_top
        # each level's masses are scored and then dropped on the way up
        combine = np.maximum if math.isinf(params.q) else np.add
        self.score: list[np.ndarray] = []
        for d in range(depth, -1, -1):
            mass = masses.pop()
            if d < depth:  # a refined row's mass is summed up from its children
                up = _pair_sums(below, 1 << n, combine, d == 0)
                if mass is None:
                    mass = up
                else:
                    mass[self.refined[d]] = up
            self.score.insert(0, _scores((side / (1 << d)) ** n, mass, params))
            below = mass
        self.keep = [np.ones(len(score), dtype=bool) for score in self.score]

    def _refine(self, f: StepFunction, origins: np.ndarray, top: int) -> list[np.ndarray]:
        """The masses of a step function's levels top..depth, refining the
        mixed rows of each.  The (piece, cell, volume, cover) pairs of the
        top cells are scattered once, and each level splits the pairs of its
        mixed rows among their children.  Above the last level only the pure
        rows get a mass, that of their one pair: a refined row's mass is
        summed up from its children, and an empty row's is 0."""
        n, side, depth, params = self.n, self.side, self.depth, self.params
        grids, kids, cells = len(origins), 1 << n, 1 << top
        lows, sides, heights = f._arrays
        lows = lows.reshape(len(sides), n)  # (0, n) for a function without pieces
        weight = heights if math.isinf(params.q) else heights ** params.q
        piece, at, vol, full = _step_cell_pairs(f, origins, side / cells, cells)
        live = heights[piece] > 0.0
        piece, at, vol, full = piece[live], at[live], vol[live], full[live]
        # each pair's row, from the C index of each top row
        flat = _as_rows(np.arange(grids * cells ** n).reshape(grids, -1), n, top)
        row = np.empty_like(flat)
        row[flat] = np.arange(len(flat))
        row, size = row[at], len(flat)
        if top < depth:  # each top pair's grid and cell
            grid, index = np.divmod(at, cells ** n)
            idx = np.unravel_index(index, (cells,) * n)
            bits = (np.arange(kids)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # child c's bit on axis j
        masses = []
        for d in range(top, depth):
            count = np.bincount(row, minlength=size)
            alone = full & (count[row] == 1)  # the one pair of a pure row
            lone = row[alone]
            pure = np.zeros(size, dtype=bool)
            pure[lone] = True
            mass = np.zeros(size)
            mass[lone] = weight[piece[alone]] if math.isinf(params.q) else weight[piece[alone]] * vol[alone]
            masses.append(mass)
            self.pure.append(pure)
            split = (count > 0) & ~pure
            self.refined.append(np.flatnonzero(split))
            # the pairs of the mixed cells, split among their children
            on = ~alone
            row, piece, grid, idx = (np.cumsum(split) - 1)[row[on]], piece[on], grid[on], [i[on] for i in idx]
            w = side / (1 << (d + 1))
            piece_side = sides[piece]
            vol = np.ones((len(piece), 1))
            full = np.ones((len(piece), 1), dtype=bool)
            for j in range(n):
                # a column's 1-D gather is much cheaper than the 2-D lows[piece, j]
                low, origin, twice = lows[:, j][piece], origins[:, j][grid], 2 * idx[j]
                widths = np.stack([_overlap_widths(low, piece_side, origin + w * (twice + b), w) for b in (0, 1)],
                                  axis=1)
                vol = (vol[:, :, None] * widths[:, None, :]).reshape(len(piece), 2 << j)
                full = (full[:, :, None] & (widths == w)[:, None, :]).reshape(len(piece), 2 << j)
            hit = np.flatnonzero(vol)
            pair, kid = hit >> n, hit & (kids - 1)
            row, piece, grid = (row[pair] << n) | kid, piece[pair], grid[pair]
            idx = [2 * i[pair] + bits[:, j][kid] for j, i in enumerate(idx)]
            vol, full = vol.ravel()[hit], full.ravel()[hit]
            size = len(self.refined[-1]) << n
        # every row of the last level is a leaf
        if math.isinf(params.q):
            masses.append(np.zeros(size))
            np.maximum.at(masses[-1], row, weight[piece])
        else:
            # an empty bincount is an integer array
            masses.append(np.bincount(row, weights=weight[piece] * vol, minlength=size).astype(float))
        return masses

    def best(self) -> np.ndarray:
        """Each grid's best score at the horizons 0..depth (axis 0).  Sets
        keep for the last horizon."""
        n, depth, p, alpha = self.n, self.depth, self.params.p, self.params.alpha
        # at level d, best[h] is each row's best score at horizon d + h
        best = self.score[depth][None]
        for d in range(depth - 1, -1, -1):
            score, pure, refined = self.score[d], self.pure[d], self.refined[d]
            split = _pair_sums(best, 1 << n, np.add, d == 0)
            best = np.repeat(score[None], depth - d + 1, axis=0)
            if alpha > 0.0:  # a pure cell of positive score is split down to the horizon
                best[:, pure] *= 2.0 ** (n * p * alpha * np.arange(len(best)))[:, None]
                self.keep[d][pure] = score[pure] == 0.0
            best[1:, refined] = np.maximum(score[refined], split)
            self.keep[d][refined] = score[refined] >= split[-1]
        return best

    def family(self, origin: tuple[float, ...], grid: int) -> tuple[Cube, ...]:
        """The achieving family of one grid, read top-down from the keep arrays.

        Cells of zero score are left out.  The order is depth-first with
        children in dyadic_children order, which for n = 1 is left to right.
        A kept cell is collected as its side and its multi-index packed in
        one int, axis j's index in the `depth` bits from depth * (n - 1 - j)
        up, so that a child's key is its parent's shifted left by one plus
        its axis bits; the cubes are made once at the end, by _checked_cubes.
        """
        n, depth, side = self.n, self.depth, self.side
        keep, score, pure, refined = self.keep, self.score, self.pure, self.refined
        # the key bits of each child code, in C order of its axis bits
        spread = [0]
        for _ in range(n):
            spread = [(bits << depth) | b for bits in spread for b in (0, 1)]
        children = list(enumerate(spread))[::-1]  # popped in dyadic_children order, which is code order
        widths = [side / (1 << d) for d in range(depth + 1)]
        keys, sides = [], []  # of the cells kept
        # (level, key, row of the level), the row None below a split pure cell
        stack: list[tuple[int, int, int | None]] = [(0, 0, grid)]
        while stack:
            d, key, row = stack.pop()
            if d == depth if row is None else keep[d][row]:
                if row is None or score[d][row] > 0.0:
                    keys.append(key)
                    sides.append(widths[d])
                continue
            key <<= 1
            if row is None or pure[d][row]:
                stack.extend([(d + 1, key | bits, None) for _, bits in children])
            else:
                rank = row if isinstance(refined[d], slice) else int(refined[d].searchsorted(row))
                stack.extend([(d + 1, key | bits, (rank << n) | c) for c, bits in children])
        w = np.array(sides)
        index = (np.array(keys, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1) * depth) & ((1 << depth) - 1)
        return _checked_cubes(np.array(origin) + w[:, None] * index, w)


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
    in offset-product order wins.  2**(dim * depth) may not exceed
    MAX_DP_CELLS, so dim * depth <= 24; that many cells per grid are held
    only for a radial power, on its finest level.

    The grids run in passes of _Levels, each one array pass with the
    grids' rows side by side: the masses are summed up and the
    keep-or-split sweep runs from the last level to the root for every
    grid and every horizon at once.  A pass holds at most _PASS_CELLS
    top-level cells, or one grid when its top level alone has more.  The
    top level is the depth for a radial power; for a step function it is
    min(depth, _TOP_BITS // dim) = min(depth, 10 // dim), and below it
    only the cells a piece face cuts are refined, starting from the
    (cell, piece) pairs of the top cells, scattered once per pass.
    Keep-whole arrays are built for the last horizon only, the one the
    certificate is read from.  Raises ValueError if the best score
    overflows a double, or if the cells of the last level have volume 0
    in doubles, or if their volume or the root's has a power volume**e
    that overflows, where the scores cannot be formed.
    """
    if math.isinf(params.p):
        raise ValueError("p = inf routes to morrey_norm_estimate")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = root.dim
    if 1 << (n * depth) > MAX_DP_CELLS:
        raise ValueError(f"depth {depth} in dimension {n} exceeds the budget of {MAX_DP_CELLS} cells")
    _refuse_unscorable(root.side / (1 << depth), root, params, f"the depth-{depth} cells of a root of side {root.side}")
    offset_list = tuple(dict.fromkeys(DEFAULT_OFFSETS if offsets is None else offsets))
    if not offset_list:
        raise ValueError("offsets must not be empty")
    if any(not 0.0 <= o < 1.0 for o in offset_list):
        raise ValueError("offsets must lie in [0, 1)")

    origins = np.array(root.lower) + np.array(list(iter_product(offset_list, repeat=n))) * root.side
    top = min(depth, _TOP_BITS // n) if isinstance(f, StepFunction) else depth
    per_pass = max(1, _PASS_CELLS >> (n * top))
    best_by_depth = [0.0] * (depth + 1)
    best_value = -1.0
    best_family: tuple[Cube, ...] = ()
    with np.errstate(over="ignore"):  # an overflow shows as an infinite score, refused below
        for first in range(0, len(origins), per_pass):
            batch = origins[first:first + per_pass]
            levels = _Levels(f, batch, root.side, top, depth, params)
            best = levels.best()
            for horizon, value in enumerate(best.max(axis=1).tolist()):
                best_by_depth[horizon] = max(best_by_depth[horizon], value)
            g = int(np.argmax(best[depth]))  # the first best grid, as the strict > keeps the first across passes
            if best[depth, g] > best_value:
                best_value = float(best[depth, g])
                best_family = levels.family(tuple(batch[g].tolist()), g)
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
    Raises ValueError if the best score overflows a double, or if the
    narrowest grid cell has volume 0, or it or the root has an
    overflowing power volume**e.
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
    _refuse_unscorable(float(np.diff(edges).min()), root, params, f"the {m} grid cells of a root of side {root.side}")
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
    return NormEstimate(value, LOWER_BOUND, certificate=tuple(reversed(pieces)), trace=((float(m), value),))


# ---------------------------------------------------------------------------
# specializations
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
    if dyadic_depth < 0:
        raise ValueError("dyadic_depth must be >= 0")
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
    cert = (best_cube,) if best_cube is not None else ()
    return NormEstimate(best, LOWER_BOUND, certificate=cert, trace=((float(len(candidates)), best),))
