"""Generators for the explicit extremal functions of the toolkit.

Four constructions are produced here:

* the sparse family P_l = [2**l, 2**l + l**(-1/n)]**n on the whole space,
  whose indicator sum has unit volumes 1/l and exponentially growing gaps;
* the diagonal descendant tree on a cube: level i holds 2**i open cubes
  of side 2**(-(i+1)**2/(2n)) centered on the main diagonal, children
  placed at per-axis gap d_{i-1} on both sides of their parent, with the
  first few gaps widened so that every cube stays clear of all of its
  descendants;
* the split of |x|**(n(alpha - 1/p)) on the positive orthant into its
  inner part on (0, 1]^n and outer part, with the per-ring score constant;
* nested shell thresholds 1 = t_0 > t_1 > ... inside [-1, 1] carving a
  prescribed power-law mass into each shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .funcrep import (
    ParamSpace,
    RadialPower,
    StepFunction,
    positive_orthant_sphere_measure,
)
from .geometry import Cube, _checked_cubes
from .series import power_series_sum, power_series_tail

__all__ = [
    "sparse_family",
    "sparse_function",
    "tree_side_length",
    "modification_cutoff",
    "descendant_reach",
    "TreeSpacing",
    "TreeConstruction",
    "build_tree",
    "tree_function",
    "PowerSplit",
    "power_split",
    "ShellConstruction",
    "shell_thresholds",
]


# ---------------------------------------------------------------------------
# sparse family on the whole space
# ---------------------------------------------------------------------------

def sparse_family(count: int, dim: int = 1) -> tuple[Cube, ...]:
    """Cubes [2**l, 2**l + l**(-1/n)]**n for l = 1..count.

    Volume of the l-th cube is exactly 1/l; consecutive cubes are separated
    by gaps 2**(l+1) - 2**l - l**(-1/n) > 0, growing exponentially.  The
    count stops at 1023, the last l whose corner 2**l is a finite double.
    """
    if not 1 <= count <= 1023:
        raise ValueError(f"count must be in 1..1023, got {count}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return tuple(Cube((2.0 ** l,) * dim, l ** (-1.0 / dim)) for l in range(1, count + 1))


def sparse_function(count: int, dim: int = 1) -> StepFunction:
    """Indicator sum of the sparse family (all heights 1)."""
    return StepFunction(tuple((c, 1.0) for c in sparse_family(count, dim)))


# ---------------------------------------------------------------------------
# descendant tree on a cube
# ---------------------------------------------------------------------------

def tree_side_length(i: int, dim: int) -> float:
    """Side length of a level-i tree cube: 2**(-(i+1)**2 / (2n)).

    It is also the raw (unwidened) per-axis gap between a level-i cube and
    each of its children.  It is formed as 2**-a * 2**(-b/(2n)) with
    (i+1)**2 = 2n*a + b and b < 2n, so the rounded exponent is below 1 in size.
    """
    a, b = divmod((i + 1) ** 2, 2 * dim)
    return math.ldexp(2.0 ** (-b / (2.0 * dim)), -a)


def modification_cutoff(dim: int) -> int:
    """Smallest level N0 beyond which raw gaps provably clear all descendants.

    Uses the geometric comparison: the per-axis descendant reach below a
    level-(i+1) cube is under ((2**(1/2n)+1)/(2**(1/2n)-1)) * d_{i+1}, so
    the gap at level i stays above d_i/2 once
    (2**(1/2n)+1)/(2**(1/2n)-1) * 2**(-(2i+3)/(2n)) < 1/2.  The left side
    is strictly decreasing in i, so the first passing index settles every
    later level; N0 is that index minus one (the last failing level).
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    ratio = (2.0 ** (1.0 / (2.0 * dim)) + 1.0) / (2.0 ** (1.0 / (2.0 * dim)) - 1.0)
    i = 0
    while ratio * 2.0 ** (-(2 * i + 3) / (2.0 * dim)) >= 0.5:
        i += 1
        if i > 10_000:
            raise RuntimeError("cutoff scan did not terminate")
    return max(i - 1, 0)


def descendant_reach(level: int, dim: int) -> float:
    """Per-axis reach below a level cube of the raw tree: the sum over
    k >= level of d_k + l_(k+1), with d_k = l_k.

    Term k+1 is at most 2**(-(2k+3)/(2n)) times term k, and the terms with
    (k+1)**2 - (level+1)**2 > 120n are below 2**-60 of the first, so they
    are left out; the rest are summed exactly rounded (math.fsum).
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    top = math.isqrt((level + 1) ** 2 + 120 * dim)  # the last k + 1 kept
    lengths = [tree_side_length(k, dim) for k in range(level, top + 1)]
    return math.fsum(lengths[:-1] + lengths[1:])


@dataclass(frozen=True)
class TreeSpacing:
    """Gap bookkeeping for the descendant tree.

    Levels 0..cutoff carry widened per-axis gaps d_i = 2 * reach(i+1);
    beyond the cutoff the raw gaps are already safe.  One backward pass,
    from the cutoff to level 0, sets d_i and reach(i) = d_i + l_(i+1) +
    reach(i+1), starting from the raw reach below cutoff + 1, so each
    widened-level reach is computed once and the closest-approach gap at
    level i is exactly sqrt(n) * reach(i+1) > 0.
    """

    dim: int
    cutoff: int
    widened: tuple[float, ...]  # d_0 .. d_cutoff
    reaches: tuple[float, ...]  # reach(0) .. reach(cutoff + 1)

    @classmethod
    def build(cls, dim: int) -> "TreeSpacing":
        n0 = modification_cutoff(dim)
        reaches = [descendant_reach(n0 + 1, dim)]
        widened = []
        for i in range(n0, -1, -1):
            widened.append(2.0 * reaches[-1])
            reaches.append(widened[-1] + tree_side_length(i + 1, dim) + reaches[-1])
        return cls(dim=dim, cutoff=n0, widened=tuple(widened[::-1]), reaches=tuple(reaches[::-1]))

    def length(self, i: int) -> float:
        return tree_side_length(i, self.dim)

    def distance(self, i: int) -> float:
        """Per-axis gap between a level-i cube and each of its children."""
        if i <= self.cutoff:
            return self.widened[i]
        return tree_side_length(i, self.dim)

    def reach(self, i: int) -> float:
        if i <= self.cutoff + 1:
            return self.reaches[i]
        return descendant_reach(i, self.dim)

    def radius(self, i: int) -> float:
        """Euclidean descendant radius below level i."""
        return math.sqrt(self.dim) * self.reach(i)

    def gap(self, i: int) -> float:
        """Euclidean closest approach between a level-i cube and its descendants."""
        return math.sqrt(self.dim) * (self.distance(i) - self.reach(i + 1))


@dataclass(frozen=True)
class TreeConstruction:
    """Materialized diagonal tree: levels of cubes plus all gap data."""

    dim: int
    depth: int
    params: ParamSpace
    spacing: TreeSpacing
    domain_side: float
    levels: tuple[tuple[Cube, ...], ...]

    @property
    def cutoff(self) -> int:
        return self.spacing.cutoff

    @property
    def domain(self) -> Cube:
        return Cube((-0.5 * self.domain_side,) * self.dim, self.domain_side)

    def height(self, i: int) -> float:
        """Level-i height 2**((1/p - alpha) * i**2 / 2)."""
        return 2.0 ** (0.5 * (1.0 / self.params.p - self.params.alpha) * i * i)

    def lengths(self) -> tuple[float, ...]:
        return tuple(self.spacing.length(i) for i in range(self.depth + 1))

    def distances(self) -> tuple[float, ...]:
        return tuple(self.spacing.distance(i) for i in range(self.depth + 1))

    def raw_distances(self) -> tuple[float, ...]:
        return tuple(tree_side_length(i, self.dim) for i in range(self.depth + 1))

    def radii(self) -> tuple[float, ...]:
        return tuple(self.spacing.radius(i) for i in range(self.depth + 1))

    def gaps(self) -> tuple[float, ...]:
        return tuple(self.spacing.gap(i) for i in range(self.depth + 1))

    def all_cubes(self) -> tuple[Cube, ...]:
        return tuple(chain.from_iterable(self.levels))


# the deepest 1-D tree: build_tree makes no tree with more cube coordinates,
# n * (2**(depth + 1) - 1), than the 1-D tree of this depth
_TREE_MAX_DEPTH = 18


def build_tree(dim: int, depth: int, params: ParamSpace) -> TreeConstruction:
    """Build the diagonal descendant tree to the given depth.

    Level 0 is one cube of side l_0 centered at the origin; every cube at
    level i-1 spawns two children of side l_i whose centers sit on the
    diagonal at per-axis offset l_{i-1}/2 + d_{i-1} + l_i/2, giving the
    children Euclidean distance sqrt(n) * d_{i-1} from the parent.  The
    ambient cube side is l_0 + 2 * radius(0) + 1, strictly larger than the
    reach of the whole construction.  A tree may hold no more cube
    coordinates than the 1-D tree of depth _TREE_MAX_DEPTH.
    """
    params.require_intermediate_regime()
    if depth < 0:
        raise ValueError("depth must be >= 0")
    most = 2 ** (_TREE_MAX_DEPTH + 1) - 1
    if depth > _TREE_MAX_DEPTH or dim * (2 ** (depth + 1) - 1) > most:
        raise ValueError(
            f"a depth-{depth} tree in {dim}-D would hold {dim} * (2**{depth + 1} - 1) cube coordinates, "
            f"more than the {most} of the 1-D depth-{_TREE_MAX_DEPTH} tree"
        )
    spacing = TreeSpacing.build(dim)
    l0 = spacing.length(0)
    centers = [0.0]
    levels = [(Cube((-0.5 * l0,) * dim, l0),)]
    for i in range(1, depth + 1):
        li = spacing.length(i)
        offset = 0.5 * spacing.length(i - 1) + spacing.distance(i - 1) + 0.5 * li
        centers = [c + s * offset for c in centers for s in (-1.0, 1.0)]
        half = 0.5 * li
        levels.append(_checked_cubes([(m - half,) * dim for m in centers], [li] * len(centers)))
    domain_side = l0 + 2.0 * spacing.radius(0) + 1.0
    return TreeConstruction(
        dim=dim,
        depth=depth,
        params=params,
        spacing=spacing,
        domain_side=domain_side,
        levels=tuple(levels),
    )


def tree_function(tree: TreeConstruction) -> StepFunction:
    """Step function with height 2**((1/p - alpha) i**2 / 2) on each level-i cube."""
    pieces = []
    for i, fam in enumerate(tree.levels):
        h = tree.height(i)
        for cube in fam:
            pieces.append((cube, h))
    return StepFunction(tuple(pieces))


def tree_level_mass_log2(params: ParamSpace, level: int, q: float) -> float:
    """log2 of h_level**q * l_level**n; n cancels since l**n = 2**(-(i+1)**2/2)."""
    return 0.5 * q * (1.0 / params.p - params.alpha) * level * level - 0.5 * (level + 1) ** 2


def tree_descendant_mass_log2(params: ParamSpace, level: int, q: float) -> float:
    """log2 of the |f|**q mass of the full descendant set of one level cube.

    The sum over k >= level of 2**(k-level) * h_k**q * l_k**n is assembled
    from log2 exponents relative to the leading term, so the huge-height,
    tiny-volume products of deep levels never overflow.
    """
    base = tree_level_mass_log2(params, level, q)
    ratio_total = 0.0
    k = level
    while True:
        term = 2.0 ** ((k - level) + tree_level_mass_log2(params, k, q) - base)
        ratio_total += term
        if term <= 1e-16 * ratio_total and k >= level + 4:
            return base + math.log2(ratio_total)
        k += 1
        if k > level + 100_000:
            raise RuntimeError("descendant mass summation did not converge")


# ---------------------------------------------------------------------------
# radial power split on the positive orthant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSplit:
    """|x|**(n(alpha-1/p)) split at the unit cube corner region (0, 1]^n.

    `ring_score_floor` is the i-independent constant bounding from below
    the family score of any grid ring: the ring between (0, N**i]^n and
    (0, N**(i+1)]^n is tiled by N**n - 1 cubes of side N**i, and the
    power-sum inequality plus the inscribed orthant annulus give

        (N**n - 1)**(1 - p/q)
        * [ S_plus * (N**(s_q+n) - sqrt(n)**(s_q+n)) / (s_q + n) ]**(p/q)

    with s_q = q n (alpha - 1/p) and S_plus the orthant sphere measure.
    """

    grid_base: int
    dim: int
    params: ParamSpace
    function: RadialPower
    inner_cube: Cube

    def __post_init__(self) -> None:
        if self.grid_base < 2 or self.grid_base ** 2 <= self.dim:
            raise ValueError("grid base must satisfy N >= 2 and N > sqrt(n)")

    @property
    def lq_exponent(self) -> float:
        """s_q = q * n * (alpha - 1/p), the exponent of |f|**q."""
        return self.params.q * self.function.exponent

    @property
    def orthant_sphere_measure(self) -> float:
        return positive_orthant_sphere_measure(self.dim)

    @property
    def ring_score_floor(self) -> float:
        n, N = self.dim, self.grid_base
        p, q = self.params.p, self.params.q
        e = self.lq_exponent + n
        if e <= 0.0:
            raise ValueError("degenerate exponent: q*n*alpha - q*n/p + n must be positive")
        annulus = self.orthant_sphere_measure * (N ** e - math.sqrt(n) ** e) / e
        return (N ** n - 1) ** (1.0 - p / q) * annulus ** (p / q)


def power_split(grid_base: int, dim: int, params: ParamSpace) -> PowerSplit:
    """Split descriptor for the critical radial power on the orthant."""
    params.require_intermediate_regime()
    f = RadialPower.from_params(params, dim)
    inner = Cube((0.0,) * dim, 1.0)
    split = PowerSplit(grid_base=grid_base, dim=dim, params=params, function=f, inner_cube=inner)
    # fail fast on degenerate exponents
    _ = split.ring_score_floor
    return split


# ---------------------------------------------------------------------------
# shell thresholds inside [-1, 1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellConstruction:
    """Thresholds 1 = t_0 > t_1 > ... carving power-law mass into shells.

    For the full-cube set E = [-1, 1] the k-th shell
    [-t_{k-1}, -t_k] union [t_k, t_{k-1}] receives mass
    (|E|/2) * k**e / Z where e = 1/(p*alpha - 1) < -1 and Z is the full
    series sum of l**e.  That holds for every k >= 2; t_0 is pinned at 1,
    so shell 1 also carries the outer half of E.
    """

    p: float
    alpha: float
    thresholds: tuple[float, ...]  # t_1 .. t_K
    normalizer: float

    @property
    def exponent(self) -> float:
        return 1.0 / (self.p * self.alpha - 1.0)

    def threshold(self, k: int) -> float:
        """t_k with the convention t_0 = 1."""
        if k == 0:
            return 1.0
        return self.thresholds[k - 1]


def shell_thresholds(p: float, alpha: float, count: int) -> ShellConstruction:
    """Thresholds t_k = tail(k+1) / (2Z) for E = [-1, 1].

    g(t) = |[-t, t] intersect E| = 2t must equal (|E|/2) * tail(k+1)/Z,
    where tail(k+1) sums l**e over l >= k+1; |E| = 2 cancels the half, so
    t_k is the closed-form root of a linear equation.  Requires p*alpha in
    (0, 1) so that the series normalizer converges.
    """
    if not 0.0 < p * alpha < 1.0:
        raise ValueError(f"need 0 < p*alpha < 1 for a convergent normalizer, got p*alpha={p * alpha}")
    if count < 1:
        raise ValueError("count must be >= 1")
    e = 1.0 / (p * alpha - 1.0)
    z = power_series_sum(e)
    thresholds = tuple(power_series_tail(e, k, rel_scale=z) / (2.0 * z) for k in range(1, count + 1))
    return ShellConstruction(p=p, alpha=alpha, thresholds=thresholds, normalizer=z)
