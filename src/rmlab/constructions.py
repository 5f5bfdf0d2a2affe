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
from typing import Callable

from .funcrep import (
    ParamSpace,
    RadialPower,
    StepFunction,
    positive_orthant_sphere_measure,
)
from .geometry import Cube, CubeFamily, ring_subdivision
from .series import power_series_sum, power_series_tail

__all__ = [
    "sparse_family",
    "sparse_function",
    "tree_side_length",
    "modification_cutoff",
    "descendant_reach",
    "descendant_radius",
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

def sparse_family(count: int, dim: int = 1) -> CubeFamily:
    """Cubes [2**l, 2**l + l**(-1/n)]**n for l = 1..count.

    Volume of the l-th cube is exactly 1/l; consecutive cubes are separated
    by gaps 2**(l+1) - 2**l - l**(-1/n) > 0, growing exponentially.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    cubes = []
    for l in range(1, count + 1):
        lo = 2.0 ** l
        cubes.append(Cube((lo,) * dim, l ** (-1.0 / dim)))
    return CubeFamily(tuple(cubes))


def sparse_function(count: int, dim: int = 1) -> StepFunction:
    """Indicator sum of the sparse family (all heights 1)."""
    return StepFunction(tuple((c, 1.0) for c in sparse_family(count, dim)))


# ---------------------------------------------------------------------------
# descendant tree on a cube
# ---------------------------------------------------------------------------

def tree_side_length(i: int, dim: int) -> float:
    """Side length of a level-i tree cube: 2**(-(i+1)**2 / (2n)).

    It is also the raw (unwidened) per-axis gap between a level-i cube and
    each of its children.
    """
    return 2.0 ** (-((i + 1) ** 2) / (2.0 * dim))


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


def descendant_reach(
    level: int,
    dim: int,
    distance: Callable[[int], float] | None = None,
    rel_tol: float = 1e-14,
) -> float:
    """Per-axis reach below a level cube: sum over k >= level of d_k + l_{k+1}.

    `distance` may replace the raw gap sequence on an initial segment of
    indices (as the widening step does); beyond it the raw super-geometric
    decay bounds the tail, which is summed until it falls below rel_tol of
    the accumulated value.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    dist = distance if distance is not None else (lambda k: tree_side_length(k, dim))
    total = 0.0
    k = level
    while True:
        total += dist(k) + tree_side_length(k + 1, dim)
        # raw-sequence tail bound: both summand streams beyond k decay at
        # least geometrically with ratio 2**(-(2k+5)/(2n)); only valid once
        # the summation has left the (initial-segment) modified range
        beyond_modified = dist(k + 1) == tree_side_length(k + 1, dim)
        r = 2.0 ** (-(2 * k + 5) / (2.0 * dim))
        tail = (tree_side_length(k + 1, dim) + tree_side_length(k + 2, dim)) / (1.0 - r)
        if beyond_modified and tail <= rel_tol * total and k >= level + 4:
            return total
        k += 1
        if k > level + 100_000:
            raise RuntimeError("reach summation did not converge")


def descendant_radius(
    level: int,
    dim: int,
    distance: Callable[[int], float] | None = None,
    rel_tol: float = 1e-14,
) -> float:
    """Euclidean radius of the descendant set: sqrt(n) times the per-axis reach."""
    return math.sqrt(dim) * descendant_reach(level, dim, distance, rel_tol)


@dataclass(frozen=True)
class TreeSpacing:
    """Gap bookkeeping for the descendant tree.

    Levels 0..cutoff carry widened per-axis gaps d_i = 2 * reach(i+1),
    recomputed from the deepest modified level upward; beyond the cutoff
    the raw gaps are already safe.  The widening makes the closest-approach
    gap at level i exactly sqrt(n) * reach(i+1) > 0.
    """

    dim: int
    cutoff: int
    widened: tuple[float, ...]  # d_0 .. d_cutoff

    @classmethod
    def build(cls, dim: int, cutoff: int | None = None) -> "TreeSpacing":
        n0 = modification_cutoff(dim) if cutoff is None else cutoff
        widened: dict[int, float] = {}

        def dist(k: int) -> float:
            if k in widened:
                return widened[k]
            return tree_side_length(k, dim)

        for i in range(n0, -1, -1):
            widened[i] = 2.0 * descendant_reach(i + 1, dim, dist)
        return cls(dim=dim, cutoff=n0, widened=tuple(widened[i] for i in range(n0 + 1)))

    def length(self, i: int) -> float:
        return tree_side_length(i, self.dim)

    def distance(self, i: int) -> float:
        """Per-axis gap between a level-i cube and each of its children."""
        if i <= self.cutoff:
            return self.widened[i]
        return tree_side_length(i, self.dim)

    def reach(self, i: int) -> float:
        return descendant_reach(i, self.dim, self.distance)

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
    levels: tuple[CubeFamily, ...]

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

    def all_cubes(self) -> CubeFamily:
        cubes: list[Cube] = []
        for fam in self.levels:
            cubes.extend(fam.cubes)
        return CubeFamily(tuple(cubes))


def build_tree(dim: int, depth: int, params: ParamSpace) -> TreeConstruction:
    """Build the diagonal descendant tree to the given depth.

    Level 0 is one cube of side l_0 centered at the origin; every cube at
    level i-1 spawns two children of side l_i whose centers sit on the
    diagonal at per-axis offset l_{i-1}/2 + d_{i-1} + l_i/2, giving the
    children Euclidean distance sqrt(n) * d_{i-1} from the parent.  The
    ambient cube side is l_0 + 2 * radius(0) + 1, strictly larger than the
    reach of the whole construction.
    """
    params.require_intermediate_regime()
    if depth < 0:
        raise ValueError("depth must be >= 0")
    spacing = TreeSpacing.build(dim)
    l0 = spacing.length(0)
    centers = [0.0]
    levels = [CubeFamily((Cube((-0.5 * l0,) * dim, l0),))]
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
        levels.append(CubeFamily(tuple(cubes)))
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


def tree_descendant_mass_log2(params: ParamSpace, level: int, q: float, rel_tol: float = 1e-16) -> float:
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
        if term <= rel_tol * ratio_total and k >= level + 4:
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
    def radial_exponent(self) -> float:
        return self.function.exponent

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

    def ring_family(self, i: int) -> CubeFamily:
        return ring_subdivision(i, self.grid_base, self.dim)


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
    series sum of l**e.
    """

    p: float
    alpha: float
    thresholds: tuple[float, ...]  # t_1 .. t_K
    normalizer: float

    @property
    def exponent(self) -> float:
        return 1.0 / (self.p * self.alpha - 1.0)

    @property
    def set_measure(self) -> float:
        return 2.0

    def threshold(self, k: int) -> float:
        """t_k with the convention t_0 = 1."""
        if k == 0:
            return 1.0
        return self.thresholds[k - 1]

    def shell_mass(self, k: int) -> float:
        """Measure of E inside the k-th shell (1-indexed)."""
        return 2.0 * (self.threshold(k - 1) - self.threshold(k))

    def power_law_shell_mass(self, k: int) -> float:
        """Target mass law (|E|/2) * k**e / Z; exact for every k >= 2.

        The outermost threshold is pinned at 1 while the law would place it
        where only half of E lies inside, so shell 1 additionally carries
        the outer half of E: mass_1 = |E|/2 + power_law_shell_mass(1).
        """
        return (self.set_measure / 2.0) * k ** self.exponent / self.normalizer

    @property
    def first_shell_extra(self) -> float:
        return self.set_measure / 2.0


def shell_thresholds(p: float, alpha: float, count: int, dim: int = 1) -> ShellConstruction:
    """Thresholds t_k = tail(k+1) / (2Z) for E = [-1, 1].

    g(t) = |[-t, t] intersect E| = 2t must equal (|E|/2) * tail(k+1)/Z,
    where tail(k+1) sums l**e over l >= k+1; |E| = 2 cancels the half, so
    t_k is the closed-form root of a linear equation.  Requires p*alpha in
    (0, 1) so that the series normalizer converges.
    """
    if dim != 1:
        raise ValueError("shell thresholds are implemented for dimension 1 only")
    if not 0.0 < p * alpha < 1.0:
        raise ValueError(f"need 0 < p*alpha < 1 for a convergent normalizer, got p*alpha={p * alpha}")
    if count < 1:
        raise ValueError("count must be >= 1")
    e = 1.0 / (p * alpha - 1.0)
    z = power_series_sum(e)
    thresholds = tuple(power_series_tail(e, k, rel_scale=z) / (2.0 * z) for k in range(1, count + 1))
    return ShellConstruction(p=p, alpha=alpha, thresholds=thresholds, normalizer=z)
