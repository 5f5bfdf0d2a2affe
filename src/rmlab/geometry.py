"""Axis-aligned cube geometry.

Cubes are closed boxes with all sides equal; families compare open
interiors, so cubes that share a face do not count as overlapping.
Everything here is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Cube",
    "CubeFamily",
    "Domain",
    "DimensionMismatchError",
    "box_distance",
    "dyadic_children",
    "ring_subdivision",
    "shell_partition_1d",
    "interiors_pairwise_disjoint",
]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


@dataclass(frozen=True)
class Cube:
    """Closed axis-aligned cube given by its lower corner and side length."""

    lower: tuple[float, ...]
    side: float

    def __post_init__(self) -> None:
        lower = tuple(map(float, self.lower))
        side = float(self.side)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "side", side)
        if not lower:
            raise ValueError("cube needs at least one coordinate")
        if not (all(map(math.isfinite, lower)) and math.isfinite(side)):
            raise ValueError("cube coordinates must be finite")
        if side <= 0.0:
            raise ValueError(f"cube side must be positive, got {side}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(c + self.side for c in self.lower)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(c + 0.5 * self.side for c in self.lower)

    @property
    def volume(self) -> float:
        return self.side ** self.dim

    def contains_point(self, x: Sequence[float]) -> bool:
        """Membership in the closed cube."""
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point dim {len(x)} != cube dim {self.dim}")
        return all(lo <= xi <= lo + self.side for lo, xi in zip(self.lower, x))

    def contains_cube(self, other: "Cube") -> bool:
        _require_same_dim(self, other)
        return all(
            sl <= ol and ol + other.side <= sl + self.side
            for sl, ol in zip(self.lower, other.lower)
        )

    def translate(self, shift: Sequence[float]) -> "Cube":
        if len(shift) != self.dim:
            raise DimensionMismatchError("shift dim mismatch")
        return Cube(tuple(c + s for c, s in zip(self.lower, shift)), self.side)


def _checked_cubes(lows: np.ndarray, sides: np.ndarray) -> tuple[Cube, ...]:
    """The cubes of the rows of `lows` (m, n), n >= 1, and `sides` (m,).

    Cube's checks, finite coordinates and a positive side, are made once
    on the arrays, with Cube's errors; the cubes are then made without
    checking each again.
    """
    if not (np.isfinite(lows).all() and np.isfinite(sides).all()):
        raise ValueError("cube coordinates must be finite")
    if (sides <= 0.0).any():
        raise ValueError(f"cube side must be positive, got {sides[sides <= 0.0][0]}")
    cubes = []
    for lower, side in zip(map(tuple, lows.tolist()), sides.tolist()):
        cube = object.__new__(Cube)
        cube.__dict__.update(lower=lower, side=side)
        cubes.append(cube)
    return tuple(cubes)


def _require_same_dim(a: Cube, b: Cube) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"cube dims differ: {a.dim} vs {b.dim}")


@dataclass(frozen=True)
class CubeFamily:
    """Ordered collection of same-dimension cubes.

    The disjoint-interior invariant is checked by
    :func:`interiors_pairwise_disjoint` (and enforced by norm scoring),
    not at construction time, so that large families stay cheap to build.
    """

    cubes: tuple[Cube, ...]

    def __post_init__(self) -> None:
        cubes = tuple(self.cubes)
        object.__setattr__(self, "cubes", cubes)
        if cubes:
            d = cubes[0].dim
            if any(c.dim != d for c in cubes):
                raise DimensionMismatchError("family mixes cube dimensions")

    @property
    def dim(self) -> int:
        if not self.cubes:
            raise ValueError("empty family has no dimension")
        return self.cubes[0].dim

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __getitem__(self, i: int) -> Cube:
        return self.cubes[i]


@dataclass(frozen=True)
class Domain:
    """Either all of n-space or one fixed cube."""

    kind: str  # "whole-space" | "cube"
    dim: int
    cube: Cube | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("whole-space", "cube"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if (self.kind == "cube") != (self.cube is not None):
            raise ValueError("cube present exactly when kind == 'cube'")
        if self.cube is not None and self.cube.dim != self.dim:
            raise DimensionMismatchError("domain cube dim mismatch")

    @classmethod
    def whole_space(cls, dim: int) -> "Domain":
        return cls("whole-space", dim)

    @classmethod
    def of_cube(cls, cube: Cube) -> "Domain":
        return cls("cube", cube.dim, cube)

    def contains_cube(self, c: Cube) -> bool:
        if c.dim != self.dim:
            raise DimensionMismatchError("cube dim != domain dim")
        if self.kind == "whole-space":
            return True
        assert self.cube is not None
        return self.cube.contains_cube(c)


# Coordinates are doubles, so cells meant to share a face can land a few
# ulps apart; per-axis overlaps below this relative slack count as touching.
_FACE_SLACK = 8.0 * np.finfo(float).eps

# Candidate pairs tested at once by interiors_pairwise_disjoint; bounds its memory.
_SWEEP_BATCH = 1 << 16


def box_distance(a: Cube, b: Cube) -> float:
    """Euclidean distance between the closed boxes (0 iff closures meet)."""
    _require_same_dim(a, b)
    acc = 0.0
    for lo_a, lo_b in zip(a.lower, b.lower):
        gap = max(0.0, lo_a - (lo_b + b.side), lo_b - (lo_a + a.side))
        acc += gap * gap
    return math.sqrt(acc)


def _overlap_widths(lo_a, side_a, lo_b, side_b) -> np.ndarray:
    """Widths of [lo_a, lo_a+side_a] meet [lo_b, lo_b+side_b], elementwise, floored at 0.

    With d = lo_b - lo_a the width is (d + side_b) capped by side_a when
    d <= 0, and (side_a - d) capped by side_b when d > 0; the other case's
    term is then no smaller than its side, so one min of all four is both.
    Each side stays an explicit term, never min(lo+side, ...) - max(lo, ...),
    so sides far smaller than the ulp of their position are not absorbed.
    """
    d = lo_b - lo_a
    return np.maximum(np.minimum(np.minimum(side_a, side_b), np.minimum(d + side_b, side_a - d)), 0.0)


def dyadic_children(c: Cube) -> CubeFamily:
    """The 2**dim half-side subcubes tiling c."""
    half = 0.5 * c.side
    kids = []
    for bits in product((0, 1), repeat=c.dim):
        kids.append(Cube(tuple(lo + half * b for lo, b in zip(c.lower, bits)), half))
    return CubeFamily(tuple(kids))


def ring_subdivision(i: int, N: int, n: int) -> CubeFamily:
    """Tile the grid ring (0, N**(i+1)]^n minus (0, N**i]^n with N**n - 1 cubes.

    The outer block is cut into the N**n grid cells of side N**i and the
    cell at the origin corner (which is exactly the inner block) is dropped.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if N < 2 or N * N <= n:
        raise ValueError(f"grid base must satisfy N >= 2 and N > sqrt(n), got N={N}, n={n}")
    side = float(N) ** i
    cells = []
    for k in product(range(N), repeat=n):
        if all(kj == 0 for kj in k):
            continue
        cells.append(Cube(tuple(kj * side for kj in k), side))
    return CubeFamily(tuple(cells))


def shell_partition_1d(t_outer: float, t_inner: float, parts_per_side: int) -> CubeFamily:
    """Split [-t_outer, -t_inner] and [t_inner, t_outer] into equal intervals.

    One-dimensional helper for shell families around [-1, 1]; each of the
    two symmetric pieces is divided into `parts_per_side` intervals.
    """
    if not 0.0 < t_inner < t_outer:
        raise ValueError(f"need 0 < t_inner < t_outer, got {t_inner}, {t_outer}")
    if parts_per_side < 1:
        raise ValueError("parts_per_side must be >= 1")
    w = (t_outer - t_inner) / parts_per_side
    cells = []
    for j in range(parts_per_side):
        cells.append(Cube((-t_outer + j * w,), w))
    for j in range(parts_per_side):
        cells.append(Cube((t_inner + j * w,), w))
    return CubeFamily(tuple(cells))


def interiors_pairwise_disjoint(cubes: Sequence[Cube] | CubeFamily) -> bool:
    """Open-box disjointness of every pair, by sort and sweep on axis 0.

    Once the cubes are sorted by lower[0], a cube can only overlap the
    later cubes whose lower[0] lies below its upper[0], so the per-axis
    slack test runs on those candidate pairs alone, at most `_SWEEP_BATCH`
    pairs at a time.  Per axis, an overlap within `_FACE_SLACK` of the
    coordinate scale counts as a shared face.
    """
    seq = tuple(cubes)
    m = len(seq)
    if m < 2:
        return True
    d = seq[0].dim
    if any(c.dim != d for c in seq):
        raise DimensionMismatchError("family mixes cube dimensions")
    lows = np.array([c.lower for c in seq], dtype=float)
    highs = lows + np.array([c.side for c in seq], dtype=float)[:, None]
    order = np.argsort(lows[:, 0], kind="stable")
    lows, highs = lows[order], highs[order]
    # candidates of sorted cube i are i+1 .. ends[i]-1, numbered from firsts[i]
    ends = np.searchsorted(lows[:, 0], highs[:, 0], side="left")
    counts = np.maximum(ends - np.arange(m) - 1, 0)
    firsts = np.cumsum(counts) - counts
    total = int(firsts[-1] + counts[-1])
    for start in range(0, total, _SWEEP_BATCH):
        k = np.arange(start, min(start + _SWEEP_BATCH, total))
        i = np.searchsorted(firsts, k, side="right") - 1
        j = i + 1 + (k - firsts[i])
        over_lo = np.maximum(lows[i], lows[j])
        over_hi = np.minimum(highs[i], highs[j])
        slack = _FACE_SLACK * np.maximum(np.abs(over_lo), np.abs(over_hi))
        if np.any(np.all(over_hi - over_lo > slack, axis=-1)):
            return False
    return True
