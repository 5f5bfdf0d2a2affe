"""Axis-aligned cube geometry.

Cubes are closed boxes with all sides equal.  A family of cubes is a
plain tuple of them; families compare open interiors, so cubes that
share a face do not count as overlapping.
Everything here is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product, repeat
from typing import Sequence

import numpy as np

__all__ = [
    "Cube",
    "Domain",
    "DimensionMismatchError",
    "dyadic_children",
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
    def volume(self) -> float:
        return self.side ** self.dim

    def contains_cube(self, other: "Cube") -> bool:
        _require_same_dim(self, other)
        return all(
            sl <= ol and ol + other.side <= sl + self.side
            for sl, ol in zip(self.lower, other.lower)
        )


def _checked_cubes(lows: np.ndarray | list[tuple[float, ...]], sides: np.ndarray | list[float]) -> tuple[Cube, ...]:
    """The cubes of the rows of `lows` (m, n), n >= 1, and `sides` (m,):
    numpy arrays, or a list of tuples and a list of Python floats.

    Cube's checks, finite coordinates and a positive side, are made once
    for the batch, with Cube's errors; the cubes are then made without
    checking each again.  Their fields are set as Cube.__post_init__ sets
    them, so each cube keeps the compact layout of one made by Cube(...).
    """
    if isinstance(lows, np.ndarray):
        finite = bool(np.isfinite(lows).all() and np.isfinite(sides).all())
        lows, sides = list(map(tuple, lows.tolist())), sides.tolist()
    else:
        finite = all(map(math.isfinite, chain(sides, chain.from_iterable(lows))))
    if not finite:
        raise ValueError("cube coordinates must be finite")
    if sides and min(sides) <= 0.0:
        raise ValueError(f"cube side must be positive, got {next(s for s in sides if s <= 0.0)}")
    cubes = tuple(map(object.__new__, repeat(Cube, len(sides))))
    any(map(object.__setattr__, cubes, repeat("lower"), lows))  # each call returns None, so any() runs them all
    any(map(object.__setattr__, cubes, repeat("side"), sides))
    return cubes


def _require_same_dim(a: Cube, b: Cube) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"cube dims differ: {a.dim} vs {b.dim}")


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


def dyadic_children(c: Cube) -> tuple[Cube, ...]:
    """The 2**dim half-side subcubes tiling c."""
    half = 0.5 * c.side
    kids = []
    for bits in product((0, 1), repeat=c.dim):
        kids.append(Cube(tuple(lo + half * b for lo, b in zip(c.lower, bits)), half))
    return tuple(kids)


def shell_partition_1d(t_outer: float, t_inner: float, parts_per_side: int) -> tuple[Cube, ...]:
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
    return tuple(cells)


def interiors_pairwise_disjoint(cubes: Sequence[Cube]) -> bool:
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
