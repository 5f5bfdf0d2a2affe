"""Exact representations and integration of the working function classes.

Two classes cover every construction the toolkit produces: finite sums of
nonnegative heights times cube indicators (exact piecewise integration),
and radial powers |x|**s on the positive orthant (quadrature-backed, with
a one-dimensional closed form).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .estimate import EXACT, NormEstimate
from .geometry import Cube, Domain, DimensionMismatchError, _overlap_widths, interiors_pairwise_disjoint
from .quadrature import power_integrals

__all__ = [
    "StepFunction",
    "RadialPower",
    "ParamSpace",
    "evaluate",
    "lq_norm_on_cube",
    "grid_cell_values",
    "lebesgue_norm",
    "distribution_measure",
    "weak_norm",
    "shell_integral_radial",
    "positive_orthant_sphere_measure",
    "json_dim",
]


@dataclass(frozen=True)
class ParamSpace:
    """Exponent triple (p, q, alpha); p or q may be math.inf.

    The derived interpolation index theta = p / (1 - p*alpha) is the
    Lebesgue exponent of the critical space sitting inside the
    partition-norm scale.  In the intermediate regime p in (1, inf),
    q in [1, p), alpha in (1/p - 1/q, 0) one has q < theta < p.
    """

    p: float
    q: float
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1 (or inf), got {self.p}")
        if not (self.q >= 1.0):
            raise ValueError(f"q must be >= 1 (or inf), got {self.q}")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @property
    def theta(self) -> float:
        if math.isinf(self.p):
            if self.alpha >= 0.0:
                raise ValueError("theta undefined for p = inf with alpha >= 0")
            return -1.0 / self.alpha
        denom = 1.0 - self.p * self.alpha
        if denom == 0.0:
            raise ValueError("theta undefined: p * alpha == 1")
        return self.p / denom

    @property
    def score_exponent(self) -> float:
        """Exponent 1 - p*alpha - p/q applied to cube volumes in family scores."""
        if math.isinf(self.p):
            raise ValueError("family score exponent needs finite p")
        over_q = 0.0 if math.isinf(self.q) else self.p / self.q
        return 1.0 - self.p * self.alpha - over_q

    def is_intermediate_regime(self) -> bool:
        """p in (1, inf), q in [1, p), alpha in (1/p - 1/q, 0)."""
        if math.isinf(self.p) or not 1.0 < self.p:
            return False
        if math.isinf(self.q) or not self.q < self.p:
            return False
        return 1.0 / self.p - 1.0 / self.q < self.alpha < 0.0

    def require_intermediate_regime(self) -> None:
        if not self.is_intermediate_regime():
            raise ValueError(
                f"(p={self.p}, q={self.q}, alpha={self.alpha}) is outside the "
                "regime p in (1,inf), q in [1,p), alpha in (1/p-1/q, 0)"
            )


def json_dim(value: object) -> int:
    """The `"dim"` field of a function document: an integral number, else ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"dim must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class StepFunction:
    """Finite sum of nonnegative heights times closed-cube indicators.

    Supports must have pairwise disjoint interiors; constructors in this
    package guarantee it, and `validate_disjoint_supports` checks it for
    functions read with `from_json_dict`.
    """

    pieces: tuple[tuple[Cube, float], ...]

    def __post_init__(self) -> None:
        pieces = []
        dim = self.pieces[0][0].dim if self.pieces else 0
        bad = None  # the first height that is not finite and >= 0
        for cube, h in self.pieces:
            h = float(h)
            if cube.dim != dim:
                raise DimensionMismatchError("step function mixes support dimensions")
            if not 0.0 <= h < math.inf and bad is None:
                bad = h
            pieces.append((cube, h))
        object.__setattr__(self, "pieces", tuple(pieces))
        if bad is not None:
            raise ValueError(f"heights must be finite and >= 0, got {bad}")

    @property
    def dim(self) -> int:
        if not self.pieces:
            raise ValueError("empty step function has no dimension")
        return self.pieces[0][0].dim

    def __len__(self) -> int:
        return len(self.pieces)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lows = np.array([c.lower for c, _ in self.pieces], dtype=float)
        sides = np.array([c.side for c, _ in self.pieces], dtype=float)
        heights = np.array([h for _, h in self.pieces], dtype=float)
        return lows, sides, heights

    def validate_disjoint_supports(self) -> None:
        if not interiors_pairwise_disjoint([c for c, _ in self.pieces]):
            raise ValueError("step function supports have overlapping interiors")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "pieces": [
                {"lower": list(cube.lower), "side": cube.side, "height": h}
                for cube, h in self.pieces
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "StepFunction":
        dim = json_dim(data["dim"])
        pieces = []
        for item in data["pieces"]:
            cube = Cube(tuple(float(c) for c in item["lower"]), float(item["side"]))
            if cube.dim != dim:
                raise DimensionMismatchError("piece dim differs from declared dim")
            pieces.append((cube, float(item["height"])))
        f = cls(tuple(pieces))
        f.validate_disjoint_supports()
        return f

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class RadialPower:
    """|x|**exponent on the open positive orthant, zero elsewhere."""

    exponent: float
    dim: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.exponent):
            raise ValueError("exponent must be finite")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @classmethod
    def from_params(cls, params: ParamSpace, dim: int) -> "RadialPower":
        return cls(exponent=dim * (params.alpha - 1.0 / params.p), dim=dim)


FunctionLike = Union[StepFunction, RadialPower]


def evaluate(f: FunctionLike, x: Sequence[float]) -> float:
    """Pointwise value; zero off the support."""
    if isinstance(f, StepFunction):
        if not f.pieces:
            return 0.0
        if len(x) != f.dim:
            raise DimensionMismatchError("point dim mismatch")
        return float(
            sum(h for cube, h in f.pieces if cube.contains_point(x))
        )
    if isinstance(f, RadialPower):
        if len(x) != f.dim:
            raise DimensionMismatchError("point dim mismatch")
        if any(xi <= 0.0 for xi in x):
            return 0.0
        return float(math.dist(x, (0.0,) * f.dim) ** f.exponent)
    raise TypeError(f"cannot evaluate {type(f).__name__}")


def lq_norm_on_cube(f: FunctionLike, cube: Cube, q: float) -> float:
    """L^q norm over one cube: exact for step functions, quadrature for radial powers."""
    if q < 1.0:
        raise ValueError(f"q must be >= 1 (or inf), got {q}")
    if isinstance(f, StepFunction):
        if not f.pieces:
            return 0.0
        if f.dim != cube.dim:
            raise DimensionMismatchError("cube dim != function dim")
        lows, sides, heights = f._arrays
        w = _overlap_widths(lows, sides[:, None], np.array(cube.lower), cube.side)
        vols = np.multiply.reduce(w, axis=1)
        mask = (vols > 0.0) & (heights > 0.0)
        if not mask.any():
            return 0.0
        if math.isinf(q):
            return float(heights[mask].max())
        return float(np.add.reduce(heights[mask] ** q * vols[mask])) ** (1.0 / q)
    if isinstance(f, RadialPower):
        if f.dim != cube.dim:
            raise DimensionMismatchError("cube dim != function dim")
        v = float(_radial_cell_values(f, np.array([cube.lower], dtype=float), cube.side, q)[0])
        return v if math.isinf(q) else v ** (1.0 / q)
    raise TypeError(f"cannot integrate {type(f).__name__}")


def grid_cell_values(
    f: FunctionLike, origins: np.ndarray, width: float, cells: int, q: float
) -> np.ndarray:
    """Integral of |f|**q (sup of |f| for q = inf) over each cube of uniform grids.

    `origins` has shape (G, n), one grid per row; the result has shape
    (G,) + (cells,) * n, and cube i (a multi-index) of grid g has lower
    corner origins[g] + width * i and side width.  Step functions sum
    (take the max of) their `_step_cell_pairs` in `_step_cell_masses`,
    each cell in piece order, as with one grid alone.  Radial powers send
    every cell of every grid through one quadrature batch
    (power_integrals), a cell on the origin corner as its ring of regular
    boxes; for q = inf the sup is read off each cell's corners.
    """
    origins = np.asarray(origins, dtype=float)
    grids, n = origins.shape
    shape = (cells,) * n
    if isinstance(f, RadialPower):
        if f.dim != n:
            raise DimensionMismatchError("grid dim != function dim")
        lows = origins[:, None, :] + width * np.indices(shape).reshape(n, -1).T
        return _radial_cell_values(f, lows.reshape(-1, n), width, q).reshape((grids,) + shape)
    if not isinstance(f, StepFunction):
        raise TypeError(f"cannot integrate {type(f).__name__}")
    return _step_cell_masses(f, _step_cell_pairs(f, origins, width, cells), (grids,) + shape, q)


def _step_cell_masses(
    f: StepFunction, pairs: tuple[np.ndarray, np.ndarray, np.ndarray], shape: tuple[int, ...], q: float
) -> np.ndarray:
    """The cell masses of grid_cell_values, of shape `shape`, from the
    (piece, flat, volume) pairs of _step_cell_pairs: each cell sums (for
    q = inf, takes the max of) its terms in pair order."""
    piece, flat, vol = pairs
    heights = f._arrays[2]
    size = math.prod(shape)
    if math.isinf(q):
        out = np.zeros(size)
        np.maximum.at(out, flat, heights[piece])
    else:
        # a bincount of no pairs (a function without pieces) is an integer array
        out = np.bincount(flat, weights=heights[piece] ** q * vol, minlength=size).astype(float, copy=False)
    return out.reshape(shape)


def _step_cell_pairs(
    f: StepFunction, origins: np.ndarray, width: float, cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(piece, flat, volume) of every piece and grid cell that meet in positive volume.

    The grids are those of grid_cell_values; `flat` indexes their cells,
    (G,) + (cells,) * n in C order, and the pairs of one cell come in
    piece order.  The pairs are scattered per axis and per distinct
    origin on that axis: the (piece, cell, overlap width) triples of the
    cells a piece meets, joined per piece over the axes into the product
    of the axes' distinct origins, from which each grid takes its row.
    The work grows with the cells covered, not pieces x cells.
    """
    grids, n = origins.shape
    if not f.pieces:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    if f.dim != n:
        raise DimensionMismatchError("grid dim != function dim")
    lows, sides, _ = f._arrays
    columns = origins.T.tolist()
    axes = [list(dict.fromkeys(column)) for column in columns]  # distinct origins per axis
    counts = [len(at) for at in axes]
    # (piece, flat index into tuple(counts) + (cells,) * n in C order, volume)
    triples = (np.arange(len(sides)), np.zeros(len(sides), dtype=np.int64), np.ones(len(sides)))
    for j, at in enumerate(axes):
        stride, per_origin = cells ** (n - 1 - j), cells ** n * math.prod(counts[j + 1:])
        parts = [_scatter_axis(triples, lows[:, j], sides, o, width, cells, stride, k * per_origin)
                 for k, o in enumerate(at)]
        # the origins' parts hold disjoint cells, so each cell's terms stay in piece order
        triples = parts[0] if len(parts) == 1 else tuple(np.concatenate(x) for x in zip(*parts))
    piece, flat, vol = triples
    rows = [0] * grids  # each grid's C index into tuple(counts)
    for at, column in zip(axes, columns):
        rows = [r * len(at) + at.index(v) for r, v in zip(rows, column)]
    if rows != list(range(math.prod(counts))):
        per_grid = cells ** n
        hits = [np.flatnonzero(flat // per_grid == r) for r in rows]
        take = np.concatenate(hits)
        piece, vol = piece[take], vol[take]
        flat = flat[take] % per_grid + np.repeat(np.arange(grids) * per_grid, [len(h) for h in hits])
    return piece, flat, vol


def _scatter_axis(
    triples: tuple[np.ndarray, np.ndarray, np.ndarray],
    low: np.ndarray,
    sides: np.ndarray,
    origin: float,
    width: float,
    cells: int,
    stride: int,
    offset: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Repeat each (piece, flat index, volume) triple for every cell of one
    grid axis that its piece meets, the pieces starting at `low` on this
    axis and cell i at origin + width * i.  The flat index gains
    i * stride + offset and the volume the overlap width; triples of zero
    volume are dropped.  The unfiltered arrays are freed on return, before
    the caller allocates again.
    """
    piece, flat, vol = triples
    # every cell within one index of the float estimate of the piece's
    # first and last cell; the exact widths below drop the misses
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
    cell *= stride
    cell += offset
    flat = np.repeat(flat, reps) + cell
    hit = vol > 0.0
    return piece[hit], flat[hit], vol[hit]


def _radial_cell_values(f: RadialPower, lows: np.ndarray, side: float, q: float) -> np.ndarray:
    """Integral of |x|**(q*s) (for q = inf, the essential sup of |x|**s) over
    each cube [lows_i, lows_i + side] intersect the orthant.

    The sup is read off the far corner for s >= 0 and the near corner for
    s < 0 (infinite at the origin); the integrals are one quadrature batch.
    """
    highs = lows + side
    if not math.isinf(q):
        return power_integrals(q * f.exponent, lows, highs)
    near = np.maximum(lows, 0.0)
    corner = highs if f.exponent >= 0.0 else near
    with np.errstate(divide="ignore"):
        sup = np.sqrt(np.sum(corner * corner, axis=1)) ** f.exponent
    return np.where(np.all(highs > near, axis=1), sup, 0.0)


def lebesgue_norm(f: FunctionLike, domain: Domain, theta: float) -> NormEstimate:
    """L^theta norm over the domain, exact for step functions."""
    if theta < 1.0:
        raise ValueError(f"theta must be >= 1 (or inf), got {theta}")
    if isinstance(f, StepFunction):
        if not f.pieces:
            return NormEstimate(0.0, EXACT, certificate="empty-function", trace=((0, 0.0),))
        if f.dim != domain.dim:
            raise DimensionMismatchError("domain dim != function dim")
        if domain.kind == "whole-space":
            vols = [piece.volume for piece, _ in f.pieces]
        else:
            assert domain.cube is not None
            lows, sides, _ = f._arrays
            w = _overlap_widths(lows, sides[:, None], np.array(domain.cube.lower), domain.cube.side)
            vols = np.multiply.reduce(w, axis=1).tolist()
        live = [(h, vol) for (_, h), vol in zip(f.pieces, vols) if vol > 0.0 and h > 0.0]
        hmax = max((h for h, _ in live), default=0.0)
        if math.isinf(theta):
            return NormEstimate(hmax, EXACT, certificate="piecewise-max", trace=((len(f), hmax),))
        # heights are scaled by the largest so that h ** theta cannot overflow
        total = sum((h / hmax) ** theta * vol for h, vol in live)
        value = hmax * total ** (1.0 / theta)
        return NormEstimate(value, EXACT, certificate="piecewise-sum", trace=((len(f), value),))
    if isinstance(f, RadialPower):
        if domain.kind != "cube":
            raise ValueError("whole-space Lebesgue norms of radial powers are not supported")
        assert domain.cube is not None
        value = lq_norm_on_cube(f, domain.cube, theta)
        return NormEstimate(value, EXACT, certificate="quadrature", trace=((1, value),))
    raise TypeError(f"cannot integrate {type(f).__name__}")


def distribution_measure(f: StepFunction, level: float) -> float:
    """Measure of the strict super-level set { |f| > level }."""
    if level < 0.0:
        raise ValueError("level must be >= 0")
    if not f.pieces:
        return 0.0
    return float(sum(cube.volume for cube, h in f.pieces if h > level))


def weak_norm(f: StepFunction, p: float, alpha: float) -> float:
    """sup over level of level * measure{|f| > level} ** (1/p - alpha).

    For a step function the supremum is attained along the finite set of
    height breakpoints: at each distinct height v it equals
    v * measure{|f| >= v} ** (1/p - alpha).
    """
    e = 1.0 / p - alpha
    if e <= 0.0:
        raise ValueError("weak norm requires 1/p - alpha > 0")
    if not f.pieces:
        return 0.0
    heights = sorted({h for _, h in f.pieces if h > 0.0})
    best = 0.0
    for v in heights:
        meas = sum(cube.volume for cube, h in f.pieces if h >= v)
        best = max(best, v * meas ** e)
    return best


def positive_orthant_sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere restricted to the closed positive orthant."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    full = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return full / 2.0 ** n


def shell_integral_radial(s_q: float, r_in: float, r_out: float, n: int) -> float:
    """Exact integral of |x|**s_q over the orthant annulus r_in < |x| < r_out.

    Uses the polar factorization: orthant-sphere measure times the radial
    antiderivative of r**(s_q + n - 1); the degenerate exponent
    s_q + n == 0 switches to the logarithmic form.
    """
    if not 0.0 < r_in < r_out:
        raise ValueError(f"need 0 < r_in < r_out, got {r_in}, {r_out}")
    measure = positive_orthant_sphere_measure(n)
    e = s_q + n
    if e == 0.0:
        return measure * math.log(r_out / r_in)
    return measure * (r_out ** e - r_in ** e) / e
