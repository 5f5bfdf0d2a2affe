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
from .geometry import Cube, Domain, DimensionMismatchError, interiors_pairwise_disjoint, overlap_volume
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
        pieces = tuple((cube, float(h)) for cube, h in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if pieces:
            d = pieces[0][0].dim
            if any(cube.dim != d for cube, _ in pieces):
                raise DimensionMismatchError("step function mixes support dimensions")
        for _, h in pieces:
            if not math.isfinite(h) or h < 0.0:
                raise ValueError(f"heights must be finite and >= 0, got {h}")

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


def _overlap_widths(lo_a, side_a, lo_b, side_b) -> np.ndarray:
    """Widths of [lo_a, lo_a+side_a] meet [lo_b, lo_b+side_b], elementwise, floored at 0.

    Each side stays an explicit term (as in geometry's overlap), so pieces
    far smaller than the ulp of their position are not absorbed.
    """
    w = np.where(
        lo_a >= lo_b,
        np.minimum(side_a, (lo_b - lo_a) + side_b),
        np.minimum(side_b, (lo_a - lo_b) + side_a),
    )
    return np.maximum(w, 0.0)


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
        w = _overlap_widths(lows, sides[:, None], np.array(cube.lower, dtype=float)[None, :], cube.side)
        vols = np.prod(w, axis=1)
        mask = (vols > 0.0) & (heights > 0.0)
        if not np.any(mask):
            return 0.0
        if math.isinf(q):
            return float(np.max(heights[mask]))
        return float(np.sum(heights[mask] ** q * vols[mask])) ** (1.0 / q)
    if isinstance(f, RadialPower):
        if f.dim != cube.dim:
            raise DimensionMismatchError("cube dim != function dim")
        v = float(_radial_cell_values(f, np.array([cube.lower], dtype=float), cube.side, q)[0])
        return v if math.isinf(q) else v ** (1.0 / q)
    raise TypeError(f"cannot integrate {type(f).__name__}")


def grid_cell_values(
    f: FunctionLike, origin: Sequence[float], width: float, cells: int, q: float
) -> np.ndarray:
    """Integral of |f|**q (sup of |f| for q = inf) over each cube of a uniform grid.

    Cube i (a multi-index, shape (cells,) * n) has lower corner origin +
    width * i and side width.  Step functions are scattered: per axis, the
    (piece, cell, overlap width) triples of the cells a piece meets, joined
    per piece and summed by bincount (max for q = inf), so the work grows
    with the cells covered, not pieces x cells.  Radial powers send every
    cell through one quadrature batch (power_integrals), a cell on the
    origin corner as its ring of regular boxes; for q = inf the sup is read
    off each cell's corners.
    """
    n = len(origin)
    shape = (cells,) * n
    if isinstance(f, RadialPower):
        if f.dim != n:
            raise DimensionMismatchError("grid dim != function dim")
        lows = np.asarray(origin, dtype=float) + width * np.indices(shape).reshape(n, -1).T
        return _radial_cell_values(f, lows, width, q).reshape(shape)
    if not isinstance(f, StepFunction):
        raise TypeError(f"cannot integrate {type(f).__name__}")
    if not f.pieces:
        return np.zeros(shape)
    if f.dim != n:
        raise DimensionMismatchError("grid dim != function dim")
    lows, sides, heights = f._arrays
    piece = np.arange(len(sides))
    flat = np.zeros(len(sides), dtype=np.int64)
    vol = np.ones(len(sides))
    for j in range(n):
        # every cell within one index of the float estimate of the piece's
        # first and last cell; the exact widths below drop the misses
        lo = np.clip((lows[:, j] - origin[j]) / width, -1.0, cells)
        hi = np.clip((lows[:, j] + sides - origin[j]) / width, -1.0, cells)
        first = np.clip(np.floor(lo).astype(np.int64) - 1, 0, cells - 1)
        last = np.clip(np.floor(hi).astype(np.int64) + 1, 0, cells - 1)
        reps = (last - first + 1)[piece]
        run = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        piece = np.repeat(piece, reps)
        cell = first[piece] + run
        w = _overlap_widths(lows[piece, j], sides[piece], origin[j] + width * cell, width)
        flat = np.repeat(flat, reps) * cells + cell
        vol = np.repeat(vol, reps) * w
        hit = vol > 0.0
        piece, flat, vol = piece[hit], flat[hit], vol[hit]
    if math.isinf(q):
        out = np.zeros(cells ** n)
        np.maximum.at(out, flat, heights[piece])
    else:
        out = np.bincount(flat, weights=heights[piece] ** q * vol, minlength=cells ** n)
    return out.reshape(shape)


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
        live = []
        for piece, h in f.pieces:
            if domain.kind == "whole-space":
                vol = piece.volume
            else:
                assert domain.cube is not None
                vol = overlap_volume(piece, domain.cube)
            if vol > 0.0 and h > 0.0:
                live.append((h, vol))
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
