"""Output checks that do not use the program's own integration or geometry.

Step functions are read through their public `pieces` only.  Masses come
from per-axis overlap widths written here; the reference dyadic DP builds
a mass pyramid (finest cells, then sums of 2**n children) instead of the
program's prefix differences or per-cell integration; disjointness is a
sort-and-sweep test rather than the program's pairwise one.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# Certificate cells of one grid either do not overlap or one contains the
# other, so an overlap below this share of the smaller side is a shared face.
FACE_SHARE = 1e-6
# Relative tolerances, set from the arithmetic each comparison involves.
RESCORE_RTOL = 1e-9      # same sums in another order and association
REFERENCE_RTOL = 1e-9    # pyramid sums against prefix differences
QUADRATURE_RTOL = 1e-6   # the program's quadrature targets 1e-8 per box


def step_arrays(f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lows (m, n), sides (m,), heights (m,)) from a step function's pieces."""
    lows = np.array([c.lower for c, _ in f.pieces], dtype=float)
    sides = np.array([c.side for c, _ in f.pieces], dtype=float)
    heights = np.array([h for _, h in f.pieces], dtype=float)
    return lows, sides, heights


def axis_overlap(lo, s, a, w):
    """Width of [lo, lo+s] meet [a, a+w], keeping each side as an explicit term."""
    lo, s, a, w = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, s, a, w)))
    out = np.where(lo >= a, np.minimum(s, (a - lo) + w), np.minimum(w, (lo - a) + s))
    return np.maximum(out, 0.0)


def cube_masses(f, q: float, cube_lows: np.ndarray, cube_sides: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Integral of |f|**q over each cube, summed over the pieces of f."""
    lows, sides, heights = step_arrays(f)
    hq = heights ** q
    out = np.zeros(len(cube_sides))
    for start in range(0, len(cube_sides), chunk):
        cl = cube_lows[start:start + chunk]
        cs = cube_sides[start:start + chunk]
        vol = np.ones((len(cs), len(sides)))
        for j in range(lows.shape[1]):
            vol *= axis_overlap(lows[None, :, j], sides[None, :], cl[:, None, j], cs[:, None])
        out[start:start + chunk] = vol @ hq
    return out


def family_arrays(cubes) -> tuple[np.ndarray, np.ndarray]:
    cubes = list(cubes)
    if not cubes:
        return np.zeros((0, 1)), np.zeros(0)
    return np.array([c.lower for c in cubes], dtype=float), np.array([c.side for c in cubes], dtype=float)


def score_from_masses(masses: np.ndarray, sides: np.ndarray, dim: int, p: float, q: float, alpha: float) -> float:
    """sum |Q|**(1 - p*alpha - p/q) * mass**(p/q) over cubes of positive mass."""
    e = 1.0 - p * alpha - p / q
    pos = masses > 0.0
    return float(np.sum((sides[pos] ** dim) ** e * masses[pos] ** (p / q)))


def rescore_step(f, cubes, p: float, q: float, alpha: float) -> float:
    lows, sides = family_arrays(cubes)
    if not len(sides):
        return 0.0
    return score_from_masses(cube_masses(f, q, lows, sides), sides, lows.shape[1], p, q, alpha)


def lebesgue_step(f, theta: float) -> float:
    """L^theta norm of a step function with interior-disjoint pieces."""
    lows, sides, heights = step_arrays(f)
    return float(np.sum(heights ** theta * sides ** lows.shape[1])) ** (1.0 / theta)


def first_overlap(lows: np.ndarray, sides: np.ndarray) -> tuple[int, int] | None:
    """Sort-and-sweep on axis 0; returns a pair of cubes whose interiors meet, or None."""
    m = len(sides)
    if m < 2:
        return None
    order = np.argsort(lows[:, 0], kind="stable")
    active: list[int] = []
    for i in order:
        i = int(i)
        lo_i, s_i = lows[i], sides[i]
        keep = []
        for j in active:
            tol = FACE_SHARE * min(s_i, sides[j])
            if (lows[j, 0] - lo_i[0]) + sides[j] <= tol:
                continue  # ends before i starts; never meets a later cube either
            keep.append(j)
            widths = axis_overlap(lows[j], sides[j], lo_i, s_i)
            if np.all(widths > tol):
                return j, i
        active = keep + [i]
    return None


def inside_some_grid(lows: np.ndarray, sides: np.ndarray, root, offsets) -> bool:
    """True iff every cube lies in one shifted copy of the root."""
    if not len(sides):
        return True
    n = root.dim
    tol = 1e-9 * root.side
    for vec in product(offsets, repeat=n):
        origin = np.array(root.lower) + np.array(vec) * root.side
        if np.all(lows >= origin - tol) and np.all(lows + sides[:, None] <= origin + root.side + tol):
            return True
    return False


# ---------------------------------------------------------------------------
# reference dyadic DP
# ---------------------------------------------------------------------------

def _finest_masses_1d(lows, sides, hq, origin, width, cells):
    lo = lows[:, 0]
    hi = lo + sides
    i0 = np.floor(np.clip((lo - origin) / width, -1.0, cells)).astype(np.int64)
    i1 = np.floor(np.clip((hi - origin) / width, -1.0, cells)).astype(np.int64)
    i0 = np.clip(i0, 0, cells - 1)
    i1 = np.clip(i1, 0, cells - 1)
    meets = (hi > origin) & (lo < origin + cells * width)
    counts = np.where(meets, i1 - i0 + 1, 0)
    piece = np.repeat(np.arange(len(lo)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    cell = i0[piece] + (np.arange(len(piece)) - starts[piece])
    widths = axis_overlap(lo[piece], sides[piece], origin + width * cell, width)
    return np.bincount(cell, weights=hq[piece] * widths, minlength=cells)


def _finest_masses_nd(lows, sides, hq, origin, width, cells):
    n = lows.shape[1]
    edges = width * np.arange(cells)
    per_axis = [axis_overlap(lows[:, j, None], sides[:, None], origin[j] + edges[None, :], width) for j in range(n)]
    letters = "abcdefgh"[:n]
    spec = "p," + ",".join(f"p{c}" for c in letters) + "->" + letters
    return np.einsum(spec, hq, *per_axis)


def _coarsen(m: np.ndarray) -> np.ndarray:
    n = m.ndim
    half = m.shape[0] // 2
    return m.reshape(sum(((half, 2) for _ in range(n)), ())).sum(axis=tuple(range(1, 2 * n, 2)))


def reference_dp(f, root, depth: int, p: float, q: float, alpha: float, offsets) -> list[float]:
    """Best dyadic-family score per horizon 0..depth, maximised over the shifted grids.

    Bottom-up over a mass pyramid: finest masses from per-axis overlaps,
    coarser levels by summing 2**n children; each cell keeps the larger of
    its own score and the sum of its children's best.
    """
    lows, sides, heights = step_arrays(f)
    hq = heights ** q
    n = root.dim
    e = 1.0 - p * alpha - p / q
    best = [0.0] * (depth + 1)
    cells = 1 << depth
    width = root.side / cells
    for vec in product(offsets, repeat=n):
        origin = np.array(root.lower) + np.array(vec) * root.side
        fine = (_finest_masses_1d if n == 1 else _finest_masses_nd)(lows, sides, hq, origin, width, cells)
        pyramid = [fine]
        for _ in range(depth):
            pyramid.append(_coarsen(pyramid[-1]))
        pyramid.reverse()  # pyramid[d] has 2**d cells per axis
        scores = []
        for d, mass in enumerate(pyramid):
            vol = (root.side / (1 << d)) ** n
            s = np.zeros_like(mass)
            pos = mass > 0.0
            s[pos] = vol ** e * mass[pos] ** (p / q)
            scores.append(s)
        for horizon in range(depth + 1):
            value = scores[horizon]
            for d in range(horizon - 1, -1, -1):
                value = np.maximum(scores[d], _coarsen(value))
            best[horizon] = max(best[horizon], float(value.reshape(-1)[0]))
    return best


# ---------------------------------------------------------------------------
# radial powers |x|**t on the positive orthant (dimension 2)
# ---------------------------------------------------------------------------

def corner_square_mass(t: float, h: float) -> float:
    """Integral of |x|**t over (0, h]^2 in polar form.

    2 * h**(t+2) / (t+2) * integral over phi in [0, pi/4] of cos(phi)**-(t+2).
    """
    from scipy.integrate import quad

    angular, _ = quad(lambda phi: math.cos(phi) ** (-(t + 2.0)), 0.0, math.pi / 4.0, epsabs=0.0, epsrel=1e-13)
    return 2.0 * h ** (t + 2.0) / (t + 2.0) * angular


def box_mass(t: float, lower, side: float) -> float:
    """Integral of |x|**t over a square of the closed positive quadrant.

    The square at the origin uses the polar form; any other square keeps
    the integrand bounded and goes to scipy's adaptive dblquad.
    """
    from scipy.integrate import dblquad

    a, b = float(lower[0]), float(lower[1])
    if a < 0.0 or b < 0.0:
        raise ValueError("square must lie in the closed positive quadrant")
    if a == 0.0 and b == 0.0:
        return corner_square_mass(t, side)
    value, _ = dblquad(
        lambda y, x: (x * x + y * y) ** (0.5 * t), a, a + side, b, b + side, epsabs=0.0, epsrel=1e-11
    )
    return value


def relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0
