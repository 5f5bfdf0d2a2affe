"""Graded quadrature of radial power integrands over axis-aligned boxes.

Integrates |x|**t over box-intersect-positive-orthant regions, a batch of
boxes at a time.  In one dimension the antiderivative is exact.  In more,
every box is bisected along its widest axis until its diameter is at most
kappa times its distance to the origin (Whitney grading; Stein, Singular
Integrals, 1970, ch. VI), and one tensor Gauss-Legendre rule of order 8
integrates each graded box: |x|**t is analytic there in a fixed Bernstein
ellipse (Trefethen, SIAM Rev. 50, 2008) and varies by at most
(1 + kappa)**|t|.  kappa = 1 / max(1, |t|/2) holds that factor near e**2
up to |t| = 2048, where kappa meets its floor 2**-10, which bounds the box
count; past it the bound fails, so |t| > 2048 is refused in n >= 2.
There is no tolerance and no budget.  A box whose clipped lower corner
is the origin is its ring of 2**n - 1 regular boxes outside
(0, hi/2]: scaling by 1/2 multiplies the integral by 2**-(t+n), so the
corner integral is the ring's divided by 1 - 2**-(t+n).  It is finite iff
t + n > 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

__all__ = ["power_integral_on_box", "power_integrals"]

_GL_ORDER = 8
_KAPPA_FLOOR = 2.0 ** -10
# quadrature node coordinates held at once by one evaluation pass
_PASS_FLOATS = 1 << 20


@lru_cache(maxsize=None)
def _gl_nodes(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, 1] and the tensor weights on [0, 1]**dim,
    in C order over the node index of each axis."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    wts = np.full(1, 1.0)
    for _ in range(dim):
        wts = np.outer(wts, 0.5 * w).ravel()
    return 0.5 * (x + 1.0), wts


def _gl_boxes(t: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Tensor Gauss-Legendre estimate on each box (rows of lo >= 0 and hi, some lo_j > 0).

    Each box is evaluated at unit scale, B = 2**e B' with max_j lo'_j in
    [1/2, 1) (exact), as the integral over B' times 2**(e (t+n)); the
    integrand is taken relative to its largest node value, so the relative
    values lie in (0, 1] and the magnitude is formed once, in the exponent.
    """
    m, n = lo.shape
    x, wts = _gl_nodes(n)
    peak = 0 if t <= 0.0 else -1
    e = np.frexp(np.max(lo, axis=1))[1][:, None]
    lo, hi = np.ldexp(lo, -e), np.ldexp(hi, -e)
    widths = hi - lo
    out = np.empty(m)
    step = max(1, _PASS_FLOATS // wts.size)
    for i in range(0, m, step):
        sq = (lo[i:i + step, :, None] + x * widths[i:i + step, :, None]) ** 2
        r2 = sq[:, 0]
        for j in range(1, n):  # |x|**2 on the tensor grid, C order as the weights
            r2 = (r2[:, :, None] + sq[:, j, None, :]).reshape(r2.shape[0], -1)
        top = r2[:, peak]
        rel = np.sum((r2 / top[:, None]) ** (0.5 * t) * wts, axis=1)
        with np.errstate(over="ignore"):
            mag = np.exp2(0.5 * t * np.log2(top) + e[i:i + step, 0] * (t + n))
        out[i:i + step] = np.prod(widths[i:i + step], axis=1) * rel * mag
    return out


def _graded(lo: np.ndarray, hi: np.ndarray, reach: float) -> tuple[np.ndarray, ...]:
    """The Whitney-graded boxes of rows lo >= 0 and hi, with the row each came from.

    A box is graded when its widest width is at most reach * max_j lo_j:
    with reach = kappa / sqrt(n) that gives diam <= kappa * dist, and no
    coordinate is squared.  Otherwise it is bisected along its widest axis.

    The loop ends for every finite input.  Each box has L = max_j lo_j >=
    2**-1023 (coordinates are 0 or normal, a ring box has some lo_j half a
    normal number), and bisection never lowers L.  A box splits only while
    its widest width w exceeds reach * L >= 2**-10 L / sqrt(n), and its
    coordinates are at most L + w, so w spans over 2**30 ulps of each and
    both halves are nonempty.  The widest width of a line of descent halves
    at least every n splits, so each line ends within n (log2(w_0 / (reach
    L_0)) + 1) splits, about 2100 n at most.  Near the origin only boxes
    within sqrt(n)/kappa of their size from it split again, so the count
    grows with log2(w_0 / L_0), not with w_0 / L_0.  Away from it the count
    is about (w_0 / (reach L_0))**n, which grows as |t|**n once |t| > 2.
    """
    row = np.arange(lo.shape[0])
    graded = []
    while True:
        widths = hi - lo
        done = np.max(widths, axis=1) <= reach * np.max(lo, axis=1)
        graded.append((lo[done], hi[done], row[done]))
        if np.all(done):
            return tuple(np.concatenate(part) for part in zip(*graded))
        split = ~done
        lo, hi, row, widths = lo[split], hi[split], row[split], widths[split]
        idx = np.arange(row.size)
        axis = np.argmax(widths, axis=1)
        mid = lo[idx, axis] + 0.5 * widths[idx, axis]
        lo_r = lo.copy()
        lo_r[idx, axis] = mid
        hi_l = hi.copy()
        hi_l[idx, axis] = mid
        lo, hi, row = np.concatenate([lo, lo_r]), np.concatenate([hi_l, hi]), np.tile(row, 2)


def power_integrals(t: float, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Integral of |x|**t over each box [lower_i, upper_i] intersect (0, inf)**n.

    `lower` and `upper` have shape (m, n); each box is graded on its own,
    with no tolerance or budget: kappa = 1 / max(1, |t|/2) (floored at
    2**-10) shrinks with |t| so that the integrand varies by at most about
    e**2 over a graded box.
    Raises ValueError for a coordinate that is not finite, a clipped
    coordinate that is subnormal (bisection cannot resolve it), for
    |t| > 2048 in n >= 2 (kappa would sit at its floor, and the variation
    bound no longer holds), and when the integral diverges at the origin
    (t + n <= 0 on a corner box).  In one dimension an integral whose
    closed form overflows at both ends is inf.
    """
    hi = np.asarray(upper, dtype=float)
    lo = np.maximum(np.asarray(lower, dtype=float), 0.0)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box coordinates must be finite")
    m, n = lo.shape
    out = np.zeros(m)
    live = np.all(hi > lo, axis=1)
    coords = np.concatenate([lo[live], hi[live]])
    if np.any((coords > 0.0) & (coords < np.finfo(float).tiny)):
        raise ValueError("box coordinates must be 0 or normal floats, not subnormal")

    # exact antiderivative in one dimension
    if n == 1:
        a, b = lo[live, 0], hi[live, 0]
        if t <= -1.0 and np.any(a == 0.0):
            raise ValueError(f"integral of x**{t} diverges at 0")
        with np.errstate(invalid="ignore"):  # inf - inf where both endpoint powers overflow
            value = np.log(b / a) if t == -1.0 else (b ** (t + 1.0) - a ** (t + 1.0)) / (t + 1.0)
        out[live] = np.where(np.isnan(value), np.inf, value)
        return out

    if abs(t) > 2.0 / _KAPPA_FLOOR:  # kappa = 1 / max(1, |t|/2) is at its floor from here on
        raise ValueError(f"|t| = {abs(t)} exceeds {2.0 / _KAPPA_FLOOR:g}, where the graded rule's error bound ends")
    corner = live & np.all(lo == 0.0, axis=1)
    if np.any(corner) and t + n <= 0.0:
        raise ValueError(f"integral of |x|**{t} diverges at the origin corner in dim {n}")
    regular = np.flatnonzero(live & ~corner)
    cells = np.flatnonzero(corner)
    # a corner box (0, hi] is its ring, the 2**n - 1 boxes outside (0, hi/2]
    bits = np.array(list(product((False, True), repeat=n))[1:])
    top = hi[cells][:, None, :]
    mid = 0.5 * top
    ring_lo = np.where(bits, mid, 0.0).reshape(-1, n)
    ring_hi = np.where(bits, top, mid).reshape(-1, n)
    scale = np.ones(m)
    if cells.size:  # t + n > 0 here, so the ring's share 1 - 2**-(t+n) is positive
        scale[cells] = 1.0 / -math.expm1(-(t + n) * math.log(2.0))
    owner = np.concatenate([regular, np.repeat(cells, bits.shape[0])])
    kappa = max(_KAPPA_FLOOR, 1.0 / max(1.0, 0.5 * abs(t)))
    glo, ghi, row = _graded(
        np.concatenate([lo[regular], ring_lo]), np.concatenate([hi[regular], ring_hi]), kappa / math.sqrt(n)
    )
    return out + scale * np.bincount(owner[row], weights=_gl_boxes(t, glo, ghi), minlength=m)


def power_integral_on_box(t: float, lower: tuple[float, ...], side: float | tuple[float, ...]) -> float:
    """Integral of |x|**t over (box intersect (0, inf)**n): power_integrals on one box.

    `side` may be a scalar (cube) or per-axis widths.
    """
    lo = np.array(lower, dtype=float)
    widths = np.full(lo.size, float(side)) if np.isscalar(side) else np.array(side, dtype=float)
    return float(power_integrals(t, lo[None, :], (lo + widths)[None, :])[0])
