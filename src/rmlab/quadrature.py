"""Adaptive quadrature of radial power integrands over axis-aligned boxes.

Integrates |x|**t over box-intersect-positive-orthant regions, a batch of
boxes at a time.  In one dimension the antiderivative is exact.  Away from
the origin the integrand is smooth: every box of a batch is refined in the
same array pass by tensor Gauss-Legendre with widest-axis bisection, until
its coarse and fine rules agree within rel_tol times its first fine
estimate (halved at each split).  A box whose lower corner, clipped to the
orthant, is the origin is integrated in closed form: scaling by 1/2 maps
(0, hi] onto (0, hi/2] and multiplies the integral by 2**-(t+n), so the
corner integral is the integral over the ring of 2**n - 1 regular boxes
between them divided by 1 - 2**-(t+n).  It is finite iff t + n > 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

__all__ = ["power_integral_on_box", "power_integrals", "QuadratureBudgetError"]

_GL_ORDER_COARSE = 5
_GL_ORDER_FINE = 8
# quadrature node coordinates held at once by one evaluation pass
_PASS_FLOATS = 1 << 20


class QuadratureBudgetError(RuntimeError):
    """Subdivision budget exhausted before the tolerance was met."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(f"{message} (achieved value {value!r}, error estimate {error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


@lru_cache(maxsize=None)
def _gl_nodes(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre nodes/weights on [0, 1]**dim."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    return pts, wts


def _gl_boxes(t: float, lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
    """Tensor Gauss-Legendre estimate on each box (rows of lo and hi)."""
    m, dim = lo.shape
    pts, wts = _gl_nodes(order, dim)
    widths = hi - lo
    out = np.empty(m)
    step = max(1, _PASS_FLOATS // pts.size)
    for i in range(0, m, step):
        x = lo[i:i + step, None, :] + pts * widths[i:i + step, None, :]
        vals = np.sum(x * x, axis=2) ** (0.5 * t)
        out[i:i + step] = np.prod(widths[i:i + step], axis=1) * np.sum(vals * wts, axis=1)
    return out


def _adaptive(
    t: float, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, scale: np.ndarray,
    rel_tol: float, budget: int,
) -> np.ndarray:
    """scale[k] times the integral over the boxes owned by k, for every owner k.

    All boxes are refined together: a box is accepted when its coarse and
    fine rules agree within its tolerance, and otherwise bisected along its
    widest axis.  An owner whose boxes would take more than `budget`
    evaluations raises QuadratureBudgetError with its partial value and
    the error estimate of its unresolved boxes.
    """
    k = scale.size
    total = np.zeros(k)
    used = np.zeros(k, dtype=np.int64)
    pending = np.full(k, math.inf)
    tol = None
    while owner.size:
        used += np.bincount(owner, minlength=k)
        over = np.flatnonzero(used > budget)
        if over.size:
            j = over[0]
            raise QuadratureBudgetError(
                "quadrature budget exceeded", float(scale[j] * total[j]), float(scale[j] * pending[j])
            )
        coarse = _gl_boxes(t, lo, hi, _GL_ORDER_COARSE)
        fine = _gl_boxes(t, lo, hi, _GL_ORDER_FINE)
        if tol is None:
            tol = rel_tol * np.maximum(np.abs(fine), 1e-300)
        err = np.abs(fine - coarse)
        done = err <= tol
        total += np.bincount(owner[done], weights=fine[done], minlength=k)
        split = ~done
        pending = np.bincount(owner[split], weights=err[split], minlength=k)
        lo, hi, tol, owner = lo[split], hi[split], tol[split], owner[split]
        rows = np.arange(owner.size)
        axis = np.argmax(hi - lo, axis=1)
        mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
        lo_r = lo.copy()
        lo_r[rows, axis] = mid
        hi_l = hi.copy()
        hi_l[rows, axis] = mid
        lo, hi = np.concatenate([lo, lo_r]), np.concatenate([hi_l, hi])
        tol, owner = np.tile(0.5 * tol, 2), np.tile(owner, 2)
    return scale * total


def power_integrals(
    t: float,
    lower: np.ndarray,
    upper: np.ndarray,
    rel_tol: float = 1e-8,
    budget: int = 50_000,
) -> np.ndarray:
    """Integral of |x|**t over each box [lower_i, upper_i] intersect (0, inf)**n.

    `lower` and `upper` have shape (m, n).  Each box is held to rel_tol
    and to `budget` subdivisions on its own.  Raises QuadratureBudgetError
    for the first box whose budget runs out, and ValueError when the
    integral diverges at the origin (t + n <= 0 with a box touching the
    corner).
    """
    hi = np.asarray(upper, dtype=float)
    lo = np.maximum(np.asarray(lower, dtype=float), 0.0)
    m, n = lo.shape
    out = np.zeros(m)
    live = np.all(hi > lo, axis=1)

    # exact antiderivative in one dimension
    if n == 1:
        a, b = lo[live, 0], hi[live, 0]
        if t <= -1.0 and np.any(a == 0.0):
            raise ValueError(f"integral of x**{t} diverges at 0")
        out[live] = np.log(b / a) if t == -1.0 else (b ** (t + 1.0) - a ** (t + 1.0)) / (t + 1.0)
        return out

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
    out += _adaptive(
        t,
        np.concatenate([lo[regular], ring_lo]),
        np.concatenate([hi[regular], ring_hi]),
        np.concatenate([regular, np.repeat(cells, bits.shape[0])]),
        scale,
        rel_tol,
        budget,
    )
    return out


def power_integral_on_box(
    t: float,
    lower: tuple[float, ...],
    side: float | tuple[float, ...],
    rel_tol: float = 1e-8,
    budget: int = 50_000,
) -> float:
    """Integral of |x|**t over (box intersect (0, inf)**n): power_integrals on one box.

    `side` may be a scalar (cube) or per-axis widths.
    """
    lo = np.array(lower, dtype=float)
    widths = np.full(lo.size, float(side)) if np.isscalar(side) else np.array(side, dtype=float)
    return float(power_integrals(t, lo[None, :], (lo + widths)[None, :], rel_tol, budget)[0])
