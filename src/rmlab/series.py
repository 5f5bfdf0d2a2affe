"""Tail-bounded summation of power series and harmonic partial sums."""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["power_series_sum", "partial_power_sum", "power_series_tail", "harmonic_number"]

# largest run of terms `_power_sum` materialises at once (128 KB of doubles)
_BLOCK = 1 << 14


def _power_sum(exponent: float, lo: int, n: int) -> float:
    """Sum over j = lo..lo+n-1 of j**exponent, bit-identical to one np.sum over the range.

    np.sum adds a contiguous double array by pairwise summation, splitting a
    run of n > 128 terms at n2 = n // 2 - (n // 2) % 8.  Replaying that split
    down to runs of at most _BLOCK terms and adding the halves as doubles
    gives the same result without materialising the whole range.
    """
    if n > _BLOCK:
        n2 = n // 2 - (n // 2) % 8
        return _power_sum(exponent, lo, n2) + _power_sum(exponent, lo + n2, n - n2)
    return float(np.sum(np.arange(lo, lo + n, dtype=float) ** exponent))


def _checked_int(value: int, name: str, least: int) -> int:
    """`value` as an int >= least: any integer but a bool (operator.index)."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not a bool")
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    return n


def partial_power_sum(exponent: float, count: int) -> float:
    """Sum over j = 1..count of j**exponent; `count` is an integer >= 0."""
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")
    return _power_sum(exponent, 1, _checked_int(count, "count", 0))


def harmonic_number(count: int) -> float:
    return partial_power_sum(-1.0, count)


def _tail_with_bound(exponent: float, start: int) -> tuple[float, float]:
    """Euler-Maclaurin tail of sum over j > start of j**exponent.

    Returns (estimate, certified absolute error bound).  The expansion
    through the B2 term has remainder controlled by the third derivative
    of x**exponent on [start, inf).
    """
    e = exponent
    m = float(start)
    integral = m ** (e + 1.0) / (-e - 1.0)
    estimate = integral - 0.5 * m ** e - (e / 12.0) * m ** (e - 1.0)
    # |R| <= (1/(6*pi^2)) * int_m^inf |d^3 x^e / dx^3| dx, crudely bounded
    bound = abs(e * (e - 1.0) * (e - 2.0)) * m ** (e - 2.0) / (2.0 - e) / 60.0
    return estimate, bound


def _require_convergent(exponent: float) -> None:
    if not -math.inf < exponent < -1.0:
        raise ValueError(f"series exponent must be finite and < -1 (else it diverges), got {exponent}")


def power_series_tail(exponent: float, start: int, rel_scale: float = 1.0) -> float:
    """Sum over j > start of j**exponent, to absolute accuracy 1e-10 * rel_scale.

    `start` is an integer >= 1 and `rel_scale` is finite and > 0.
    """
    _require_convergent(exponent)
    m = _checked_int(start, "start", 1)
    if not 0.0 < rel_scale < math.inf:
        raise ValueError(f"rel_scale must be finite and > 0, got {rel_scale}")
    extra = 0.0
    while True:
        est, bound = _tail_with_bound(exponent, m)
        if bound <= 1e-10 * max(rel_scale, abs(est + extra), 1e-300):
            return extra + est
        extra += _power_sum(exponent, m + 1, m)
        m *= 2


def power_series_sum(exponent: float) -> float:
    """Full series sum over j >= 1 of j**exponent (exponent < -1)."""
    _require_convergent(exponent)
    head_terms = 64
    head = partial_power_sum(exponent, head_terms)
    return head + power_series_tail(exponent, head_terms, rel_scale=head)
