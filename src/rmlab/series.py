"""Tail-bounded summation of power series and harmonic partial sums."""

from __future__ import annotations

import numpy as np

__all__ = ["power_series_sum", "partial_power_sum", "power_series_tail", "harmonic_number"]


def partial_power_sum(exponent: float, count: int) -> float:
    """Sum over j = 1..count of j**exponent."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return 0.0
    return float(np.sum(np.arange(1, count + 1, dtype=float) ** exponent))


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


def power_series_tail(exponent: float, start: int, rel_scale: float = 1.0) -> float:
    """Sum over j > start of j**exponent, to absolute accuracy 1e-10 * rel_scale."""
    if exponent >= -1.0:
        raise ValueError(f"series with exponent {exponent} diverges")
    m = max(int(start), 1)
    extra = 0.0
    while True:
        est, bound = _tail_with_bound(exponent, m)
        if bound <= 1e-10 * max(rel_scale, abs(est + extra), 1e-300):
            return extra + est
        step = m
        extra += float(np.sum(np.arange(m + 1, m + step + 1, dtype=float) ** exponent))
        m += step


def power_series_sum(exponent: float) -> float:
    """Full series sum over j >= 1 of j**exponent (exponent < -1)."""
    if exponent >= -1.0:
        raise ValueError(f"series with exponent {exponent} diverges")
    head_terms = 64
    head = partial_power_sum(exponent, head_terms)
    return head + power_series_tail(exponent, head_terms, rel_scale=head)
