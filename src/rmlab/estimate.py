"""Norm estimates: a value, its bound kind, and the certificate behind it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["NormEstimate", "EXACT", "LOWER_BOUND", "UPPER_BOUND"]

EXACT = "exact"
LOWER_BOUND = "lower-bound"
UPPER_BOUND = "upper-bound"

_KINDS = (EXACT, LOWER_BOUND, UPPER_BOUND)


@dataclass(frozen=True)
class NormEstimate:
    """A nonnegative norm value with provenance.

    For lower bounds the certificate is the achieving cube family; for
    analytic upper bounds it is a formula tag.  `trace` records
    (truncation-or-depth, value) pairs; for lower bounds those values are
    nondecreasing.  Infinite values use math.inf.
    """

    value: float
    kind: str
    certificate: Any = None
    trace: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimate kind {self.kind!r}")
        # rejects negatives and NaN; +inf passes (divergence flag)
        if not self.value >= 0.0:
            raise ValueError(f"estimate value must be >= 0, got {self.value}")
        object.__setattr__(self, "trace", tuple((float(a), float(b)) for a, b in self.trace))

    def as_dict(self) -> dict:
        cert: Any
        if self.certificate is None:
            cert = None
        elif isinstance(self.certificate, str):
            cert = self.certificate
        else:
            cert = [
                {"lower": list(c.lower), "side": c.side} for c in self.certificate
            ]
        return {
            "value": self.value,
            "kind": self.kind,
            "certificate": cert,
            "trace": [[a, b] for a, b in self.trace],
        }
