"""Inequality checkers, analytic bounds, divergence probes, and the
parameter-space classifier.

Divergence claims are never represented as floating-point infinities:
they are operationalized as growth-class assertions on truncated partial
sums (bounded, logarithmic, or linear, with a fitted rate).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .constructions import (
    ShellConstruction,
    TreeConstruction,
    shell_thresholds,
    tree_descendant_mass_log2,
)
from .funcrep import ParamSpace, StepFunction, lebesgue_norm, lq_norm_on_cube
from .geometry import Cube, CubeFamily, Domain, shell_partition_1d
from .norms import rm_score
from .series import partial_power_sum

__all__ = [
    "PowerSumReport",
    "check_power_sum_inequalities",
    "check_holder_cube",
    "check_embedding",
    "Classification",
    "classify",
    "GrowthReport",
    "growth_probe",
    "sparse_single_overlap_bound",
    "sparse_multi_overlap_bound",
    "tree_single_overlap_bound",
    "tree_multi_overlap_bound",
    "shell_divergence_probe",
]


# ---------------------------------------------------------------------------
# elementary power-sum inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSumReport:
    """Outcome of the four power-sum comparisons for one (sequence, gamma).

    Entries are None when the exponent range makes a part inapplicable.
    full_* compare the whole sequence, head_* the first `head_count` terms
    with the cardinality factor N**(1-gamma).
    """

    full_upper: bool | None   # gamma >= 1:  sum a^g <= (sum a)^g
    head_upper: bool | None   # gamma in [0,1]: sum_{j<=N} a^g <= N^(1-g) (sum_{j<=N} a)^g
    full_lower: bool | None   # gamma in [0,1]: sum a^g >= (sum a)^g
    head_lower: bool | None   # gamma >= 1:  sum_{j<=N} a^g >= N^(1-g) (sum_{j<=N} a)^g

    @property
    def all_hold(self) -> bool:
        return all(v is not False for v in (self.full_upper, self.head_upper, self.full_lower, self.head_lower))


def check_power_sum_inequalities(
    seq: Sequence[float], gamma: float, head_count: int | None = None, rel_tol: float = 1e-12
) -> PowerSumReport:
    """Verify the four power-sum inequalities on a positive sequence."""
    a = np.asarray(seq, dtype=float)
    if a.size == 0 or np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("sequence entries must be positive and finite")
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    n_head = a.size if head_count is None else head_count
    if not 1 <= n_head <= a.size:
        raise ValueError("head_count out of range")
    head = a[:n_head]

    def leq(lhs: float, rhs: float) -> bool:
        return lhs <= rhs * (1.0 + rel_tol) + 1e-300

    full_pow = float(np.sum(a ** gamma))
    full_sum = float(np.sum(a)) ** gamma
    head_pow = float(np.sum(head ** gamma))
    head_sum = n_head ** (1.0 - gamma) * float(np.sum(head)) ** gamma

    if gamma >= 1.0:
        return PowerSumReport(
            full_upper=leq(full_pow, full_sum),
            head_upper=None if gamma > 1.0 else leq(head_pow, head_sum),
            full_lower=None if gamma > 1.0 else leq(full_sum, full_pow),
            head_lower=leq(head_sum, head_pow),
        )
    return PowerSumReport(
        full_upper=None,
        head_upper=leq(head_pow, head_sum),
        full_lower=leq(full_sum, full_pow),
        head_lower=None,
    )


# ---------------------------------------------------------------------------
# per-cube Hoelder and the critical embedding
# ---------------------------------------------------------------------------

def check_holder_cube(f: StepFunction, cube: Cube, params: ParamSpace, rel_tol: float = 1e-12) -> bool:
    """|Q|**(1-p*alpha-p/q) ||f||_{L^q(Q)}**p <= (int_Q |f|**theta)**(1-p*alpha)."""
    params.require_intermediate_regime()
    theta = params.theta
    lhs = cube.volume ** params.score_exponent * lq_norm_on_cube(f, cube, params.q) ** params.p
    rhs = lq_norm_on_cube(f, cube, theta) ** theta
    rhs = rhs ** (1.0 - params.p * params.alpha)
    return lhs <= rhs * (1.0 + rel_tol) + 1e-300


def check_embedding(
    f: StepFunction,
    families: Iterable[CubeFamily | Sequence[Cube]],
    params: ParamSpace,
    domain: Domain | None = None,
    rel_tol: float = 1e-12,
) -> bool:
    """Every family score**(1/p) must sit below the critical Lebesgue norm."""
    params.require_intermediate_regime()
    dom = domain if domain is not None else Domain.whole_space(f.dim)
    bound = lebesgue_norm(f, dom, params.theta).value
    for fam in families:
        val = rm_score(f, fam, params) ** (1.0 / params.p)
        if val > bound * (1.0 + rel_tol) + 1e-300:
            return False
    return True


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

ZERO_SPACE = "ZeroSpace"
EQUALS_LQ = "EqualsLq"
EQUALS_LP = "EqualsLp"
PROPER_SUPERSET_OF_LTHETA = "ProperSupersetOfLtheta"
EQUALS_MORREY = "EqualsMorrey"


@dataclass(frozen=True)
class Classification:
    """Verdict for one (p, q, alpha, domain-kind) point."""

    verdict: str
    theta: float | None = None
    tag: str = ""


def classify(p: float, q: float, alpha: float, domain_kind: str) -> Classification:
    """Total classification of the partition-norm space on all indices.

    Case table (whole space / cube, q < p / q >= p), including the
    single-cube-branch identification with the Morrey space at p = inf
    for alpha in (-1/q, 0).
    """
    if domain_kind not in ("whole-space", "cube"):
        raise ValueError(f"unknown domain kind {domain_kind!r}")
    if p < 1.0 or q < 1.0:
        raise ValueError("p and q must be >= 1 (or inf)")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    split = inv_p - inv_q  # 1/p - 1/q
    # alpha sitting within rounding error of the split is the boundary case
    if alpha != split and abs(alpha - split) <= 8.0 * sys.float_info.epsilon * max(1.0, abs(split)):
        alpha = split

    if q < p:
        if math.isinf(p) and not math.isinf(q) and -inv_q < alpha < 0.0:
            return Classification(EQUALS_MORREY, tag="single-cube-branch")
        if alpha == 0.0:
            return Classification(EQUALS_LP, tag=f"{domain_kind}:q<p:alpha=0")
        if split < alpha < 0.0:
            return Classification(
                PROPER_SUPERSET_OF_LTHETA,
                theta=ParamSpace(p, q, alpha).theta,
                tag=f"{domain_kind}:q<p:intermediate",
            )
        if domain_kind == "whole-space":
            if alpha == split:
                return Classification(EQUALS_LQ, tag="whole-space:q<p:alpha=split")
            return Classification(ZERO_SPACE, tag="whole-space:q<p:outside")
        if alpha <= split:
            return Classification(EQUALS_LQ, tag="cube:q<p:alpha<=split")
        return Classification(ZERO_SPACE, tag="cube:q<p:alpha>0")

    # q >= p
    if domain_kind == "whole-space":
        if alpha == 0.0 and split == 0.0:
            return Classification(EQUALS_LQ, tag="whole-space:q=p:alpha=0")
        return Classification(ZERO_SPACE, tag="whole-space:q>=p:otherwise")
    if alpha <= 0.0:
        return Classification(EQUALS_LQ, tag="cube:q>=p:alpha<=0")
    return Classification(ZERO_SPACE, tag="cube:q>=p:alpha>0")


# ---------------------------------------------------------------------------
# growth probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    """Growth classification of a nondecreasing truncation sequence.

    fit_class is one of "bounded", "logarithmic", "linear", or
    "inconclusive".  Thresholds: the sequence is bounded when the fitted
    log-slope over the second half of the (log-spaced) samples collapses
    below COLLAPSE_RATIO times the first-half slope; otherwise the
    logarithmic and linear least-squares fits must separate by a residual
    ratio of at least RESIDUAL_RATIO.
    """

    samples: tuple[tuple[float, float], ...]
    fit_class: str
    rate: float
    residual: float


COLLAPSE_RATIO = 0.2
RESIDUAL_RATIO = 10.0


def _ls_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares y ~ a + b x; returns (a, b, rms residual)."""
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid ** 2)))


def growth_probe(partial_sums: Iterable[float], sample_points: Sequence[int]) -> GrowthReport:
    """Classify the growth of partial sums sampled at the given indices.

    `partial_sums` yields S_1, S_2, ... in order; the 1-indexed values at
    `sample_points` are captured and fitted.  Raises on nonmonotone input.
    """
    ks = sorted(set(int(k) for k in sample_points))
    if not ks or ks[0] < 1:
        raise ValueError("sample points must be positive integers")
    want = set(ks)
    samples: list[tuple[float, float]] = []
    prev = -math.inf
    for idx, s in enumerate(partial_sums, start=1):
        if s < prev * (1.0 - 1e-15) - 1e-300:
            raise ValueError(f"partial sums decrease at index {idx}")
        prev = max(prev, s)
        if idx in want:
            samples.append((float(idx), float(s)))
        if idx >= ks[-1]:
            break
    if len(samples) != len(ks):
        raise ValueError("generator exhausted before the last sample point")
    if len(samples) < 4:
        raise ValueError("need at least four sample points")

    k = np.array([a for a, _ in samples])
    s = np.array([b for _, b in samples])
    logk = np.log(k)

    half = len(samples) // 2
    _, b_first, _ = _ls_fit(logk[:half], s[:half])
    _, b_second, _ = _ls_fit(logk[half:], s[half:])
    _, b_log, res_log = _ls_fit(logk, s)
    _, b_lin, res_lin = _ls_fit(k, s)

    def report(cls: str, rate: float, res: float) -> GrowthReport:
        return GrowthReport(tuple(samples), cls, rate, res)

    span = float(s[-1] - s[0])
    scale = max(abs(float(s[-1])), 1e-300)
    # flat data: slopes are numerical noise, call it bounded outright
    if span <= 1e-12 * scale:
        return report("bounded", 0.0, float(np.std(s)))
    if abs(b_second) <= COLLAPSE_RATIO * abs(b_first):
        return report("bounded", float(np.mean(s)), float(np.std(s[half:])))
    if res_log * RESIDUAL_RATIO <= res_lin:
        return report("logarithmic", b_log, res_log)
    if res_lin * RESIDUAL_RATIO <= res_log:
        return report("linear", b_lin, res_lin)
    return report("inconclusive", 0.0, min(res_log, res_lin))


# ---------------------------------------------------------------------------
# analytic bounds for the sparse construction on the whole space
# ---------------------------------------------------------------------------

def sparse_single_overlap_bound(count: int, params: ParamSpace) -> float:
    """Upper bound for the score mass of cubes meeting at most one sparse cube.

    Partial sum of l**(p*alpha - 1) over l <= count plus the integral tail
    of the full series; valid for every truncation and every family.
    """
    params.require_intermediate_regime()
    if count < 1:
        raise ValueError("count must be >= 1")
    e = params.p * params.alpha - 1.0
    partial = partial_power_sum(e, count)
    tail = count ** (e + 1.0) / (-e - 1.0)
    return partial + tail


def sparse_multi_overlap_bound(params: ParamSpace, dim: int) -> tuple[float, float]:
    """Upper bound for the score mass of cubes meeting two or more sparse cubes.

    Any such cube stretches between consecutive sparse cubes, so its score
    is dominated by g(t) = t**(p/q) / (2**t - 3/2)**(n(p/q + p*alpha - 1))
    evaluated at the index span, times a geometric series in the start
    index.  Returns (bound, sup_g).
    """
    params.require_intermediate_regime()
    p, q, alpha = params.p, params.q, params.alpha
    decay = dim * (p / q + p * alpha - 1.0)  # = -n * score_exponent > 0
    if decay <= 0.0:
        raise ValueError("regime violation: 1 - p*alpha - p/q must be negative")

    def g(t: np.ndarray) -> np.ndarray:
        return t ** (p / q) / (2.0 ** t - 1.5) ** decay

    # dense scan then golden-section refinement around the best point; the
    # maximizer sits near (p/q)/(decay ln 2), so the scan range adapts
    t_max = max(80.0, 6.0 * (p / q) / (decay * math.log(2.0)))
    grid = np.linspace(1.0, t_max, 8000)
    vals = g(grid)
    j = int(np.argmax(vals))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, grid.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while b - a > 1e-10:
        c1 = b - phi * (b - a)
        c2 = a + phi * (b - a)
        if g(np.array(c1)) >= g(np.array(c2)):
            b = c2
        else:
            a = c1
    sup_g = float(g(np.array(0.5 * (a + b))))
    sup_g = max(sup_g, float(vals[j]))

    ratio = 2.0 ** (dim * params.score_exponent)
    geometric = ratio / (1.0 - ratio)
    return sup_g * geometric, sup_g


# ---------------------------------------------------------------------------
# analytic bounds for the tree construction on a cube
# ---------------------------------------------------------------------------

def tree_single_overlap_bound(params: ParamSpace) -> float:
    """Closed-form bound 2**((1-p*alpha)/2) / (1 - 2**(p*alpha)) for the
    score mass of cubes meeting at most one tree cube (alpha < 0)."""
    if params.alpha >= 0.0:
        raise ValueError("bound requires alpha < 0")
    pa = params.p * params.alpha
    return 2.0 ** (0.5 * (1.0 - pa)) / (1.0 - 2.0 ** pa)


def tree_multi_overlap_bound(tree: TreeConstruction, rel_tol: float = 1e-15) -> float:
    """Numeric bound for the score mass of cubes meeting several tree cubes.

    Per level i, at most 2**(i+1) such cubes exist, each of volume at
    least (gap_i / sqrt(n))**n and each holding at most the full
    descendant mass of one level-i cube.  Level terms are assembled in
    log2 space (the gaps shrink like 2**(-i**2/2), far below the float
    range, while the terms themselves only decay like 2**(p*alpha*i));
    beyond the widened levels the per-axis gap is lower-bounded by d_i/2,
    which keeps the bound valid since the volume exponent is negative.
    """
    params = tree.params
    n = tree.dim
    e = params.score_exponent
    total = 0.0
    i = 0
    while True:
        if i <= tree.cutoff:
            gap_axis = tree.spacing.distance(i) - tree.spacing.reach(i + 1)
            if gap_axis <= 0.0:
                raise ValueError(f"nonpositive gap at level {i}")
            log2_gap_axis = math.log2(gap_axis)
        else:
            # delta_i >= sqrt(n) d_i / 2 beyond the cutoff, so the per-axis
            # gap is at least d_i / 2 = 2**(-(i+1)**2/(2n) - 1)
            log2_gap_axis = -((i + 1) ** 2) / (2.0 * n) - 1.0
        log2_mass = tree_descendant_mass_log2(params, i, params.q)
        log2_term = (i + 1) + n * e * log2_gap_axis + (params.p / params.q) * log2_mass
        term = 2.0 ** log2_term if log2_term > -1060.0 else 0.0
        total += term
        if i > tree.cutoff + 4 and i > tree.depth and (term <= rel_tol * total or term == 0.0):
            return total
        i += 1
        if i > 100_000:
            raise RuntimeError("multi-overlap bound did not converge")


# ---------------------------------------------------------------------------
# shell divergence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellDivergenceResult:
    report: GrowthReport
    expected_rate: float
    shells: ShellConstruction
    partial_sums: tuple[float, ...]


def shell_divergence_probe(
    shell_count: int,
    parts_per_side: int,
    p: float,
    q: float,
    alpha: float,
    sample_points: Sequence[int] | None = None,
) -> ShellDivergenceResult:
    """Score partial sums of indicator shells inside [-1, 1]; expects
    logarithmic growth.

    Shell k is partitioned into 2 * parts_per_side intervals, each scoring
    |Q|**(1-p*alpha); by the shell mass law the k-th contribution is
    (2 * parts)**(p*alpha) * [(|E|/(2Z)) * k**e]**(1-p*alpha) with
    e*(1-p*alpha) = -1, a harmonic series.  The expected fitted rate is
    (2*parts)**(p*alpha) * (|E|/(2Z))**(1-p*alpha); the bare mass-law
    factor (|E|/(2Z))**(1-p*alpha) is the analytic lower-bound rate.
    """
    if not (1.0 <= p < math.inf and p < q and 0.0 < alpha < 1.0 / p - (0.0 if math.isinf(q) else 1.0 / q)):
        raise ValueError("probe requires p in [1,inf), q in (p,inf], alpha in (0, 1/p - 1/q)")
    shells = shell_thresholds(p, alpha, shell_count)
    indicator = StepFunction(((Cube((-1.0,), 2.0), 1.0),))
    params = ParamSpace(p, q, alpha)
    e = params.score_exponent

    partials: list[float] = []
    acc = 0.0
    for k in range(1, shell_count + 1):
        fam = shell_partition_1d(shells.threshold(k - 1), shells.threshold(k), parts_per_side)
        acc += rm_score(indicator, fam, params, check=False)
        partials.append(acc)

    pts = tuple(sample_points) if sample_points is not None else _log_spaced(shell_count)
    report = growth_probe(iter(partials), pts)
    z = shells.normalizer
    expected = (2.0 * parts_per_side) ** (p * alpha) * (1.0 / z) ** (1.0 - p * alpha)
    return ShellDivergenceResult(
        report=report, expected_rate=expected, shells=shells, partial_sums=tuple(partials)
    )


def _log_spaced(top: int, count: int = 12) -> tuple[int, ...]:
    pts = np.unique(np.round(np.logspace(math.log10(2), math.log10(top), count)).astype(int))
    return tuple(int(v) for v in pts if v >= 1)
