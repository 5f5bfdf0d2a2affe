"""Named verification probes.

Each probe builds its own oracle data, runs one claim of the toolkit at a
fixed tolerance, and returns a ProbeResult with machine-readable details.
`PROBES` is the one registry: it names every probe, and each probe takes
only the settings that a `rmlab verify` flag sets, under the flag's
argparse dest (`seed`, `K`, `depth`, `grid`); every other setting is a
constant of the probe.  The CLI names, times and writes each verdict, and
the acceptance suite calls each probe with its defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .analysis import (
    check_power_sum_inequalities,
    classify,
    growth_probe,
    shell_divergence_probe,
    sparse_multi_overlap_bound,
    sparse_single_overlap_bound,
    tree_multi_overlap_bound,
    tree_single_overlap_bound,
)
from .constructions import _TREE_MAX_DEPTH, build_tree, sparse_function, tree_function
from .funcrep import ParamSpace, StepFunction, lebesgue_norm, weak_norm
from .geometry import Cube, Domain, _checked_cubes, interiors_pairwise_disjoint
from .norms import riesz_norm, rm_norm_dyadic, rm_norm_intervals_1d, rm_score
from .series import harmonic_number

__all__ = [
    "ProbeResult",
    "PROBES",
    "verify_riesz_identity",
    "verify_singleton_regime",
    "verify_shell_divergence",
    "verify_sparse_function",
    "verify_tree_function",
    "verify_embedding",
    "verify_oracle_equivalence",
    "verify_classifier",
    "verify_power_sums",
    "random_dyadic_step",
    "random_step_function",
    "random_dyadic_partition",
    "random_intermediate_params",
]


@dataclass
class ProbeResult:
    passed: bool
    details: dict
    trace_rows: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        # numpy comparisons produce np.bool_, which JSON rejects
        self.passed = bool(self.passed)


# ---------------------------------------------------------------------------
# random generators (seeded, shared with the test suite)
# ---------------------------------------------------------------------------

def random_dyadic_step(rng: np.random.Generator, root: Cube, depth: int) -> StepFunction:
    """Step function constant on the depth-level dyadic cells of the root: a
    cell is zero with chance 1/4, else its height is uniform in [0.05, 3)."""
    n = root.dim
    w = root.side / (1 << depth)
    lows, heights = [], []
    for idx in product(range(1 << depth), repeat=n):
        if rng.random() < 0.25:
            continue
        heights.append(0.05 + (3.0 - 0.05) * rng.random())
        lows.append(tuple(root.lower[j] + idx[j] * w for j in range(n)))
    if not lows:
        lows.append(tuple(root.lower))
        heights.append(0.05 + (3.0 - 0.05) * rng.random())
    return StepFunction(tuple(zip(_checked_cubes(lows, [w] * len(lows)), heights)))


# side of the cube [-_SPAN/2, _SPAN/2]**n that holds random_step_function's pieces
_SPAN = 8.0


def random_step_function(rng: np.random.Generator, dim: int) -> StepFunction:
    """One to twelve disjoint random supports on a jittered coarse lattice in
    [-_SPAN/2, _SPAN/2]**n.  The uniforms (side, offset per axis, height of
    each piece) are one rng.random batch, as lo + (hi - lo) * u like numpy."""
    count = int(rng.integers(1, 13))
    base = 16 if dim == 1 else 6
    cells = rng.choice(base ** dim, size=count, replace=False)
    u = iter(rng.random(count * (dim + 2)).tolist())
    lows, sides, heights = [], [], []
    cell_w = _SPAN / base
    for c in cells.tolist():
        idx = [0] * dim  # the C-order lattice index of cell c
        for j in range(dim - 1, -1, -1):
            c, idx[j] = divmod(c, base)
        side = cell_w * (0.2 + (0.95 - 0.2) * next(u))
        lows.append(tuple(-0.5 * _SPAN + idx[j] * cell_w + (cell_w - side) * next(u) for j in range(dim)))
        sides.append(side)
        heights.append(0.05 + (4.0 - 0.05) * next(u))
    return StepFunction(tuple(zip(_checked_cubes(lows, sides), heights)))


def random_dyadic_partition(rng: np.random.Generator, root: Cube, max_depth: int = 4) -> tuple[Cube, ...]:
    """Random recursive dyadic partition of the root cube: each cube less
    than max_depth levels down splits with chance 0.55, into the cubes of
    dyadic_children in their order."""
    bits = list(product((0, 1), repeat=root.dim))
    lows, sides = [], []
    stack = [(root.lower, root.side, 0)]
    while stack:
        lower, side, d = stack.pop()
        if d < max_depth and rng.random() < 0.55:
            half = 0.5 * side
            stack.extend((tuple(lo + half * b for lo, b in zip(lower, kid)), half, d + 1) for kid in bits)
        else:
            lows.append(lower)
            sides.append(side)
    return _checked_cubes(lows, sides)


def random_intermediate_params(rng: np.random.Generator) -> ParamSpace:
    """Random (p, q, alpha) with p in (1, inf), q in [1, p), alpha in (1/p-1/q, 0)."""
    u = rng.random(3).tolist()
    p = 1.2 + (4.0 - 1.2) * u[0]
    q = 1.0 + 0.92 * u[1] * (p - 1.0)
    split = 1.0 / p - 1.0 / q
    alpha = split * (0.05 + (0.95 - 0.05) * u[2])
    return ParamSpace(p, q, alpha)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def verify_riesz_identity(seed: int = 7) -> ProbeResult:
    """Partition norm at (p, 1, 0) equals the L^p norm for dyadic step functions."""
    count, exponents, max_depth, tol = 100, (1.5, 2.0, 3.0), 6, 1e-9
    rng = np.random.default_rng(seed)
    root = Cube((0.0,), 1.0)
    worst = 0.0
    rows = []
    for i in range(count):
        depth = int(rng.integers(1, max_depth + 1))
        f = random_dyadic_step(rng, root, depth)
        for p in exponents:
            lp = lebesgue_norm(f, Domain.of_cube(root), p).value
            rp = riesz_norm(f, root, p, depth).value
            rel = abs(rp - lp) / lp if lp > 0 else abs(rp)
            worst = max(worst, rel)
            rows.append({"case": i, "p": p, "depth": depth, "lp": lp, "partition": rp, "rel_err": rel})
    return ProbeResult(
        worst <= tol,
        {"max_rel_err": worst, "tolerance": tol, "cases": count, "exponents": list(exponents), "seed": seed},
        rows,
    )


def verify_singleton_regime(seed: int = 11, grid: int = 10) -> ProbeResult:
    """With q <= p and alpha <= 1/p - 1/q the whole cube is the optimal family.

    The exact optimum over grid-interval families (the interval DP)
    confirms that no such family beats the singleton and that it equals
    |Q0|**(1-p*alpha-p/q) ||f||_{L^q(Q0)}**p, on `grid` cells.
    """
    # each (p, q, alpha) has q <= p and -1/q < alpha <= 1/p - 1/q; the last on the boundary
    param_triples = ((2.0, 1.0, -0.6), (3.0, 2.0, -0.2), (3.0, 2.0, 1.0 / 3.0 - 0.5))
    count, tol = 12, 1e-9
    rng = np.random.default_rng(seed)
    root = Cube((0.0,), 1.0)
    worst = 0.0
    exceeded = 0.0
    for (p, q, alpha) in param_triples:
        params = ParamSpace(p, q, alpha)
        for i in range(count):
            f = random_dyadic_step(rng, root, int(rng.integers(1, 5)))
            singleton = rm_score(f, [root], params)
            iv = rm_norm_intervals_1d(f, root, grid, params)
            best = iv.value ** p
            exceeded = max(exceeded, (best - singleton) / max(singleton, 1e-300))
            worst = max(worst, abs(best - singleton) / max(singleton, 1e-300))
    passed = worst <= tol and exceeded <= 1e-12
    return ProbeResult(
        passed,
        {
            "max_rel_err": worst,
            "max_excess_over_singleton": exceeded,
            "tolerance": tol,
            "grid_cells": grid,
            "triples": [list(t) for t in param_triples],
            "seed": seed,
        },
    )


def verify_shell_divergence(K: int = 200) -> ProbeResult:
    """Indicator scores over K shells diverge harmonically at the predicted rate."""
    parts_per_side, p, q, alpha, rate_tol = 1, 1.0, 2.0, 0.25, 0.10
    res = shell_divergence_probe(K, parts_per_side, p, q, alpha)
    rate_ok = abs(res.report.rate / res.expected_rate - 1.0) <= rate_tol
    passed = res.report.fit_class == "logarithmic" and rate_ok
    rows = [{"k": i + 1, "partial_sum": s} for i, s in enumerate(res.partial_sums)]
    bare = (1.0 / res.shells.normalizer) ** (1.0 - p * alpha)
    return ProbeResult(
        passed,
        {
            "fit_class": res.report.fit_class,
            "fitted_rate": res.report.rate,
            "expected_rate": res.expected_rate,
            "mass_law_rate": bare,
            "equipartition_factor": (2.0 * parts_per_side) ** (p * alpha),
            "rate_tolerance": rate_tol,
            "normalizer": res.shells.normalizer,
            "shells": K,
        },
        rows,
    )


def verify_sparse_function() -> ProbeResult:
    """Sparse whole-space function: critical integral, score bounds, weak norm."""
    truncations, dp_depth, frozen_h1000 = (10, 100, 1000), 12, 7.485470860550343
    p, q, alpha = 2.0, 1.0, -0.25
    params = ParamSpace(p, q, alpha)
    theta = params.theta
    dim = 1
    checks: dict[str, bool] = {}
    details: dict = {"theta": theta}

    # (a) critical integral equals the harmonic number and grows like log
    max_l = max(truncations)
    fs = {L: sparse_function(L, dim) for L in truncations}
    integ_err = 0.0
    for L in truncations:
        integral = lebesgue_norm(fs[L], Domain.whole_space(dim), theta).value ** theta
        integ_err = max(integ_err, abs(integral - harmonic_number(L)) / harmonic_number(L))
    checks["critical_integral_is_harmonic"] = integ_err <= 1e-12
    details["critical_integral_rel_err"] = integ_err
    h1000 = harmonic_number(1000)
    checks["harmonic_1000_frozen"] = abs(h1000 - frozen_h1000) <= 1e-12 * frozen_h1000
    details["harmonic_1000"] = h1000
    vols = 1.0 / np.arange(1, max_l + 1)
    rep = growth_probe(iter(np.cumsum(vols)), [int(v) for v in np.logspace(0.5, math.log10(max_l), 12)])
    checks["critical_integral_growth_logarithmic"] = rep.fit_class == "logarithmic"
    details["growth_fit"] = {"class": rep.fit_class, "rate": rep.rate}

    # (b) optimizer scores stay under the two-part analytic bound
    bound_multi, sup_g = sparse_multi_overlap_bound(params, dim)
    bound_single = sparse_single_overlap_bound(10 ** 6, params)
    bound = bound_multi + bound_single
    details["score_upper_bound"] = {"multi": bound_multi, "single": bound_single, "sup_g": sup_g}
    worst_score = 0.0
    rows = []
    for m in (5, 8, 11):
        root = Cube((0.0,), float(2 ** m))
        est = rm_norm_dyadic(fs[max_l], root, dp_depth, params)
        worst_score = max(worst_score, est.value ** p)
        rows.append({"root_side": 2 ** m, "depth": dp_depth, "score": est.value ** p, "bound": bound})
    checks["scores_below_bound"] = worst_score <= bound
    details["max_dp_score"] = worst_score

    # (c) weak norm grows without bound along truncations
    wvals = [weak_norm(fs[L], p, alpha) for L in truncations]
    checks["weak_norm_increasing"] = all(b > a for a, b in zip(wvals, wvals[1:]))
    checks["weak_norm_doubles"] = wvals[-1] >= 2.0 * wvals[0]
    details["weak_norms"] = dict(zip([str(L) for L in truncations], wvals))

    details["checks"] = checks
    return ProbeResult(all(checks.values()), details, rows)


def verify_tree_function(depth: int = 12) -> ProbeResult:
    """Diagonal tree of the given depth on a cube: geometry, level masses, score stabilization."""
    # the growth fit needs depth + 1 >= 4 levels; the tree's 2**(depth + 1) - 1 cubes are all
    # built and compared, so time and memory double per level up to build_tree's cap
    # (at the cap: seconds, hundreds of MB)
    if not 3 <= depth <= _TREE_MAX_DEPTH:
        raise ValueError(f"depth must be in 3..{_TREE_MAX_DEPTH}, got {depth}")
    dim, p, q, alpha = 1, 2.0, 1.0, -0.25
    params = ParamSpace(p, q, alpha)
    tree = build_tree(dim, depth, params)
    f = tree_function(tree)
    theta = params.theta
    checks: dict[str, bool] = {}
    details: dict = {"domain_side": tree.domain_side, "cutoff": tree.cutoff, "cubes": len(f)}

    # (a) geometry: disjoint interiors, all inside the ambient cube
    cubes = tree.all_cubes()
    checks["pairwise_disjoint"] = interiors_pairwise_disjoint(cubes)
    dom = tree.domain
    lows, sides, _ = f._arrays  # the cubes, in order; the comparisons of Cube.contains_cube
    checks["inside_domain"] = bool(np.all((dom.lower <= lows) & (lows + sides[:, None] <= np.add(dom.lower, dom.side))))

    # (b) each level contributes 2**(-1/2) to the critical integral
    level_err = 0.0
    target = 2.0 ** -0.5
    contribs = []
    for i in range(depth + 1):
        c = len(tree.levels[i]) * tree.height(i) ** theta * tree.spacing.length(i) ** dim
        contribs.append(c)
        level_err = max(level_err, abs(c - target) / target)
    checks["level_contributions"] = level_err <= 1e-12
    details["max_level_contribution_err"] = level_err

    # (c) the q-integral matches its closed form
    integral_q = lebesgue_norm(f, Domain.of_cube(dom), q).value ** q
    decay = 1.0 - q / p + q * alpha
    closed = sum(2.0 ** (-0.5 * decay * i * i - 0.5) for i in range(depth + 1))
    err_q = abs(integral_q - closed) / closed
    checks["q_integral_closed_form"] = err_q <= 1e-9
    details["q_integral"] = {"value": integral_q, "closed_form": closed, "rel_err": err_q}

    # (d) optimizer trace stabilizes under the analytic bound while the
    # critical integral keeps growing linearly
    est = rm_norm_dyadic(f, dom, depth, params, offsets=(0.0,))
    score_by_depth = [v ** p for _, v in est.trace]
    increase = (score_by_depth[depth] - score_by_depth[depth - 2]) / score_by_depth[depth - 2]
    checks["dp_trace_stabilizes"] = increase < 0.01
    bound = tree_single_overlap_bound(params) + tree_multi_overlap_bound(tree)
    checks["dp_below_bound"] = score_by_depth[depth] <= bound
    details["dp"] = {
        "score_depth_minus_2": score_by_depth[depth - 2],
        "score": score_by_depth[depth],
        "relative_increase": increase,
        "bound": bound,
    }
    rep = growth_probe(iter(np.cumsum(contribs)), list(range(1, depth + 2)))
    checks["critical_integral_linear"] = rep.fit_class == "linear" and abs(rep.rate / target - 1.0) <= 0.05
    details["critical_growth"] = {"class": rep.fit_class, "rate": rep.rate}

    rows = [{"depth": d, "score": s, "bound": bound} for d, s in enumerate(score_by_depth)]
    details["checks"] = checks
    return ProbeResult(all(checks.values()), details, rows)


def verify_embedding(seed: int = 23) -> ProbeResult:
    """Random family scores never exceed the critical Lebesgue norm."""
    count, tol = 1000, 1e-12
    rng = np.random.default_rng(seed)
    roots = {dim: Cube((-0.5 * _SPAN,) * dim, _SPAN) for dim in (1, 2)}
    violations = 0
    worst_margin = -math.inf
    for i in range(count):
        dim = 1 if i % 3 else 2
        params = random_intermediate_params(rng)
        f = random_step_function(rng, dim)
        fam = random_dyadic_partition(rng, roots[dim], max_depth=3 if dim == 1 else 2)
        score = rm_score(f, fam, params, check=False) ** (1.0 / params.p)
        bound = lebesgue_norm(f, Domain.whole_space(dim), params.theta).value
        margin = score - bound * (1.0 + tol)
        worst_margin = max(worst_margin, margin)
        if margin > 0.0:
            violations += 1
    return ProbeResult(
        violations == 0,
        {"violations": violations, "cases": count, "worst_margin": worst_margin, "seed": seed},
    )


def verify_oracle_equivalence(seed: int = 5) -> ProbeResult:
    """Dyadic optimizer and exact interval optimum agree on shared feasible sets.

    Exact agreement is asserted where the optimum provably lies in both
    search spaces: singleton-dominant parameters on every grid size, and
    the averaging scale (q=1, alpha=0, refinement-optimal) on power-of-two
    grids whose cells coincide with the optimizer leaves.  On intermediate
    parameters the interval optimum may exceed the dyadic optimizer, so
    only the one-sided bound is required there.
    """
    count, grid_range, noise_tol = 50, tuple(range(4, 13)), 1e-12
    rng = np.random.default_rng(seed)
    root = Cube((0.0,), 1.0)
    singleton_params = ParamSpace(2.0, 1.0, -0.6)
    riesz_ps = (1.5, 2.0, 3.0)
    worst_eq = 0.0
    worst_one_sided = -math.inf
    cases = 0
    for i in range(count):
        grid_cells = int(grid_range[i % len(grid_range)])
        depth = max(1, int(rng.integers(1, 4)))
        f = random_dyadic_step(rng, root, depth)

        # singleton-dominant: both searches attain the whole-cube score
        iv = rm_norm_intervals_1d(f, root, grid_cells, singleton_params)
        dp = rm_norm_dyadic(f, root, depth, singleton_params, offsets=(0.0,))
        scale = max(iv.value, dp.value, 1e-300)
        worst_eq = max(worst_eq, abs(iv.value - dp.value) / scale)
        cases += 1

        # averaging scale on dyadic-aligned grids: finest partition optimal
        if grid_cells in (4, 8):
            k = grid_cells.bit_length() - 1
            g = random_dyadic_step(rng, root, k)
            for p in riesz_ps:
                pr = ParamSpace(p, 1.0, 0.0)
                iv2 = rm_norm_intervals_1d(g, root, grid_cells, pr)
                dp2 = rm_norm_dyadic(g, root, k, pr, offsets=(0.0,))
                scale = max(iv2.value, dp2.value, 1e-300)
                worst_eq = max(worst_eq, abs(iv2.value - dp2.value) / scale)
                cases += 1

        # intermediate parameters: optimizer can only fall below the interval optimum
        if grid_cells in (4, 8):
            k = grid_cells.bit_length() - 1
            pm = random_intermediate_params(rng)
            h = random_dyadic_step(rng, root, k)
            iv3 = rm_norm_intervals_1d(h, root, grid_cells, pm)
            dp3 = rm_norm_dyadic(h, root, k, pm, offsets=(0.0,))
            worst_one_sided = max(worst_one_sided, dp3.value - iv3.value * (1.0 + noise_tol))
    passed = worst_eq <= noise_tol and worst_one_sided <= 0.0
    return ProbeResult(
        passed,
        {
            "max_equality_gap": worst_eq,
            "worst_one_sided_margin": worst_one_sided,
            "comparisons": cases,
            "grid_range": list(grid_range),
            "seed": seed,
        },
    )


def _expected_verdict(p: float, q: float, alpha: float, kind: str) -> str:
    """Independent transcription of the classification table (oracle)."""
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    split = inv_p - inv_q
    near_split = abs(alpha - split) <= 1e-13
    if kind == "whole-space":
        if q < p:
            if math.isinf(p) and -inv_q < alpha < 0.0 and not near_split:
                return "EqualsMorrey"
            if near_split:
                return "EqualsLq"
            if alpha == 0.0:
                return "EqualsLp"
            if split < alpha < 0.0:
                return "ProperSupersetOfLtheta"
            return "ZeroSpace"
        if near_split and alpha == 0.0:
            return "EqualsLq"
        return "ZeroSpace"
    if q < p:
        if math.isinf(p) and -inv_q < alpha < 0.0 and not near_split:
            return "EqualsMorrey"
        if alpha <= split or near_split:
            return "EqualsLq"
        if alpha == 0.0:
            return "EqualsLp"
        if alpha < 0.0:
            return "ProperSupersetOfLtheta"
        return "ZeroSpace"
    return "EqualsLq" if alpha <= 0.0 else "ZeroSpace"


def verify_classifier() -> ProbeResult:
    """Sweep the parameter grid and compare against the verdict table."""
    min_points = 200
    ps = [1.0, 1.5, 2.0, 3.0, math.inf]
    qs = [1.0, 2.0, 2.5, 4.0, math.inf]
    mismatches = []
    rows = []
    points = 0
    for p in ps:
        for q in qs:
            inv_p = 0.0 if math.isinf(p) else 1.0 / p
            inv_q = 0.0 if math.isinf(q) else 1.0 / q
            split = inv_p - inv_q
            alphas = {-1.5, -0.75, 0.0, 0.2, 1.0, split, split / 2.0, split - 0.4}
            if not math.isinf(q):
                alphas.add(-0.5 / q)
            for kind in ("whole-space", "cube"):
                for alpha in sorted(alphas):
                    got = classify(p, q, alpha, kind)
                    want = _expected_verdict(p, q, alpha, kind)
                    points += 1
                    rows.append(
                        {"p": p, "q": q, "alpha": alpha, "domain": kind, "verdict": got.verdict}
                    )
                    if got.verdict != want:
                        mismatches.append({"p": p, "q": q, "alpha": alpha, "domain": kind,
                                           "got": got.verdict, "want": want})
    spot = (
        classify(2, 1, 0.0, "whole-space").verdict == "EqualsLp"
        and classify(2, 1, -0.25, "whole-space").verdict == "ProperSupersetOfLtheta"
        and abs((classify(2, 1, -0.25, "whole-space").theta or 0.0) - 4.0 / 3.0) < 1e-12
        and classify(1, 2, 0.1, "cube").verdict == "ZeroSpace"
        and classify(math.inf, 2, -0.25, "cube").verdict == "EqualsMorrey"
    )
    passed = not mismatches and spot and points >= min_points
    return ProbeResult(passed, {"points": points, "mismatches": mismatches, "spot_checks": spot}, rows)


def verify_power_sums(seed: int = 3) -> ProbeResult:
    """Power-sum inequalities on random sequences; equality for constants."""
    count, eq_tol = 10_000, 1e-12
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(count):
        size = int(rng.integers(1, 31))
        a = np.exp(rng.uniform(-4.0, 4.0, size))
        gamma = 4.0 * rng.random()
        head = int(rng.integers(1, size + 1))
        if not check_power_sum_inequalities(a, gamma, head).all_hold:
            violations += 1
    # constant sequences attain equality in both head comparisons
    eq_err = 0.0
    for size in (1, 2, 5, 16):
        for gamma in (0.3, 0.5, 1.0, 2.0, 3.5):
            c = float(rng.uniform(0.2, 5.0))
            a = np.full(size, c)
            lhs = float(np.sum(a ** gamma))
            rhs = size ** (1.0 - gamma) * float(np.sum(a)) ** gamma
            eq_err = max(eq_err, abs(lhs - rhs) / rhs)
    passed = violations == 0 and eq_err <= eq_tol
    return ProbeResult(
        passed,
        {"violations": violations, "cases": count, "max_equality_err": eq_err, "seed": seed},
    )


PROBES: dict[str, Callable[..., ProbeResult]] = {
    "riesz-identity": verify_riesz_identity,
    "q23-identity": verify_singleton_regime,
    "lem1e": verify_shell_divergence,
    "prop-rn": verify_sparse_function,
    "prop-q": verify_tree_function,
    "embedding": verify_embedding,
    "oracle-equivalence": verify_oracle_equivalence,
    "classify-sweep": verify_classifier,
    "inequalities": verify_power_sums,
}
