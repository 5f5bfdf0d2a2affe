"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (run pytest with -s or rely on
the printed output captured on failure).  The criteria exercise the
public probe layer, so `rmlab verify` reproduces the same checks from the
command line.  Each probe runs with its defaults, the settings `rmlab
verify` uses when no flag is given.
"""

import time

from rmlab.verification import (
    verify_classifier,
    verify_embedding,
    verify_oracle_equivalence,
    verify_power_sums,
    verify_riesz_identity,
    verify_shell_divergence,
    verify_singleton_regime,
    verify_sparse_function,
    verify_tree_function,
)


def _report(index: int, label: str, probe, budget_s: float) -> None:
    t0 = time.perf_counter()
    result = probe()
    elapsed_s = time.perf_counter() - t0
    status = "PASS" if result.passed and elapsed_s < budget_s else "FAIL"
    print(f"[{index}/9] {label}: {status} ({elapsed_s:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed_s < budget_s, f"runtime {elapsed_s:.2f}s over budget {budget_s}s"
    assert result.passed, result.details


def test_criterion_1_averaging_norm_matches_lebesgue():
    # 100 random dyadic step functions on [0,1], p in {1.5, 2, 3}: the
    # partition norm at (p, 1, 0) equals the L^p norm within 1e-9 relative
    _report(1, "averaging norm equals Lebesgue norm", verify_riesz_identity, 5.0)


def test_criterion_2_singleton_family_optimal():
    # q <= p with alpha in (-1/q, 1/p-1/q]: the composition oracle at 10
    # cells confirms the whole cube is optimal and matches the closed form
    # within 1e-9.  The stated regime bound excludes positive alpha, so the
    # second triple uses alpha = -0.2 and the boundary value 1/3 - 1/2.
    _report(2, "singleton family optimal in the collapse regime", verify_singleton_regime, 10.0)


def test_criterion_3_shell_scores_diverge_harmonically():
    # (p,q,alpha) = (1,2,1/4) on [-1,1]: partial sums over 200 shells grow
    # logarithmically at the rate derived from the shell mass law raised to
    # 1 - p*alpha (including the equipartition factor of the 2-interval
    # shell partition), within 10 percent
    _report(3, "indicator shell scores diverge harmonically", verify_shell_divergence, 30.0)


def test_criterion_4_sparse_function_on_the_line():
    # (2,1,-1/4), truncations 10/100/1000: critical-power mass equals the
    # harmonic number (H_1000 frozen by direct summation), optimizer scores
    # stay below the two-part analytic bound, weak norms grow unboundedly
    _report(4, "sparse line function: growth, bounds, weak norm", verify_sparse_function, 60.0)


def test_criterion_5_tree_function_on_a_cube():
    # depth 12, n=1, (2,1,-1/4): disjoint and contained geometry, per-level
    # critical mass 2**(-1/2) within 1e-12, closed-form q-integral within
    # 1e-9, optimizer trace stabilizing (<1% from depth 10 to 12) below the
    # analytic bound while the critical integral grows linearly
    _report(5, "diagonal tree function on a cube", verify_tree_function, 120.0)


def test_criterion_6_critical_embedding():
    # 1000 random (function, family, parameters) triples: family scores
    # to the 1/p never exceed the critical Lebesgue norm
    _report(6, "critical Lebesgue embedding", verify_embedding, 10.0)


def test_criterion_7_optimizer_agrees_with_composition_oracle():
    # shared 1-D grids with 4..12 cells, 50 random step functions: exact
    # agreement (1e-12 float noise) wherever the optimum provably lies in
    # both feasible sets, one-sided domination elsewhere
    _report(7, "optimizer agrees with composition oracle", verify_oracle_equivalence, 30.0)


def test_criterion_8_classifier_sweep():
    # 200+ grid points over (p, q, alpha) x domain kind, including the
    # boundary cases and the single-cube-branch identification at p = inf
    _report(8, "classification sweep", verify_classifier, 1.0)


def test_criterion_9_power_sum_inequalities():
    # 10**4 random positive sequences: all four comparisons hold; constant
    # sequences attain equality within 1e-12
    _report(9, "power-sum inequality suite", verify_power_sums, 5.0)
