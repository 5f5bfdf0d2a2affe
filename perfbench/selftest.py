"""Self-tests of the benchmark: python3 -m pytest -q perfbench/selftest.py"""

from __future__ import annotations

import json
import sys
import threading
from itertools import product
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, covered_length  # noqa: E402

import rmlab as rm  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def exhaustive_dyadic_best(cell_score, depth: int, n: int) -> float:
    """Best score over every family of interior-disjoint dyadic cells, by enumeration.

    `cell_score(d, index)` scores the cell at level d with per-axis index
    tuple `index`.  Every antichain of the dyadic tree down to `depth` is
    listed (families need not cover the root); only for tiny depths.
    """

    def families(d: int, index: tuple[int, ...]) -> list[list[tuple[int, tuple[int, ...]]]]:
        out = [[], [(d, index)]]
        if d == depth:
            return out
        kids = [tuple(2 * i + b for i, b in zip(index, bits)) for bits in product((0, 1), repeat=n)]
        combos = [[]]
        for kid in kids:
            combos = [c + fam for c in combos for fam in families(d + 1, kid)]
        out.extend(c for c in combos if c)
        return out

    scores: dict = {}
    best = 0.0
    for fam in families(0, (0,) * n):
        total = 0.0
        for cell in fam:
            if cell not in scores:
                scores[cell] = cell_score(*cell)
            total += scores[cell]
        best = max(best, total)
    return best


def _cell_score(f, root, origin, depth_of_cell, index, p, q, alpha):
    w = root.side / (1 << depth_of_cell)
    lo = np.array([[o + i * w for o, i in zip(origin, index)]])
    mass = checks.cube_masses(f, q, lo, np.array([w]))[0]
    return checks.score_from_masses(np.array([mass]), np.array([w]), root.dim, p, q, alpha)


@pytest.mark.parametrize("dim,depth,seed", [(1, 3, 0), (1, 3, 1), (2, 1, 2), (2, 2, 3)])
def test_reference_dp_equals_exhaustive_enumeration(dim, depth, seed):
    rng = np.random.default_rng(seed)
    if dim == 1:
        f = workloads.random_step_1d(rm, rng, 5)
        root = rm.Cube((0.0,), 1.0)
    else:
        f = workloads.DpPlane().random_step_2d(rm, rng, 12)
        root = rm.Cube((-4.0, -4.0), 8.0)
    prm = workloads.intermediate_params(rm, rng)
    offsets = (0.0, 0.375)
    best = 0.0
    for vec in product(offsets, repeat=dim):
        origin = [lo + o * root.side for lo, o in zip(root.lower, vec)]
        score = lambda d, idx: _cell_score(f, root, origin, d, idx, prm.p, prm.q, prm.alpha)  # noqa: E731
        best = max(best, exhaustive_dyadic_best(score, depth, dim))
    ref = checks.reference_dp(f, root, depth, prm.p, prm.q, prm.alpha, offsets)
    assert checks.relative_gap(ref[depth], best) <= 1e-12
    program = rm.rm_norm_dyadic(f, root, depth, prm, offsets=offsets).value ** prm.p
    assert checks.relative_gap(program, best) <= 1e-9


def test_tracer_self_time_on_nested_calls():
    clock, cpu = FakeClock(), FakeClock()
    tracer = Tracer(clock=clock, cpu_clock=cpu)

    def inner():
        clock.advance(2.0)
        cpu.advance(1.0)

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        clock.advance(1.0)
        traced_inner()
        clock.advance(3.0)
        traced_inner()
        cpu.advance(0.5)

    tracer.wrap(outer, "outer")()
    calls, self_s, wall_s, cpu_s, self_cpu_s = tracer.totals["setup"]["outer"]
    assert (calls, self_s, wall_s, cpu_s, self_cpu_s) == (1, 4.0, 8.0, 2.5, 0.5)
    calls, self_s, wall_s, cpu_s, self_cpu_s = tracer.totals["setup"]["inner"]
    assert (calls, self_s, wall_s, cpu_s, self_cpu_s) == (2, 4.0, 4.0, 2.0, 2.0)


def test_tracer_counts_recursion_once_in_inclusive_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock, cpu_clock=clock)

    def rec(k):
        clock.advance(1.0)
        if k:
            traced(k - 1)

    traced = tracer.wrap(rec, "rec")
    traced(2)
    calls, self_s, wall_s, _, _ = tracer.totals["setup"]["rec"]
    assert (calls, self_s, wall_s) == (3, 3.0, 3.0)


def test_tracer_attributes_pool_threads_to_the_waiting_span():
    tracer = Tracer()
    worker = tracer.wrap(lambda: sum(range(20000)), "worker")

    def waiting():
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    tracer.op = 0
    span = tracer.begin("bench.op")
    tracer.wrap(waiting, "waiting")()
    wall, root_self = tracer.end(span)
    sums = tracer.op_self_sums()
    assert tracer.totals["setup"]["worker"][0] == 2
    assert 0.0 <= root_self <= wall
    # the two workers are children of `waiting`, so its self time excludes them
    assert tracer.totals["setup"]["waiting"][1] <= tracer.totals["setup"]["waiting"][2]
    assert sums[0] >= wall * (1 - 1e-9)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == pytest.approx(3.0)
    assert covered_length([], 0.0, 1.0) == 0.0


def test_tracer_patch_and_unpatch_every_binding():
    tracer = Tracer()
    original = rm.norms.lq_norm_on_cube
    tracer.patch("rmlab", original, tracer.wrap(original, "funcrep.cell_mass"))
    try:
        assert rm.lq_norm_on_cube is not original
        assert rm.funcrep.lq_norm_on_cube is rm.norms.lq_norm_on_cube is rm.analysis.lq_norm_on_cube
        rm.rm_score(rm.StepFunction(((rm.Cube((0.0,), 1.0), 2.0),)), [rm.Cube((0.0,), 1.0)], rm.ParamSpace(2, 1, 0))
        assert tracer.totals["setup"]["funcrep.cell_mass"][0] == 1
    finally:
        tracer.unpatch()
    assert rm.lq_norm_on_cube is original and rm.norms.lq_norm_on_cube is original


def test_raising_operation_is_counted_and_does_not_end_the_run():
    clock = FakeClock()

    def good():
        clock.advance(1.0)
        return 1

    def bad():
        clock.advance(1.0)
        raise ValueError("boom")

    ops = [workloads.Op("good", good), workloads.Op("bad", bad), workloads.Op("good2", good)]
    bench = run.Run(ops, fingerprint=lambda out: out, clock=clock)
    bench.measure(5.0)
    assert bench.rounds == 2  # 3 s per round; the second round starts before 5 s have passed
    assert bench.attempted == 6
    assert bench.failed == 2
    assert bench.failures == {"bad: ValueError": 2}
    assert bench.times == [1.0] * 4
    assert bench.outputs == [1, run.MISSING, 1]
    assert bench.outcome_problems({"bad": "ValueError"}) == []
    assert bench.outcome_problems({}) != []
    assert bench.outcome_problems({"bad": "TypeError"}) != []
    # an expected failure that no longer happens is fine: the operation is checked like the others
    assert bench.outcome_problems({"bad": "ValueError", "good": "ValueError"}) == []


def test_operation_failing_in_some_rounds_makes_the_run_incorrect():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("second call")
        return 1

    bench = run.Run([workloads.Op("flaky", flaky)], fingerprint=lambda out: out, clock=FakeClock())
    for _ in range(3):
        bench._one(0, bench.ops[0])
        bench.rounds += 1
    assert bench.failures == {"flaky: ValueError": 1}
    assert bench.outcome_problems({}) != []
    assert bench.outcome_problems({"flaky": "ValueError"}) != []


def test_every_call_gets_a_fresh_function_object():
    f = rm.StepFunction(((rm.Cube((0.0,), 0.5), 2.0),))
    op = workloads._dp_op(rm, "one", f, rm.Cube((0.0,), 1.0), 2, rm.ParamSpace(2, 1, 0))
    (a,), (b,) = op.fresh(), op.fresh()
    assert a is not f and b is not a and a == f
    assert "_arrays" not in vars(a)


def test_sweep_finds_overlap_and_accepts_shared_faces():
    lows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sides = np.ones(4)
    assert checks.first_overlap(lows, sides) is None
    assert checks.first_overlap(np.vstack([lows, [[0.5, 0.5]]]), np.ones(5)) is not None
    # a cube far smaller than the ulp of its position, paired with itself
    tiny = np.array([[3.0], [3.0]])
    assert checks.first_overlap(tiny, np.array([1e-20, 1e-20])) is not None


def test_rescore_check_catches_a_certificate_that_does_not_rescore():
    # two copies of [0, 1] at height 1: the program accepts the function and
    # reports a value its own certificate does not re-score to
    cube = rm.Cube((0.0,), 1.0)
    f = rm.StepFunction(((cube, 1.0), (cube, 1.0)))
    prm = rm.ParamSpace(2, 1, 0)
    op = workloads._dp_op(rm, "doubled", f, cube, 2, prm, (0.0,))
    problems = workloads.check_step_dp(rm, [op], [op.run(*op.fresh())])
    assert any("re-scores" in p for p in problems)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in layers.PER_LAYER + layers.RUN_METRICS]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m[1], m[2]) for m in layers.PER_LAYER + layers.RUN_METRICS
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
