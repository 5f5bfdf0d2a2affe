"""rmlab benchmark: end-to-end metrics per workload, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload dp-line --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, one table

One workload runs in one process.  It imports rmlab from the checkout's
`src/` and builds its inputs from the seed (set-up, timed SETUP_SAMPLES
times back to back), then runs whole rounds of its operation list until
the operations have taken the run length, then checks the outputs outside
the timed region.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("dp-line", "dp-plane", "dp-radial", "verify-all")
# set-up is timed this many times back to back; setup_s is the median
SETUP_SAMPLES = 5
# in a traced run, at least this share of operation wall time must fall
# inside some wrapped layer, or a layer has stopped being wrapped
ACCOUNTED_FLOOR = 0.95
# one thread per native pool; the probe pool of `rmlab verify` gets one per core
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fresh_import(modules: tuple[str, ...]):
    """Import rmlab anew (numpy stays loaded) and return the package."""
    for name in [m for m in sys.modules if m == "rmlab" or m.startswith("rmlab.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    return sys.modules["rmlab"]


class Run:
    """Whole rounds of an operation list, timed one operation at a time.

    `wall_s` is the time spent inside operations; building their fresh
    arguments and fingerprinting their outputs is left out.
    """

    def __init__(self, ops, fingerprint, tracer=None, clock=time.perf_counter):
        self.ops = ops
        self.fingerprint = fingerprint
        self.tracer = tracer
        self.clock = clock
        self.rounds = 0
        self.wall_s = 0.0
        self.times: list[float] = []          # seconds, succeeded operations
        self.failures: dict[str, int] = {}    # "<label>: <exception type>" -> count
        self.first: list = [None] * len(ops)  # fingerprint from the first success
        self.outputs: list = [MISSING] * len(ops)
        self.mismatches: list[str] = []
        self.op_walls: list[float] = []       # traced: wall and root self time per operation
        self.op_selfs: list[float] = []

    def measure(self, seconds: float) -> None:
        """Run whole rounds until the operations have taken `seconds`."""
        while self.rounds == 0 or self.wall_s < seconds:
            for i, op in enumerate(self.ops):
                self._one(i, op)
            self.rounds += 1

    def _one(self, i: int, op) -> None:
        args = op.fresh()
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.op_walls)
            span = tracer.begin("bench.op")
        t0 = self.clock()
        try:
            out = op.run(*args)
            ok = True
        except Exception as exc:
            out = exc
            ok = False
        dt = self.clock() - t0
        self.wall_s += dt
        if tracer is not None:
            wall, self_s = tracer.end(span)
            tracer.op = -1
            self.op_walls.append(wall)
            self.op_selfs.append(self_s)
        if not ok:
            key = f"{op.label}: {type(out).__name__}"
            self.failures[key] = self.failures.get(key, 0) + 1
            return
        self.times.append(dt)
        fp = self.fingerprint(out)
        if self.outputs[i] is MISSING:
            self.outputs[i] = out
            self.first[i] = fp
        elif fp != self.first[i]:
            self.mismatches.append(f"{op.label}: round {self.rounds} output differs from the first")

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.ops)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def outcome_problems(self, expected_failures: dict[str, str]) -> list[str]:
        """No operation fails, except that one named in `expected_failures` may fail
        with that exception in every round (none, once its fault is mended)."""
        problems = []
        expected = {f"{label}: {exc}" for label, exc in expected_failures.items()}
        for key, count in self.failures.items():
            if key not in expected or count != self.rounds:
                problems.append(f"{key} in {count} of {self.rounds} rounds")
        for op, out in zip(self.ops, self.outputs):
            if out is MISSING and op.label not in expected_failures:
                problems.append(f"{op.label}: no output")
        return problems


MISSING = object()  # no operation in the run has returned yet


def make_workload(name: str):
    import workloads

    return {
        "dp-line": workloads.DpLine,
        "dp-plane": workloads.DpPlane,
        "dp-radial": workloads.DpRadial,
        "verify-all": lambda: workloads.VerifyAll(RESULTS),
    }[name]()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    wl = make_workload(name)
    rng_seed = [seed, WORKLOAD_NAMES.index(name)]

    setup_times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        rm = fresh_import(wl.modules)
        ops = wl.ops(rm, np.random.default_rng(rng_seed))
        setup_times.append(time.perf_counter() - t0)

    tracer = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        span = tracer.begin("bench.setup")
        ops = wl.ops(rm, np.random.default_rng(rng_seed))
        tracer.end(span)
        tracer.phase = "rounds"

    run = Run(ops, wl.fingerprint, tracer)
    try:
        run.measure(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.unpatch()
        problems = run.mismatches + run.outcome_problems(wl.expected_failures)
        done = [i for i, out in enumerate(run.outputs) if out is not MISSING]
        problems += wl.check(rm, [ops[i] for i in done], [run.outputs[i] for i in done])
    finally:
        if hasattr(wl, "close"):
            wl.close()

    succeeded = run.attempted - run.failed
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": succeeded / run.wall_s, "unit": "1/s"},
            # no succeeded operation has no median (and makes the run incorrect)
            "op_p50_ms": {"value": 1000.0 * statistics.median(run.times) if run.times else None, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        import layers

        problems += trace_problems(tracer, run, threaded=name == "verify-all")
        metrics = layers.per_layer_metrics(tracer, run.rounds)
        accounted = 1.0 - sum(run.op_selfs) / sum(run.op_walls)
        if accounted < ACCOUNTED_FLOOR:
            problems.append(f"trace: wrapped layers cover {accounted:.4f} of operation time, below {ACCOUNTED_FLOOR}")
        metrics["trace.ops_per_s"] = {"value": succeeded / run.wall_s, "unit": "1/s"}
        metrics["trace.accounted_share"] = {"value": accounted, "unit": "ratio"}

    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.dump(RESULTS / f"trace-{name}.npz")
    detail = {**result, "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": run.rounds, "ops_per_round": len(ops), "setup_samples_s": setup_times,
              "failures": run.failures, "problems": problems}
    (RESULTS / f"{name}{'-trace' if trace else ''}.json").write_text(json.dumps(detail, indent=2) + "\n")
    for line in problems:
        sys.stderr.write(f"perfbench: {name}: {line}\n")
    return result


def trace_problems(tracer, run: Run, threaded: bool) -> list[str]:
    """The tracer's arithmetic: per operation, self times add up to exactly its wall time,
    or to more if work ran on other threads."""
    problems = []
    sums = tracer.op_self_sums()
    for k, wall in enumerate(run.op_walls):
        total = sums.get(k, 0.0)
        if not -1e-9 <= run.op_selfs[k] <= wall + 1e-9:
            problems.append(f"trace: operation {k} root self time {run.op_selfs[k]!r} outside [0, {wall!r}]")
        elif not threaded and abs(total - wall) > 1e-6 * wall + 1e-9:
            problems.append(f"trace: operation {k} self times sum to {total!r}, wall time {wall!r}")
        elif threaded and total < wall - 1e-6 * wall - 1e-9:
            problems.append(f"trace: operation {k} self times sum to {total!r} < wall time {wall!r}")
    return problems


def run_child(name: str, seed: int, seconds: float, trace: int, stderr=None) -> dict | None:
    """One workload in its own process; its result, or None if it exited with an error."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"perfbench: {name} exited with {proc.returncode}\n")
        return None
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own process; prints one table."""
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        res = run_child(name, args.seed, args.seconds, args.trace)
        if res is None:
            ok = False
            continue
        ok = ok and res["correct"]
        rows.append(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            value = "none" if m["value"] is None else f"{m['value']:.6g}"
            rows.append(f"  {metric:<44} {value:>16} {m['unit']}")
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rmlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no rmlab sources under {SRC}\n")
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    os.environ.update(THREAD_ENV)
    os.environ["RMLAB_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
