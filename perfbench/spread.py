"""Run-to-run spread of the end-to-end metrics, as the acceptance rule measures it.

    python3 perfbench/spread.py --runs 10

Runs each workload once per seed (seeds 1 .. runs), each in its own
process, and prints per metric the median and the distance between the
first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), plus the failed share.  Writes
every run to perfbench/results/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import RESULTS, WORKLOAD_NAMES, run_child  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs: dict[str, list[dict]] = {}
    for name in WORKLOAD_NAMES:
        for seed in range(1, args.runs + 1):
            t0 = time.perf_counter()
            res = run_child(name, seed, seconds, 0, stderr=subprocess.DEVNULL)
            if res is None:
                return 1
            runs.setdefault(name, []).append({"seed": seed, "elapsed_s": time.perf_counter() - t0, **res})
        rs = runs[name]
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"{name}: correct={all(r['correct'] for r in rs)} failed share={sorted(shares)}"
              f" longest run {max(r['elapsed_s'] for r in rs):.1f} s")
        for metric in rs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:<40} median {med:>14.6g}  iqr/median {spread:.4f}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "spread.json").write_text(json.dumps(runs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
