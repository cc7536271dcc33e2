"""Self-check of the benchmark on tiny instances of every workload.

    python3 perfbench/selfcheck.py

For each workload it makes two untraced and two traced runs of the same
seed and checks that:
  * every run is correct and prints every metric BENCHMARK.json names,
    with the unit it names;
  * the metric lists in run.py and spans.py match BENCHMARK.json;
  * the self times of each traced call add up to its traced wall time;
  * counts (`rounds_total`, `ledger.*`, `*.calls`, ...) and solution
    digests repeat exactly across runs of the same seed.
Exits 1 on the first workload that fails a check.
"""

from __future__ import annotations

import json
import os
import sys

import run
import spans
import workloads

SECONDS = 0.3
SEED = 7
MAX_SELF_TIME_GAP = 0.02


def _is_count(name: str, unit: str) -> bool:
    return unit not in ("s", "edges/s", "MiB") and name != "trace.overhead_ratio"


def main() -> int:
    os.chdir(run.ROOT)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if expected[False] != dict(run.END_TO_END):
        problems.append("run.END_TO_END differs from BENCHMARK.json end_to_end")
    if expected[True] != {name: unit for name, unit, _ in spans.PER_LAYER}:
        problems.append("spans.PER_LAYER differs from BENCHMARK.json per_layer")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            results = [run.run(workload, SEED, SECONDS, trace, "tiny") for _ in range(2)]
            for r in results:
                run.print_result(r)
                last = r["last_line"]
                if not last["correct"]:
                    problems.append(f"{workload}: run not correct: {r['failures']}")
                    continue
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{workload}: metrics differ from BENCHMARK.json")
                if trace and not r["trace_check"]["counts_repeat"]:
                    problems.append(f"{workload}: counts differ between repeats of a run")
                if trace and r["trace_check"]["self_time_gap"] > MAX_SELF_TIME_GAP:
                    problems.append(f"{workload}: self times do not add up to wall time")
            if len({r["solution_digest"] for r in results}) != 1:
                problems.append(f"{workload}: solution digests differ between runs")
            counts = [
                {k: v["value"] for k, v in r["last_line"]["metrics"].items()
                 if _is_count(k, v["unit"])}
                for r in results
            ]
            if counts[0] != counts[1]:
                problems.append(f"{workload}: counts differ between runs of one seed")
        if problems:
            break
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
