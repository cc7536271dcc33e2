"""hypermatch benchmark: one workload, one seed, a closed loop over the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing needs installing.  Set-up imports `hypermatch`, draws the
workload's instances from the seed and writes the instance files; it is
repeated SETUP_REPEATS times and `setup_s` is the median.  The timed loop
then calls `hypermatch.cli.main(["run", ...])` in-process, one instance at
a time, a single client in a single thread, and repeats whole passes over
the instances until S seconds have gone by.  `solve_s` sums, over the
instances, the fastest of each instance's repeats (the median of repeats
is printed alongside; see README.md for why the fastest).  Every output
is checked outside the timed region: exit code, the JSON report's
verdicts, the benchmark's own re-check (checks.py) and
`cli.main(["verify", ...])`.
Solutions and reports are hashed; every repeat and a fresh process
(child.py, which also gives `peak_rss_mb`) must reproduce them byte for
byte.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 untraced and traced passes alternate; the traced ones record
spans around every public function of the program (spans.py) and the
last line carries the per-layer metrics.  Spans, shapes and the full
result are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("edges_per_s", "edges/s"),
    ("peak_rss_mb", "MiB"),
    ("rounds_total", "count"),
)


class Case:
    """Per-instance state of one run: file paths, samples, verdicts."""

    def __init__(self, spec: workloads.Instance, work: Path):
        self.spec = spec
        self.path = (work / (spec.name + spec.suffix)).relative_to(ROOT).as_posix()
        self.out = f"{self.path}.out"
        self.report_path = f"{self.path}.json"
        self.times: list[float] = []
        self.traced: list[float] = []
        self.layer_samples: list[dict] = []
        self.digest: str | None = None
        self.report: dict | None = None
        self.failures: list[str] = []
        self.attempts = 0
        self.failed = 0

    def argv(self, out: str, report: str) -> list[str]:
        return ["run", "--algo", self.spec.algo, "--in", self.path,
                "--out", out, "--json", report, *self.spec.run_args]


def fresh_import():
    """Import hypermatch from scratch, as a new process would, and only
    from this checkout's src/."""
    for name in [n for n in sys.modules if n == "hypermatch" or n.startswith("hypermatch.")]:
        del sys.modules[name]
    cli = importlib.import_module("hypermatch.cli")
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "hypermatch":
        raise ImportError(f"hypermatch imported from {cli.__file__}, not from {ROOT}/src")
    return cli


def set_up(workload: str, seed: int, size: str, work: Path):
    cli = fresh_import()
    specs = workloads.generate(workload, seed, size)
    insts = [Case(spec, work) for spec in specs]
    for inst in insts:
        with open(ROOT / inst.path, "w", encoding="utf-8") as fh:
            fh.write(inst.spec.text)
    return cli, insts


def digest(out_path: str, report_path: str) -> str:
    h = hashlib.sha256()
    for p in (out_path, report_path):
        with open(ROOT / p, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def verify(cli, inst: Case) -> str:
    """Re-check the solution with the program's `verify` subcommand."""
    argv = ["verify", inst.spec.verify_kind, "--in", inst.path, inst.out, *inst.spec.verify_args]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return "" if code == 0 and buf.getvalue() == "pass\n" else f"verify: {buf.getvalue().strip()}"


def check(cli, inst: Case, code) -> str:
    """Why the call just made failed, or "" when every check holds."""
    if code != 0:
        return f"exit code {code}"
    d = digest(inst.out, inst.report_path)
    if inst.digest is not None:
        return "" if d == inst.digest else "output differs from an earlier repeat"
    inst.digest = d
    with open(ROOT / inst.report_path, encoding="utf-8") as fh:
        inst.report = json.load(fh)
    with open(ROOT / inst.out, encoding="utf-8") as fh:
        solution = fh.read()
    return (checks.check_report(inst.spec, inst.report)
            or checks.check_solution(inst.spec, solution)
            or verify(cli, inst))


def call(cli, inst: Case, tracer: spans.Tracer | None) -> None:
    argv = inst.argv(inst.out, inst.report_path)
    with tracer or contextlib.nullcontext():
        if tracer is not None:
            tracer.instance = inst.spec.name
            lo = len(tracer.spans)
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = "exception"
        wall = perf_counter() - t0
    inst.attempts += 1
    reason = check(cli, inst, code)
    if reason:
        inst.failed += 1
        inst.failures.append(reason)
        return
    if tracer is None:
        inst.times.append(wall)
        return
    inst.traced.append(wall)
    sample = spans.call_metrics(tracer.spans[lo:], lo, inst.report)
    sample["_self_sum"] = sum(spans.self_times(tracer.spans[lo:], lo))
    sample["_wall"] = wall
    inst.layer_samples.append(sample)


def closed_loop(cli, insts, seconds: float, tracer) -> int:
    """Whole passes until `seconds` are up; with a tracer, alternate
    untraced and traced passes and end on a traced one.

    Successive passes (pairs of passes when traced) are pinned to
    successive CPUs of the process's affinity set.  On a shared host each
    CPU has slow phases of its own, lasting up to minutes; spreading the
    repeats over all CPUs keeps the fastest repeat from depending on which
    CPU the scheduler happened to keep the process on.
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    passes = 0
    try:
        while True:
            os.sched_setaffinity(0, {cpus[passes // (1 + (tracer is not None)) % len(cpus)]})
            traced = tracer is not None and passes % 2 == 1
            for inst in insts:
                call(cli, inst, tracer if traced else None)
            passes += 1
            if perf_counter() - start >= seconds and (tracer is None or passes % 2 == 0):
                return passes
    finally:
        os.sched_setaffinity(0, cpus)


def fresh_process(insts, work: Path) -> tuple[float, int]:
    """Run every instance once more in a new process; returns its peak RSS
    in MiB and the number of calls whose output differs from this one's."""
    child = work / "child"
    child.mkdir()
    calls = [inst.argv(*((child / Path(p).name).relative_to(ROOT).as_posix()
                         for p in (inst.out, inst.report_path)))
             for inst in insts]
    manifest = work / "child.json"
    manifest.write_text(json.dumps(calls), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(manifest)],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {
        "codes": ["crashed"] * len(insts), "maxrss_kb": 0}
    mismatched = 0
    for inst, argv, code in zip(insts, calls, result["codes"]):
        inst.attempts += 1
        if code != 0 or inst.digest != digest(argv[argv.index("--out") + 1],
                                              argv[argv.index("--json") + 1]):
            inst.failed += 1
            inst.failures.append("fresh process gave other output")
            mismatched += 1
    return result["maxrss_kb"] / 1024, mismatched


def end_to_end(insts, setup_times, rss_mb) -> dict[str, float]:
    solve = sum(min(i.times) for i in insts)
    return {
        "setup_s": statistics.median(setup_times),
        "solve_s": solve,
        "edges_per_s": sum(i.spec.m for i in insts) / solve,
        "peak_rss_mb": rss_mb,
        "rounds_total": sum(i.report["ledger"]["total"] for i in insts),
    }


def per_layer(insts) -> tuple[dict[str, float], dict]:
    totals: dict[str, float] = {}
    counts_repeat = True
    worst_gap = 0.0
    for inst in insts:
        samples = inst.layer_samples
        for name in samples[0]:
            values = [s[name] for s in samples]
            if not name.endswith("self_s") and not name.startswith("_"):
                counts_repeat &= len(set(values)) == 1
            middle = statistics.median(values) if name.endswith("self_s") else statistics.median_low(values)
            totals[name] = totals.get(name, 0) + middle
        for s in samples:
            worst_gap = max(worst_gap, abs(s["_self_sum"] - s["_wall"]) / s["_wall"])
    overhead = sum(min(i.traced) for i in insts) / sum(min(i.times) for i in insts)
    metrics = spans.finish(totals, overhead)
    diagnostics = {
        "counts_repeat": counts_repeat,
        "self_time_gap": worst_gap,
        "self_sum_s": totals.pop("_self_sum"),
        "traced_wall_s": totals.pop("_wall"),
    }
    return {name: metrics[name] for name, _, _ in spans.PER_LAYER}, diagnostics


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    work = HERE / "out" / f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cli, insts = set_up(workload, seed, size, work)
        setup_times.append(perf_counter() - t0)
    tracer = spans.Tracer() if trace else None
    passes = closed_loop(cli, insts, seconds, tracer)
    rss_mb, mismatched = fresh_process(insts, work)
    attempted = sum(i.attempts for i in insts)
    failed = sum(i.failed for i in insts)
    complete = all(i.times and (not trace or i.traced) for i in insts)
    correct = failed == 0 and complete
    digests = hashlib.sha256("".join(i.digest or "-" for i in insts).encode()).hexdigest()
    result: dict = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "passes": passes, "shapes": {i.spec.name: i.spec.shape() for i in insts},
        "solution_digest": digests, "fresh_process_mismatches": mismatched,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": {i.spec.name: i.failures for i in insts if i.failures},
        "setup_samples": setup_times,
        "samples": {i.spec.name: {"untraced": i.times, "traced": i.traced} for i in insts},
        "solve_median_s": sum(statistics.median(i.times) for i in insts) if complete else None,
    }
    metrics: dict[str, float] = {}
    if correct:
        if trace:
            metrics, result["trace_check"] = per_layer(insts)
            tracer.write(work / "spans.tsv")
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            metrics = end_to_end(insts, setup_times, rss_mb)
            units = dict(END_TO_END)
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["last_line"] = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": result.get("metrics", {}),
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def print_result(result: dict) -> None:
    shapes = result["shapes"]
    print(f"workload {result['workload']} seed {result['seed']} ({result['size']}): "
          f"{len(shapes)} instances, {result['passes']} passes")
    print("shapes " + json.dumps(shapes, sort_keys=True))
    print(f"solution digest {result['solution_digest']} "
          f"(fresh-process mismatches: {result['fresh_process_mismatches']})")
    last = result["last_line"]
    print(f"fail_ratio {result['fail_ratio']} ({last['failed']}/{last['attempted']})")
    print(f"solve time, median of repeats instead of fastest: {result['solve_median_s']} s")
    for name, reasons in result["failures"].items():
        print(f"failed {name}: {reasons[0]}")
    if "trace_check" in result:
        print("trace check " + json.dumps(result["trace_check"], sort_keys=True))
    for name, m in last["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(last))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny instances, for the self-check")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    print_result(run(args.workload, args.seed, args.seconds, bool(args.trace), args.size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
