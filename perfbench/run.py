"""cubicscan benchmark: run one workload through the real CLI, check every
output and print every metric by name and unit.

    python3 perfbench/run.py --workload scan-simple --seed 1 --seconds 27 --trace 0

Run it from the root of a cubicscan checkout; ``cubicscan`` is imported from
``./src``. Inputs are built from ``--seed``. Ops run in passes over the
workload's full input set, each pass in a fresh child interpreter, one child
at a time, until ``--seconds`` have gone by (at least one pass). With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from speed import scaled  # noqa: E402
from tracing import PER_LAYER, layer_totals, per_layer_metrics  # noqa: E402

# the bounds on these live in BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SCANS = {
    "scan-simple": (12, False, ["scan", "--n-max", "12", "--output", "json"]),
    "scan-multi-j2": (10, True, ["scan", "--n-max", "10", "--multi", "--jobs", "2", "--output", "json"]),
}
CORPORA = {
    "verify-corpus": ("verify", inputs.verify_corpus),
    "analyze-corpus": ("analyze", inputs.analyze_corpus),
}
WORKLOADS = (*SCANS, *CORPORA)

SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[dict, int | None], list[str]]


def build_ops(workload: str, seed: int, work: Path) -> tuple[list[Op], int]:
    """The ops of one pass and the number of graphs a pass covers."""
    if workload in SCANS:
        n_max, multi, argv = SCANS[workload]
        expected = sum(n for k, n in (checks.A000421 if multi else checks.A002851).items() if k <= n_max)
        return [Op(argv, lambda report, code: checks.check_scan(report, code, n_max, multi))], expected
    command, build = CORPORA[workload]
    check = checks.check_verify if command == "verify" else checks.check_analyze
    graphs = build(seed)
    paths = inputs.write_corpus(graphs, work / "corpus")
    ops = []
    for g, path in zip(graphs, paths):
        facts = checks.graph_facts(g, claims=command == "verify")
        argv = [command, "--input", str(path), "--format", "edgelist", "--output", "json"]
        ops.append(Op(argv, lambda report, code, facts=facts: check(report, code, facts)))
    return ops, len(graphs)


def measure_setup(src: Path) -> float:
    """Median scaled seconds for a fresh interpreter to import cubicscan.cli."""
    code = (
        "import json, sys, time; sys.path[:0] = sys.argv[1:]; from speed import Sampler\n"
        "with Sampler() as s:\n"
        "    t = time.perf_counter(); import cubicscan.cli; t = time.perf_counter() - t\n"
        "print(json.dumps([t - s.spent, s.samples]))"
    )
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", code, str(src), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        if i:  # the first import may still be writing bytecode caches
            samples.append(scaled(*json.loads(out.stdout)))
    return statistics.median(samples)


def run_pass(ops: list[Op], src: Path, work: Path, trace: bool, index: int) -> dict:
    plan = work / f"plan-{index}.json"
    result = work / f"result-{index}.json"
    plan.write_text(json.dumps({"src": str(src), "trace": trace, "commands": [op.argv for op in ops]}))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(plan), str(result)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"failure": f"pass timed out after {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0 or not result.exists():
        return {"failure": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return data


def check_pass(ops: list[Op], data: dict, schema_check) -> list[list[str]]:
    """Problems per op; a pass that did not finish fails every op."""
    if "failure" in data:
        return [[data["failure"]] for _ in ops]
    problems = []
    for op, res in zip(ops, data["results"]):
        if res["error"] is not None:
            problems.append([f"exception: {res['error'].strip().splitlines()[-1]}"])
            continue
        try:
            report = json.loads(res["stdout"])
        except json.JSONDecodeError:
            problems.append([f"no JSON report (exit {res['exit_code']}): {res['stderr'].strip()[:200]}"])
            continue
        problems.append(schema_check(report) + op.check(report, res["exit_code"]))
    return problems


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_times(data: dict) -> list[float]:
    """Scaled op latencies of one pass (see speed.py)."""
    return [scaled(res["latency_s"], res["reference_s"]) for res in data["results"]]


def raw_wall(data: dict, with_sampler: bool = False) -> float:
    return sum(res["latency_s"] + with_sampler * res["sampler_s"] for res in data["results"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    schema_path = root / "docs" / "report-schema.json"
    if not (src / "cubicscan" / "cli.py").is_file() or not schema_path.is_file():
        print(
            "perfbench: src/cubicscan and docs/report-schema.json not found; "
            "run from the root of a cubicscan checkout",
            file=sys.stderr,
        )
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops, graphs_per_pass = build_ops(args.workload, args.seed, work)
        schema_check = checks.SchemaCheck(schema_path)
        setup_s = None if args.trace else measure_setup(src)

        plain: list[dict] = []
        traced: list[dict] = []
        problems: list[list[str]] = []
        # stop before a round that would overrun --seconds, after at least one
        started = time.monotonic()
        longest = 0.0
        while True:
            round_started = time.monotonic()
            for trace in (False, True) if args.trace else (False,):
                data = run_pass(ops, src, work, trace, len(plain) + len(traced))
                problems.extend(check_pass(ops, data, schema_check))
                if "failure" not in data:
                    (traced if trace else plain).append(data)
            now = time.monotonic()
            longest = max(longest, now - round_started)
            if now + longest - started > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    for index, p in enumerate(problems):
        if p:
            print(f"FAILED op {index % len(ops)} ({' '.join(ops[index % len(ops)].argv)}): {'; '.join(p)}")

    metrics: dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END
    if plain and args.trace:
        totals: Counter[str] = Counter()
        for data in traced:
            totals.update(layer_totals(data["spans"], data["counts"]))
        if traced:
            metrics = per_layer_metrics(totals, len(traced))
            # the mean, like the layer times, and with the kernel runs the
            # spans also contain, so the layers add up to it
            metrics["trace.wall_s"] = statistics.mean(raw_wall(d, with_sampler=True) for d in traced)
            # the tracer adds about 1% to a pass, well below the drift
            # between two passes, so its cost is counted rather than taken
            # as a difference of pass times
            metrics["trace.overhead_s"] = statistics.mean(
                len(d["spans"]) * d["span_cost_s"] for d in traced
            )
    elif plain:
        # each op's median over passes, so the percentiles describe the
        # inputs rather than run-to-run noise
        per_op = [statistics.median(times) for times in zip(*(op_times(d) for d in plain))]
        wall = statistics.median(sum(op_times(d)) for d in plain)
        metrics = {
            "wall_s": wall,
            "graphs_per_s": graphs_per_pass / wall,
            "op_p50_ms": 1000 * percentile(per_op, 50),
            "op_p90_ms": 1000 * percentile(per_op, 90),
            "setup_s": setup_s,
            "peak_rss_mb": max(max(d["rss_kb"], d["worker_rss_kb"]) for d in plain) / 1024,
        }

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} plain + {len(traced)} traced")
    print(f"ops attempted {attempted}  failed {failed}  error_rate {failed / max(attempted, 1):.4f}")
    if plain:
        print(f"unscaled wall_s {statistics.median(raw_wall(d) for d in plain):.6f} s (times below are scaled, see speed.py)")
    if args.trace and args.workload == "scan-multi-j2":
        print("note: premise checks in the --jobs 2 pool workers are not traced; they count in enumeration.scan_self_s")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>14.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
