"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 [--traced] [--out perfbench/baseline.json]

Run from the root of a cubicscan checkout. For every workload in
BENCHMARK.json it runs ``run.py`` once per seed with tracing off, then
reports each end-to-end metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median. Every spread but that of
``setup_s`` must stay below a third of the metric's bound in
BENCHMARK.json. ``setup_s`` is printed but not gated: one import takes about
35 ms and is scaled only by the kernel runs just before and after it, so
the machine's swings cancel less well than in long ops, and its spread
reached 0.093-0.100 on two workloads of the baseline. Its bound applies to
the move of its median between two sets of runs instead.
``--traced`` adds one traced run per workload, on the first seed, for the
per-layer numbers. ``--out`` writes everything, with the machine it ran
on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
    return result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"], 0) for seed in seeds]
        entry: dict = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_elapsed_s": [round(r["elapsed_s"], 1) for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: {entry['failed']} of {entry['attempted']} ops failed, "
              f"longest run {max(entry['run_elapsed_s'])} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            steady &= ok or name == "setup_s"
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            print(f"  {name:<14} median {median:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  "
                  f"spread {spread:6.3f}  bound {bound:5.3f}  {'ok' if ok else 'not gated' if name == 'setup_s' else 'WIDE'}")
        if args.traced:
            traced = run_once(workload, seeds[0], bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
        summary[workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps({
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu_model()},
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "workloads": summary,
        }, indent=2) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: some spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
