"""Run a pass of cubicscan commands in this fresh interpreter.

Usage: python3 child.py PLAN_JSON RESULT_JSON

The plan holds ``src`` (the directory ``cubicscan`` is imported from),
``trace`` (install the tracer first) and ``commands`` (CLI argument lists).
Each command runs through ``cubicscan.cli.main`` with stdout and stderr
captured and is timed on its own. The result holds, per command, the exit
code, any uncaught exception, the latency (less the reference kernel runs
inside it), the captured output and the kernel's times around and during
the command (see speed.py); for the pass, the peak RSS of this process and
of its largest waited-for child (such as a pool worker) and, when traced,
the spans, the counters and the tracer's cost per span.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    from cubicscan import cli

    from speed import Sampler

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"cubicscan was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if plan["trace"]:
        from tracing import Tracer, span_cost

        tracer = Tracer()
        tracer.install()

    results = []
    for command in plan["commands"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code, error = None, None
        with redirect_stdout(stdout), redirect_stderr(stderr), Sampler() as sampler:
            started = time.perf_counter()
            try:
                exit_code = cli.main(command)
            except Exception:  # run.py counts the op as failed
                error = traceback.format_exc()
            latency = time.perf_counter() - started
        results.append(
            {
                "exit_code": exit_code,
                "error": error,
                "latency_s": latency - sampler.spent,
                "sampler_s": sampler.spent,
                "reference_s": sampler.samples,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
            }
        )

    out = {
        "results": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "worker_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
        out["span_cost_s"] = span_cost()
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
