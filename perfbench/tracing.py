"""Spans around the calls into each cubicscan module, and per-layer metrics.

Each traced function is replaced under the name its caller looks it up by:
``enumeration.is_canonical_labeling`` is the graphs function as bound in the
enumeration module, ``cli.bridges`` is the connectivity function as bound in
the cli module, and ``cli._PARSERS`` holds the formats parsers as the cli
finds them. Replacing a module attribute also catches calls made inside that
module, so ``connectivity.is_connected`` spans also appear under
``connectivity.edge_connectivity`` and ``enumerate_3_edge_cuts``. A layer's
self time is its spans' durations minus the time covered by their direct
child spans.

Spans live in memory as ``[name, start, end, parent]`` and are written out
once, when the traced pass ends. Pool workers started by
``scan --jobs N`` run in other processes: their spans are never collected,
so premise checks done there count in ``enumeration.scan_self_s``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# span name -> layer its self time is charged to
LAYER_OF = {
    "cli.main": "cli.self",
    "cli._PARSERS": "formats.parse",
    "cli.bridges": "connectivity.bridges",
    "cli.edge_connectivity": "connectivity.edge_connectivity",
    "cli.girth": "connectivity.girth",
    "enumeration.scan_theorem": "enumeration.scan_self",
    "enumeration.generate_cubic_graphs": "enumeration.generate",
    "enumeration.is_canonical_labeling": "graphs.canonicity",
    "enumeration.canonical_form": "graphs.canonical_form",
    "enumeration.emit_sparse6": "formats.emit_sparse6",
    "verifier.verify_claims": "verifier.self",
    "verifier.canonical_form": "graphs.canonical_form",
    "verifier.is_isomorphic": "graphs.canonical_form",
    "connectivity.bridges": "connectivity.bridges",
    "connectivity.edge_connectivity": "connectivity.edge_connectivity",
    "connectivity.is_connected": "connectivity.edge_connectivity",
    "connectivity.girth": "connectivity.girth",
    "connectivity.enumerate_3_edge_cuts": "connectivity.three_edge_cuts",
    "connectivity.find_two_cycle": "connectivity.patterns",
    "connectivity.find_adjacent_triangles": "connectivity.patterns",
    "connectivity.find_square_triangle_pair": "connectivity.patterns",
    "connectivity.find_cycle_of_length": "connectivity.patterns",
    "matching.enumerate_perfect_matchings": "matching.enumerate",
    "matching.complementary_two_factor": "matching.two_factor",
    "matching.cycle_spectrum": "matching.two_factor",
    "matching.all_two_factors_are_five_cycles": "matching.premise",
}

# span name -> counter of calls charged to it
CALL_COUNTS = {
    "enumeration.is_canonical_labeling": "enumeration.candidates",
    "enumeration.canonical_form": "graphs.canonical_form_calls",
    "verifier.canonical_form": "graphs.canonical_form_calls",
    "verifier.is_isomorphic": "graphs.canonical_form_calls",
    "matching.all_two_factors_are_five_cycles": "matching.premise_calls",
    "connectivity.bridges": "connectivity.bridges_calls",
    "cli.bridges": "connectivity.bridges_calls",
}

# per-layer metrics in report order: name -> unit
PER_LAYER = {
    "enumeration.generate_s": "s",
    "enumeration.candidates": "count",
    "enumeration.classes": "count",
    "enumeration.accept_ratio": "ratio",
    "graphs.canonicity_s": "s",
    "enumeration.scan_self_s": "s",
    "connectivity.three_edge_cuts_s": "s",
    "connectivity.edge_connectivity_s": "s",
    "connectivity.girth_s": "s",
    "connectivity.patterns_s": "s",
    "verifier.self_s": "s",
    "graphs.canonical_form_s": "s",
    "graphs.canonical_form_calls": "count",
    "matching.enumerate_s": "s",
    "matching.matchings": "count",
    "matching.matchings_per_s": "1/s",
    "matching.two_factor_s": "s",
    "matching.premise_s": "s",
    "matching.premise_calls": "count",
    "connectivity.bridges_s": "s",
    "connectivity.bridges_calls": "count",
    "formats.parse_s": "s",
    "formats.parse_bytes": "bytes",
    "formats.emit_sparse6_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans in memory; ``install`` wraps the cubicscan entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def _start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.remove(index)  # a suspended generator's span may close late

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` updates counters."""
        if inspect.isgeneratorfunction(fn):
            # the span covers the generator from first step to exhaustion
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                index = self._start(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._end(index)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counter(self, key: str, amount):
        def after(args, result) -> None:
            self.counts[key] += amount(args, result)

        return after

    def install(self) -> None:
        from cubicscan import cli, connectivity, enumeration, matching, verifier

        modules = {
            "cli": cli,
            "connectivity": connectivity,
            "enumeration": enumeration,
            "matching": matching,
            "verifier": verifier,
        }
        after_of = {
            "enumeration.is_canonical_labeling": self._counter(
                "enumeration.classes", lambda args, result: int(result)
            ),
            "matching.enumerate_perfect_matchings": self._counter(
                "matching.matchings", lambda args, result: len(result)
            ),
        }
        for span_name in LAYER_OF:
            module_name, attr = span_name.split(".", 1)
            if attr == "_PARSERS":
                continue
            module = modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(span_name, original, after_of.get(span_name)))
        parse_bytes = self._counter("formats.parse_bytes", lambda args, result: len(args[0]))
        for fmt, parser in list(cli._PARSERS.items()):
            cli._PARSERS[fmt] = self.wrap("cli._PARSERS", parser, parse_bytes)


def span_cost() -> float:
    """Seconds the tracer adds to one call: a wrapped no-op against a bare one,
    the best of five loops of 20,000 calls each."""
    calls = 20000

    def noop() -> None:
        return None

    def loop(fn) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - started

    wrapped = Tracer().wrap("connectivity.girth", noop)
    bare = min(loop(noop) for _ in range(5))
    traced = min(loop(wrapped) for _ in range(5))
    return max(traced - bare, 0.0) / calls


def layer_totals(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Self seconds per layer plus call and work counters, for one traced pass."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[LAYER_OF[name] + "_s"] += (end - start) - covered[index]
        if name in CALL_COUNTS:
            totals[CALL_COUNTS[name]] += 1
    for key, value in counts.items():
        totals[key] += value
    return totals


def per_layer_metrics(totals: dict[str, float], passes: int) -> dict[str, float]:
    """Average the summed totals over traced passes and add the ratios."""
    out = {name: totals.get(name, 0.0) / passes for name in PER_LAYER}
    if out["enumeration.candidates"]:
        out["enumeration.accept_ratio"] = out["enumeration.classes"] / out["enumeration.candidates"]
    if out["matching.enumerate_s"]:
        out["matching.matchings_per_s"] = out["matching.matchings"] / out["matching.enumerate_s"]
    return out
