"""Scale measured times to a fixed machine speed.

The machine the baseline was measured on is shared: its speed for Python
code swings by 20-40% within seconds, so raw times from two runs a minute
apart differ by more than most regressions. So a short reference
kernel runs before every timed op, every SAMPLE_INTERVAL_S during it and
after it: fixed stdlib graph code in the program's idiom (BFS distance
profiles over lists, sets, dicts and deques, and a depth-first labeling
search over neighbor permutations with recursion and sorted tuples),
written independently of the program. An op's time, less the kernel runs
inside it, is reported as ``measured * REFERENCE_S / mean kernel time``:
the time the op would take on a machine where the kernel takes
REFERENCE_S, its median time on the baseline machine.

Inside an op the kernel runs only while the process has no child
processes. It runs in the op's own thread, so it pauses the op rather than
competing with it; but while pool workers keep the cores busy it would
compete with them, read slow, and make the scaled time depend on how many
cores the program uses. Where the process cannot see its children (no
``/proc/self/task/*/children``), the kernel runs only before and after ops.
"""

from __future__ import annotations

import glob
import os
import random
import signal
import time
from itertools import permutations
from pathlib import Path

from inputs import invariant, pairing_graph

REFERENCE_S = 0.00068
SAMPLE_INTERVAL_S = 0.05
_CAN_SEE_CHILDREN = Path(f"/proc/self/task/{os.getpid()}/children").exists()

_GRAPH = pairing_graph(random.Random("reference"), 40, simple=True)
_ADJ = [[w for e in _GRAPH for w in e if v in e and w != v] for v in range(40)]
_SMALL_N = 16
_SMALL = pairing_graph(random.Random("reference-small"), _SMALL_N, simple=True)


def _labeling_search(budget: int) -> int:
    """Visit up to ``budget`` nodes of the block-wise labeling tree from vertex 0."""
    lab = [-1] * len(_ADJ)
    order = [0]
    lab[0] = 0
    blocks = []  # built and dropped, as a canonical search does
    left = budget

    def step(t: int) -> None:
        nonlocal left
        if t == len(_ADJ) or left <= 0:
            return
        x = order[t]
        unlabeled = sorted({w for w in _ADJ[x] if lab[w] < 0})
        base = len(order)
        for perm in permutations(unlabeled):
            left -= 1
            for i, w in enumerate(perm):
                lab[w] = base + i
                order.append(w)
            blocks.append(tuple(sorted(lab[w] for w in _ADJ[x] if lab[w] > t)))
            step(t + 1)
            blocks.pop()
            for w in perm:
                lab[w] = -1
            del order[base:]

    step(0)
    return budget - left


def kernel_seconds() -> float:
    """One run of the reference kernel."""
    started = time.perf_counter()
    invariant(_SMALL_N, _SMALL)
    _labeling_search(120)
    return time.perf_counter() - started


def _has_children() -> bool:
    """Whether this process has child processes, such as pool workers."""
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            if Path(path).read_text().strip():
                return True
        except OSError:  # the thread has just ended
            pass
    return False


class Sampler:
    """Runs the kernel before a timed block, every SAMPLE_INTERVAL_S inside it
    while the process has no children (from a SIGALRM handler, so long ops
    get a time-weighted sample of the machine's speed) and after it.
    ``spent`` is the handler's time inside the block, to be taken off the
    block's measured time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        if not _has_children():
            self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "Sampler":
        self.samples.append(kernel_seconds())
        if _CAN_SEE_CHILDREN:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if _CAN_SEE_CHILDREN:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())


def scaled(seconds: float, samples: list[float]) -> float:
    return seconds * REFERENCE_S * len(samples) / sum(samples)
