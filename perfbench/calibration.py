"""Reference work that measures how fast this process runs at the moment.

On a shared virtual machine the speed one process gets drifts: by a fifth
from one second to the next, and by up to half over minutes, as other
tenants load the host.  Process CPU time drifts just as much, so the drift
is in the core's speed, not in time stolen from the process.  The benchmark
therefore runs ``reference_work`` right before and right after every timed
operation and reports the operation's time scaled to a fixed speed:

    reference seconds = seconds * (REFERENCE_S / reference work seconds) ** SPEED_EXPONENT

where the reference work time is the mean of the two runs around the
operation.  The exponent is below 1 because the analysis follows the
machine's speed less than the reference work does: the reference work is
small and compute-bound, and a large CFG build waits on memory as well.
On the machine the baseline was recorded on, the least-squares slope of
log operation time on log reference work time was 0.4-0.8 over 20-45
samples (24 kB and 12 kB builds, the pattern corpus).  Over sets of five
to ten runs, an exponent of 0.75 kept the spread of ``wall_s`` below 10%
on every workload; 0.5 left up to 20% on pattern_corpus and 1 up to 17%
on scaling.

``reference_work`` is pure Python of the same kind as the analysis (dicts
and sets of tuples, a worklist over a graph) and never changes with the
program under test, so a faster program still shows as fewer reference
seconds.  REFERENCE_S is about its median time on that machine (2-vCPU
Intel Xeon virtual machine, Python 3.11), so reference seconds read about
as seconds there.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REFERENCE_S = 0.1
SPEED_EXPONENT = 0.75

clock = time.perf_counter

_NODES = 2000
_DEGREE = 3
_ROUNDS = 8
_WINDOW = 24


def reference_work() -> int:
    """A fixed forward data-flow fixpoint over a fixed random graph; returns
    a checksum so that no part of it can be skipped.  It makes no reference
    cycles, so everything it allocates is freed on return without the
    cycle collector."""
    rng = random.Random(170)
    checksum = 0
    for _ in range(_ROUNDS):
        succ = [[rng.randrange(_NODES) for _ in range(_DEGREE)] for _ in range(_NODES)]
        facts = [{(i, i & 7)} for i in range(_NODES)]
        work = list(range(_NODES))
        seen: dict[tuple[int, int], int] = {}
        while work:
            node = work.pop()
            for nxt in succ[node]:
                new = {(i, k) for i, k in facts[node] if abs(i - nxt) < _WINDOW}
                if not new <= facts[nxt]:
                    facts[nxt] |= new
                    work.append(nxt)
                key = (node, nxt)
                seen[key] = seen.get(key, 0) + 1
        checksum += sum(len(f) for f in facts) + len(seen)
    return checksum


class Stopwatch:
    """Times operations between two runs of the reference work and keeps,
    per key, each time in reference seconds and in seconds."""

    def __init__(self) -> None:
        self.scaled: dict = {}
        self.raw: dict = {}
        self.reference: list[float] = []
        self._pass: list[tuple[float, float]] = []
        self._last: float | None = None  # reference work right after the last operation

    def _reference_work(self) -> float:
        # Without the collector: a collection during the reference work
        # would walk the operations' live objects and charge them to speed.
        gc.disable()
        try:
            start = clock()
            reference_work()
            elapsed = clock() - start
        finally:
            gc.enable()
        self.reference.append(elapsed)
        return elapsed

    def time(self, key, fn, *args):
        """Time ``fn(*args)``.  Operations timed back to back, with nothing
        run between them, share the reference work between them."""
        before = self._last if self._last is not None else self._reference_work()
        start = clock()
        result = fn(*args)
        elapsed = clock() - start
        after = self._last = self._reference_work()
        scaled = elapsed * (REFERENCE_S * 2 / (before + after)) ** SPEED_EXPONENT
        self.scaled.setdefault(key, []).append(scaled)
        self.raw.setdefault(key, []).append(elapsed)
        self._pass.append((scaled, elapsed))
        return result

    def median(self, key) -> float:
        return statistics.median(self.scaled[key])

    def end_pass(self) -> tuple[float, float]:
        """(reference seconds, seconds) of the operations timed since the
        last call.  Call it before anything untimed runs."""
        scaled = sum(s for s, _ in self._pass)
        raw = sum(r for _, r in self._pass)
        self._pass = []
        self._last = None
        return scaled, raw

    def speed(self) -> float:
        """How much faster than the reference machine the reference work
        ran here (median)."""
        return REFERENCE_S / statistics.median(self.reference)
