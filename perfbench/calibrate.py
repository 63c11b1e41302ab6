"""Host-speed calibration with a fixed reference workload.

The benchmark's host is shared, and its speed wanders: reference passes
a few seconds apart differ by up to 2x, and a whole run's timings by
30%.  So every timing that depends on host speed is taken next to a
fixed pure-Python workload, written here and independent of the
program, shaped like the program's hot loop (a heap of generator
processes, small slotted objects, dict traffic).  Timings
are reported scaled to a *nominal host*, one on which the reference
takes ``NOMINAL_S``::

    scaled = measured * NOMINAL_S / reference

where ``reference`` is the mean of the passes right before and right
after the measured piece.  A change to the program cannot move the
reference, so the scaling removes host drift and nothing else.  The
report prints the unscaled values too.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import time
from typing import Any, Callable, ContextManager, Iterator, List, Tuple

#: Seconds one reference pass takes on the nominal host (about its median
#: on a 2-vCPU shared cloud VM with Python 3.11).
NOMINAL_S = 0.04


class _Msg:
    __slots__ = ("src", "dst", "t", "payload")

    def __init__(self, src: int, dst: int, t: float, payload: dict) -> None:
        self.src = src
        self.dst = dst
        self.t = t
        self.payload = payload


def _proc(i: int) -> Iterator[Tuple[float, int]]:
    x = i + 1
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield (x % 997) / 997.0, x


def _reference_work(n_events: int = 15_000, n_procs: int = 400,
                    ring: int = 4_000) -> int:
    heap: list = []
    store: dict = {}
    tally: dict = {}
    for i in range(n_procs):
        p = _proc(i)
        d, _ = next(p)
        heapq.heappush(heap, (d, i, p))
    seq = n_procs
    for k in range(n_events):
        t, _, p = heapq.heappop(heap)
        d, x = next(p)
        store[k % ring] = _Msg(x & 255, x >> 8 & 255, t, {"x": x, "k": k})
        m = store.get((x >> 3) % ring)
        if m is not None:
            tally[m.dst] = tally.get(m.dst, 0) + 1
        heapq.heappush(heap, (t + d, seq, p))
        seq += 1
    return len(tally)


def reference_s() -> float:
    """Seconds one reference pass takes right now."""
    enabled = gc.isenabled()
    gc.disable()  # collector pauses depend on the caller's heap
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times work in pieces, scaling each piece by the reference passes
    right before and right after it.

    *around* makes the context each reference pass runs in (a traced run
    puts the passes in spans of their own, so no layer is charged).
    """

    def __init__(self, around: Callable[[], ContextManager] = (
            contextlib.nullcontext)) -> None:
        self._around = around
        self.references: List[float] = [self._reference()]
        self.start()

    def _reference(self) -> float:
        with self._around():
            return reference_s()

    def start(self) -> None:
        """Open the first piece; :meth:`mark` and :meth:`stop` close them."""
        self._totals = [0.0, 0.0, 0.0]
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()

    def mark(self) -> None:
        """Close the current piece, run a reference pass, open the next."""
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._cpu0
        before = self.references[-1]
        self.references.append(self._reference())
        factor = NOMINAL_S / ((before + self.references[-1]) / 2)
        self._totals[0] += wall * factor
        self._totals[1] += cpu * factor
        self._totals[2] += wall
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()

    def stop(self) -> Tuple[float, float, float]:
        """Close the last piece; returns (scaled wall s, scaled CPU s,
        wall s as measured) summed over the pieces since :meth:`start`."""
        self.mark()
        scaled, cpu, wall = self._totals
        return scaled, cpu, wall

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float, float]:
        """Run *fn* as one piece; returns (its value, scaled wall s,
        scaled CPU s, wall s as measured)."""
        self.start()
        value = fn()
        return (value, *self.stop())
