"""Span tracer that wraps the program's layer entry points from outside.

The benchmark must not edit the program, so spans are recorded by
replacing class attributes and module-level function names with timing
wrappers.  :func:`install` must run before any scenario or cluster is
built: hot paths bind methods at construction (``Network`` keeps bound
callbacks, ``Process`` binds ``generator.send``), and an object built
before the wrappers exist calls the originals and records nothing.  The
self-check in :mod:`perfbench.layers` catches a wrapper that never fired.

A span is ``(name, start, end, parent)``.  Spans are kept in memory in
compact arrays (up to ``max_spans``; past that only the aggregates grow)
and written out by :meth:`Tracer.dump`.  Aggregates are exact:

* ``calls``: invocations; a generator counts once, however often it
  is resumed.
* ``incl_s``: wall time of a span, counted only when no enclosing span
  has the same name, so recursion is not counted twice.
* ``self_s``: wall time of a span minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter


class _Group:
    __slots__ = ("active", "incl_s")

    def __init__(self) -> None:
        self.active = 0
        self.incl_s = 0.0


class _Agg:
    __slots__ = ("name", "calls", "incl_s", "self_s", "ok", "value",
                 "active", "group", "children")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.ok = 0  # spans that returned normally
        self.value = 0.0  # sum of result_fn(result)
        self.active = 0  # open spans of this name (recursion guard)
        self.group: Optional[_Group] = None
        #: Child span name -> seconds spent in it under this span.
        self.children: Dict[str, float] = {}


class Tracer:
    """In-memory span recorder with exact per-name aggregates."""

    def __init__(self, max_spans: int = 2_000_000) -> None:
        self.aggs: Dict[str, _Agg] = {}
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.max_spans = max_spans
        self.n_spans = 0
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._name = array("l")
        # The open spans, innermost last, as parallel lists of objects
        # the garbage collector does not track, so tracing allocates no
        # containers per span and leaves GC pauses as the program has them.
        self._s_agg: List[_Agg] = []
        self._s_idx: List[int] = []
        self._s_start: List[float] = []
        self._s_child: List[float] = []
        self.groups: Dict[str, _Group] = {}

    def set_groups(self, groups: Dict[str, Tuple[str, ...]]) -> None:
        """Track the time covered by any span of each named group."""
        for gname, members in groups.items():
            group = self.groups[gname] = _Group()
            for name in members:
                self._agg(name).group = group

    # -- spans -------------------------------------------------------------
    def _agg(self, name: str) -> _Agg:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg(name)
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return agg

    def enter(self, agg: _Agg) -> None:
        idx = -1
        if self.n_spans < self.max_spans:
            idx = self.n_spans
            self._name.append(self._name_ids[agg.name])
            self._parent.append(self._s_idx[-1] if self._s_idx else -1)
            self._start.append(0.0)
            self._end.append(0.0)
        self.n_spans += 1
        agg.active += 1
        if agg.group is not None:
            agg.group.active += 1
        self._s_agg.append(agg)
        self._s_idx.append(idx)
        self._s_child.append(0.0)
        self._s_start.append(_now())

    def exit(self, ok: bool, result: Any = None,
             result_fn: Optional[Callable[[Any], float]] = None) -> None:
        end = _now()
        start = self._s_start.pop()
        child_s = self._s_child.pop()
        idx = self._s_idx.pop()
        agg = self._s_agg.pop()
        dur = end - start
        agg.self_s += dur - child_s
        agg.active -= 1
        if agg.active == 0:
            agg.incl_s += dur
        group = agg.group
        if group is not None:
            group.active -= 1
            if group.active == 0:
                group.incl_s += dur
        if ok:
            agg.ok += 1
            if result_fn is not None:
                agg.value += result_fn(result)
        if self._s_agg:
            self._s_child[-1] += dur
            under = self._s_agg[-1].children
            under[agg.name] = under.get(agg.name, 0.0) + dur
        if idx >= 0:
            self._start[idx] = start
            self._end[idx] = end

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        agg = self._agg(name)
        agg.calls += 1
        self.enter(agg)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.exit(ok)

    # -- wrappers ----------------------------------------------------------
    def wrap_function(
        self, fn: Callable, name: str,
        result_fn: Optional[Callable[[Any], float]] = None,
    ) -> Callable:
        agg = self._agg(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            agg.calls += 1
            enter(agg)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(False)
                raise
            exit_(True, result, result_fn)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Time every resume of a generator; ``value`` counts yields."""
        agg = self._agg(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args: Any, **kwargs: Any):
            agg.calls += 1
            it = fn(*args, **kwargs)
            while True:
                enter(agg)
                try:
                    item = next(it)
                except StopIteration:
                    exit_(True)
                    return
                except BaseException:
                    exit_(False)
                    raise
                exit_(True)
                agg.value += 1
                yield item

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- read-out ----------------------------------------------------------
    def get(self, name: str) -> _Agg:
        return self.aggs.get(name) or _Agg()

    def dump(self, path: str) -> None:
        """Write the kept spans as TSV: name, start, end, parent index."""
        n = min(self.n_spans, self.max_spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans={self.n_spans} kept={n}\n")
            fh.write("idx\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for i in range(n):
                fh.write(
                    f"{i}\t{names[self._name[i]]}\t{self._start[i]:.9f}\t"
                    f"{self._end[i]:.9f}\t{self._parent[i]}\n"
                )


class GcWatch:
    """Collector pauses, from ``gc.callbacks`` (costs nothing between them)."""

    def __init__(self) -> None:
        self.pauses: List[Tuple[int, float]] = []
        self._t0: Optional[float] = None
        self._own = False

    def collect(self) -> None:
        """A full collection the benchmark asks for; not counted."""
        self._own = True
        try:
            gc.collect()
        finally:
            self._own = False

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if self._own:
            return
        if phase == "start":
            self._t0 = _now()
        elif self._t0 is not None:
            self.pauses.append((info["generation"], _now() - self._t0))
            self._t0 = None

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> Dict[str, float]:
        gc.callbacks.remove(self._callback)
        gen2 = [d for gen, d in self.pauses if gen == 2]
        return {
            "gc.pause_total_ms": 1000.0 * sum(d for _, d in self.pauses),
            "gc.gen2_max_ms": 1000.0 * max(gen2, default=0.0),
        }


#: (module, attribute path, span name, kind, result_fn).  ``kind`` is
#: "fn" or "gen".  Module-level functions are patched in the module
#: that *calls* them, since ``from x import f`` copies the reference.
WRAP_POINTS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("repro.net.network", "Network.send", "net.send", "fn", None),
    ("repro.core.control.admission", "AdmissionController.admit",
     "core.admission.admit", "fn", lambda r: 1.0 if r == "accepted" else 0.0),
    ("repro.core.control.placement", "PlacementEngine.place",
     "core.placement.place", "fn", None),
    # The Fig-3 BFS: the allocator iterates ``iter_paths`` directly
    # (PathSearch.paths is a list() convenience nothing hot calls).
    ("repro.core.allocation", "iter_paths", "graphs.search.paths", "gen",
     None),
    ("repro.core.estimate", "CompletionTimeEstimator.estimate_path",
     "core.estimate.estimate_path", "fn", None),
    ("repro.core.info_base", "DomainInfoBase.effective_load",
     "core.info_base.effective_load", "fn", None),
    ("repro.scheduling.processor", "Processor.submit",
     "scheduling.processor.submit", "fn", None),
    ("repro.monitoring.profiler", "Profiler.current_report",
     "monitoring.profiler.current_report", "fn", None),
    ("repro.gossip.agent", "GossipAgent.publish", "gossip.publish", "fn",
     None),
    ("repro.core.control.repair", "RepairCoordinator.peer_down",
     "core.control.repair.peer_down", "fn", None),
    ("repro.core.control.repair", "RepairCoordinator.repair_task",
     "core.control.repair.repair_task", "fn", None),
    ("repro.core.control.repair", "RepairCoordinator.check_liveness",
     "core.control.repair.check_liveness", "fn", None),
    ("repro.overlay.network", "OverlayNetwork.join", "overlay.join", "fn",
     None),
    ("repro.workloads.scenario", "build_scenario", "workloads.build", "fn",
     None),
    ("repro.workloads.scenario", "generate_specs",
     "workloads.build.population", "fn", None),
    ("repro.workloads.scenario", "make_objects",
     "workloads.build.population", "fn", None),
    ("repro.runtime.transport", "encode_message", "runtime.codec.encode",
     "fn", None),
    ("repro.runtime.transport", "encode_ack", "runtime.codec.encode", "fn",
     None),
    ("repro.runtime.transport", "decode_frame", "runtime.codec.decode", "fn",
     None),
    ("repro.runtime.transport", "UdpTransport.send", "runtime.transport.send",
     "fn", None),
    ("repro.runtime.transport", "UdpTransport.datagram_received",
     "runtime.transport.recv", "fn", None),
    # Only the live pumps call step(); the sim run loop inlines it.
    ("repro.sim.core", "Environment.step", "runtime.node.step", "fn", None),
]


def install(tracer: Tracer) -> None:
    """Patch every wrap point for the rest of the process."""
    for module_name, path, name, kind, result_fn in WRAP_POINTS:
        owner: Any = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = getattr(owner, attr)
        if kind == "gen":
            wrapped = tracer.wrap_generator(original, name)
        else:
            wrapped = tracer.wrap_function(original, name, result_fn)
        setattr(owner, attr, wrapped)
