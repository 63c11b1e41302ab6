"""The benchmark's metric tables: units, directions and what each moves.

``END_TO_END`` lists the metrics a user of the system sees.  ``gated``
marks the ones in ``BENCHMARK.json``: those must be defined and non-zero
on every workload, so a metric that only applies to one kind of
workload (or counts a handful of tasks on the live domain, like
``fail_ratio``) is printed in the report but not gated.  ``PER_LAYER``
maps every per-layer metric to the end-to-end metrics and workloads it
should move; the tracer self-check requires it to be non-zero on those
workloads unless ``zero_ok`` says it counts faults that a healthy run
does not have.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

SIM = ("sim_placement", "sim_churn")
LIVE = ("live_fig1",)
ALL = SIM + LIVE


class EndToEnd(NamedTuple):
    unit: str
    better: str
    workloads: Tuple[str, ...]
    gated: bool


# Definitions per kind of workload are in NOTES.md ("End-to-end metrics").
END_TO_END: Dict[str, EndToEnd] = {
    "setup_s": EndToEnd("s", "lower", ALL, True),
    "run_s": EndToEnd("s", "lower", ALL, True),
    "events_per_s": EndToEnd("1/s", "higher", ALL, True),
    "peak_rss_mb": EndToEnd("MB", "lower", ALL, True),
    "goodput": EndToEnd("ratio", "higher", ALL, True),
    "cpu_ms_per_task": EndToEnd("ms", "lower", ALL, True),
    # Host speed moves the live median past any allowed bound.
    "task_p50_ms": EndToEnd("ms", "lower", ALL, False),
    # On live_fig1 it counts the ~1% of tasks admission rejects: few
    # enough to read 0 in some windows.
    "fail_ratio": EndToEnd("ratio", "lower", ALL, False),
    "miss_ratio": EndToEnd("ratio", "lower", SIM, False),
    "fairness_mean": EndToEnd("ratio", "higher", SIM, False),
    "response_p50_s": EndToEnd("s", "lower", SIM, False),
    "response_p95_s": EndToEnd("s", "lower", SIM, False),
    # GC pauses spread it far more than the median.
    "task_p99_ms": EndToEnd("ms", "lower", LIVE, False),
    "ack_p50_ms": EndToEnd("ms", "lower", LIVE, False),
}


class PerLayer(NamedTuple):
    unit: str
    better: str
    #: (end-to-end metric, workload) pairs this metric should move.
    targets: Tuple[Tuple[str, str], ...]
    #: A fault counter whose healthy value is 0.
    zero_ok: bool = False


def _t(metrics: str, workloads: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
    return tuple((m, w) for m in metrics.split() for w in workloads)


_P = ("sim_placement",)
_C = ("sim_churn",)

PER_LAYER: Dict[str, PerLayer] = {
    "sim.events": PerLayer("count", "lower", _t("run_s events_per_s", SIM)),
    "sim.self_s": PerLayer("s", "lower", _t("run_s events_per_s", SIM)),
    "net.send.calls": PerLayer("count", "lower", _t("run_s", _C)),
    "net.send.self_s": PerLayer("s", "lower", _t("run_s", _C)),
    "core.admission.admit.calls": PerLayer("count", "lower", _t("run_s", _P)),
    "core.admission.admit.self_s": PerLayer("s", "lower", _t("run_s", _P)),
    "core.admission.attempts_per_task": PerLayer(
        "ratio", "lower", _t("run_s goodput", _P)),
    "core.admission.accept_ratio": PerLayer(
        "ratio", "higher", _t("run_s goodput", _P)),
    "core.placement.place.calls": PerLayer("count", "lower", _t("run_s", _P)),
    "core.placement.place.s": PerLayer("s", "lower", _t("run_s", _P)),
    "core.placement.feasible_ratio": PerLayer(
        "ratio", "higher", _t("run_s", _P)),
    "graphs.search.paths.calls": PerLayer("count", "lower", _t("run_s", _P)),
    "graphs.search.paths.self_s": PerLayer("s", "lower", _t("run_s", _P)),
    "graphs.search.paths_per_call": PerLayer(
        "count", "lower", _t("run_s", _P)),
    "core.estimate.estimate_path.calls": PerLayer(
        "count", "lower", _t("run_s", _P)),
    "core.estimate.estimate_path.self_s": PerLayer(
        "s", "lower", _t("run_s", _P)),
    "core.info_base.effective_load.calls": PerLayer(
        "count", "lower", _t("run_s", SIM)),
    "core.info_base.effective_load.self_s": PerLayer(
        "s", "lower", _t("run_s", SIM)),
    "scheduling.processor.submit.calls": PerLayer(
        "count", "lower", _t("task_p50_ms", _P)),
    "scheduling.processor.missed": PerLayer(
        "count", "lower", _t("task_p50_ms goodput", _P), zero_ok=True),
    "monitoring.profiler.current_report.calls": PerLayer(
        "count", "lower", _t("run_s", _C)),
    "monitoring.profiler.current_report.self_s": PerLayer(
        "s", "lower", _t("run_s", _C)),
    "gossip.publish.calls": PerLayer("count", "lower", _t("run_s", _C)),
    "gossip.publish.self_s": PerLayer("s", "lower", _t("run_s", _C)),
    "core.control.repair.peer_down.s": PerLayer(
        "s", "lower", _t("run_s goodput", _C)),
    "core.control.repair.repair_task.calls": PerLayer(
        "count", "lower", _t("run_s goodput", _C)),
    "core.control.repair.repair_task.s": PerLayer(
        "s", "lower", _t("run_s goodput", _C)),
    "core.control.repair.check_liveness.s": PerLayer(
        "s", "lower", _t("run_s", _C)),
    "core.control.repair.saved_ratio": PerLayer(
        "ratio", "higher", _t("goodput", _C)),
    "overlay.join.calls": PerLayer(
        "count", "lower", _t("setup_s", SIM) + _t("run_s", _C)),
    "overlay.join.s": PerLayer(
        "s", "lower", _t("setup_s", SIM) + _t("run_s", _C)),
    "workloads.build.population_s": PerLayer(
        "s", "lower", _t("setup_s", SIM)),
    "workloads.build.join_s": PerLayer("s", "lower", _t("setup_s", SIM)),
    "runtime.codec.encode.calls": PerLayer(
        "count", "lower", _t("cpu_ms_per_task", LIVE)),
    "runtime.codec.encode.self_s": PerLayer(
        "s", "lower", _t("cpu_ms_per_task", LIVE)),
    "runtime.codec.decode.calls": PerLayer(
        "count", "lower", _t("cpu_ms_per_task", LIVE)),
    "runtime.codec.decode.self_s": PerLayer(
        "s", "lower", _t("cpu_ms_per_task", LIVE)),
    "runtime.transport.send.self_s": PerLayer(
        "s", "lower", _t("cpu_ms_per_task task_p50_ms", LIVE)),
    "runtime.transport.recv.self_s": PerLayer(
        "s", "lower", _t("cpu_ms_per_task task_p50_ms", LIVE)),
    "runtime.transport.retransmits": PerLayer(
        "count", "lower", _t("task_p50_ms", LIVE), zero_ok=True),
    "runtime.transport.duplicates": PerLayer(
        "count", "lower", _t("cpu_ms_per_task", LIVE), zero_ok=True),
    "runtime.messages_per_task": PerLayer(
        "count", "lower", _t("cpu_ms_per_task task_p50_ms", LIVE)),
    "runtime.node.step.calls": PerLayer(
        "count", "lower", _t("cpu_ms_per_task", LIVE)),
    "runtime.node.step.self_s": PerLayer(
        "s", "lower", _t("cpu_ms_per_task", LIVE)),
    "runtime.loop.stall_max_ms": PerLayer(
        "ms", "lower", _t("task_p50_ms peak_rss_mb", LIVE)),
    "gc.pause_total_ms": PerLayer(
        "ms", "lower", _t("task_p50_ms peak_rss_mb", LIVE)),
    "gc.gen2_max_ms": PerLayer(
        "ms", "lower", _t("task_p50_ms peak_rss_mb", LIVE), zero_ok=True),
    "gen.lag_max_ms": PerLayer("ms", "lower", _t("task_p50_ms", LIVE)),
    "task_p99_ms": PerLayer("ms", "lower", _t("task_p50_ms", LIVE)),
    "layers.placement.share": PerLayer(
        "ratio", "lower", _t("run_s", _P)),
    "layers.membership.share": PerLayer(
        "ratio", "lower", _t("run_s", _C)),
    "layers.runtime.share": PerLayer(
        "ratio", "lower", _t("cpu_ms_per_task", LIVE)),
    "trace.overhead": PerLayer("ratio", "lower", _t("run_s", ALL)),
}

#: Span names whose outermost time makes up each layer-group share.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "placement": (
        "core.admission.admit", "core.placement.place",
        "graphs.search.paths",
    ),
    "membership": (
        "core.control.repair.peer_down", "core.control.repair.repair_task",
        "core.control.repair.check_liveness", "overlay.join",
        "gossip.publish",
    ),
    "runtime": (
        "runtime.codec.encode", "runtime.codec.decode",
        "runtime.transport.send", "runtime.transport.recv",
        "runtime.node.step",
    ),
}


def self_check(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Per-layer metrics that read 0 on a workload they claim to move."""
    bad = []
    for name, spec in PER_LAYER.items():
        if spec.zero_ok:
            continue
        if any(w == workload for _, w in spec.targets):
            if not metrics.get(name):
                bad.append(name)
    return bad


def compute(tracer, extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from the tracer's aggregates and *extras*."""
    g = tracer.get

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    admit = g("core.admission.admit")
    place = g("core.placement.place")
    paths = g("graphs.search.paths")
    repair = g("core.control.repair.repair_task")
    traced_s = extras["traced_s"]
    out = {
        "sim.events": extras.get("sim.events", 0),
        "sim.self_s": g("sim.run").self_s,
        "core.admission.attempts_per_task": ratio(
            admit.calls, extras.get("tasks", 0)),
        "core.admission.accept_ratio": ratio(admit.value, admit.calls),
        "core.placement.feasible_ratio": ratio(place.ok, place.calls),
        "graphs.search.paths_per_call": ratio(paths.value, paths.calls),
        "core.control.repair.saved_ratio": ratio(
            extras.get("repaired", 0), repair.calls),
        "workloads.build.population_s": g(
            "workloads.build.population").incl_s,
        "workloads.build.join_s": g("workloads.build").children.get(
            "overlay.join", 0.0),
    }
    for gname, group in tracer.groups.items():
        out[f"layers.{gname}.share"] = ratio(group.incl_s, traced_s)
    for name in PER_LAYER:
        if name in out:
            continue
        span, _, field = name.rpartition(".")
        if name in extras or field not in ("calls", "self_s", "s"):
            # Counters the workload read from the program itself; 0 on
            # workloads that do not run that layer.
            out[name] = extras.get(name, 0.0)
            continue
        agg = g(span)
        out[name] = {
            "calls": agg.calls, "self_s": agg.self_s, "s": agg.incl_s,
        }[field]
    return out
