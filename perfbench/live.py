"""The live workload: the Fig-1 domain over localhost UDP, open loop.

One asyncio loop hosts the bootstrap, the RM ``M0`` and peers
``P1..P4`` (six UDP sockets).  ``P4`` submits tasks at seeded Poisson
times whether or not earlier ones finished (independent users make an
open loop), and each task is timed from when it was *due*, so a stall
also counts against the tasks queued behind it.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from typing import Any, Dict, List, Optional

from perfbench.result import Result, peak_rss_mb

RATE = 80.0  # tasks/s; the knee lies between 120 and 160
ORIGIN = "P4"
#: Tasks take about 10 ms and their p99 stays under about 60 ms at 80/s,
#: so a few percent miss or are rejected and a slower runtime moves
#: ``goodput`` and ``fail_ratio``.
DEADLINE_S = 0.2
ACK_TIMEOUT_S = 15.0
DONE_TIMEOUT_S = 10.0
SETUPS = 5
PROBE_S = 0.01


def due_times(seed: int, seconds: float, rate: float) -> List[float]:
    """Offsets (s) of the open-loop submissions, from the seed alone."""
    rng = random.Random(seed)
    out, t = [], rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def _cluster_config():
    from repro.runtime import LiveClusterConfig

    return LiveClusterConfig(object_duration_s=0.3)


async def _start_cluster():
    """Start a cluster and run one warm-up task to completion."""
    from repro.runtime import LiveCluster

    cluster = LiveCluster(_cluster_config())
    await cluster.start()
    cluster.rm_node  # raises unless the election produced an RM
    # A loose deadline: this task only shows the cluster is ready.
    ack = await cluster.submit(ORIGIN, deadline=20.0,
                               timeout=ACK_TIMEOUT_S)
    if ack.get("disposition") != "accepted":
        await cluster.stop()
        raise RuntimeError(f"warm-up task not accepted: {ack}")
    await cluster.wait_task_event(ack["task_id"], "completed",
                                  timeout=DONE_TIMEOUT_S)
    return cluster


class _Task:
    __slots__ = ("due", "ack_at", "done_at", "task_id", "disposition",
                 "error")

    def __init__(self, due: float) -> None:
        self.due = due
        self.ack_at: Optional[float] = None
        self.done_at: Optional[float] = None
        self.task_id: Optional[str] = None
        self.disposition: Optional[str] = None
        self.error: Optional[str] = None


async def _one(cluster, node, rec: _Task, loop) -> None:
    try:
        ack = await node.submit_task(
            "movie", cluster.default_goal, DEADLINE_S,
            timeout=ACK_TIMEOUT_S,
        )
        rec.ack_at = loop.time()
        rec.task_id = ack.payload.get("task_id")
        rec.disposition = ack.payload.get("disposition")
        if rec.disposition == "accepted":
            await cluster.wait_task_event(rec.task_id, "completed",
                                          timeout=DONE_TIMEOUT_S)
            rec.done_at = loop.time()
    except Exception as exc:  # any failure counts against the run
        stage = "no TASK_ACK" if rec.ack_at is None else "no completion"
        rec.error = f"{stage}: {exc!r}"


async def _probe(stop: asyncio.Event, out: List[float], loop) -> None:
    """Record how late a short periodic sleep wakes (loop stalls)."""
    while not stop.is_set():
        t = loop.time()
        await asyncio.sleep(PROBE_S)
        out.append(loop.time() - t - PROBE_S)


def _decided(rm) -> int:
    """Submissions the RM has answered (each gets one TASK_ACK)."""
    return sum(
        rm.stats[k] for k in ("admitted", "rejected", "redirected_out")
    )


def _events(cluster) -> int:
    return sum(n.env.n_processed for n in cluster.nodes.values())


async def _session(seed: int, seconds: float, inject: Optional[str],
                   probe: bool) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    t_session = time.perf_counter()
    setups = []
    cluster = None
    for i in range(SETUPS):
        t0 = time.perf_counter()
        cluster = await _start_cluster()
        setups.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            await cluster.stop()
    assert cluster is not None
    try:
        node = cluster.nodes[ORIGIN]
        rm = cluster.rm_node.node
        completed0 = rm.stats["completed"]
        decided0 = _decided(rm)
        events0 = _events(cluster)
        agg0 = cluster.aggregate_summary()
        stalls: List[float] = []
        stop_probe = asyncio.Event()
        probe_task = (
            loop.create_task(_probe(stop_probe, stalls, loop))
            if probe else None
        )
        recs = [_Task(d) for d in due_times(seed, seconds, RATE)]
        pending = []
        lag_max = 0.0
        cpu0 = time.process_time()
        start = loop.time() + 0.01
        for rec in recs:
            rec.due += start
            delay = rec.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lag_max = max(lag_max, loop.time() - rec.due)
            pending.append(loop.create_task(_one(cluster, node, rec, loop)))
        await asyncio.gather(*pending)
        end = max(
            [r.done_at or r.ack_at or r.due for r in recs], default=start
        )
        cpu_s = time.process_time() - cpu0
        events = _events(cluster) - events0
        if probe_task is not None:
            stop_probe.set()
            await probe_task
        completed_rm = rm.stats["completed"] - completed0
        decided_rm = _decided(rm) - decided0
        outcomes = {
            r.task_id: cluster.task(r.task_id).outcome
            for r in recs if r.done_at is not None
        }
        agg = cluster.aggregate_summary()
        for key in ("sent", "retransmits", "duplicates"):
            agg[key] -= agg0[key]  # the window's traffic only
    finally:
        await cluster.stop()
    if inject == "drop_completion":
        done = [r for r in recs if r.done_at is not None]
        if done:
            done[0].done_at = None
    elif inject == "drop_ack":
        acked = [r for r in recs if r.ack_at is not None]
        if acked:
            acked[0].ack_at = None
    return {
        "setups": setups, "recs": recs, "lag_max": lag_max,
        "cpu_s": cpu_s, "events": events, "run_s": end - start,
        "completed_rm": completed_rm, "decided_rm": decided_rm,
        "outcomes": outcomes,
        "agg": agg, "stalls": stalls,
        "session_s": time.perf_counter() - t_session,
    }


def _check(s: Dict[str, Any]) -> List[str]:
    recs = s["recs"]
    errors = []
    seen = [r for r in recs if r.done_at is not None]
    if len(seen) != s["completed_rm"]:
        errors.append(
            f"client saw {len(seen)} completions, RM stats['completed'] "
            f"counted {s['completed_rm']}"
        )
    ids = [r.task_id for r in recs if r.task_id is not None]
    if len(ids) != len(set(ids)):
        errors.append(f"{len(ids) - len(set(ids))} duplicate task ids")
    acked = sum(1 for r in recs if r.ack_at is not None)
    if acked != s["decided_rm"]:
        errors.append(
            f"client received {acked} TASK_ACKs, RM answered "
            f"{s['decided_rm']} submissions"
        )
    if s["agg"]["malformed"]:
        errors.append(
            f"transport saw {s['agg']['malformed']} malformed datagrams"
        )
    if not recs:
        errors.append("no task was due in the window")
    return errors


def _quantile_ms(values: List[float], q: float) -> float:
    from repro.common.util import percentile

    return 1000.0 * percentile(values, q) if values else 0.0


def _result(s: Dict[str, Any]) -> Result:
    from repro.tasks.task import TaskOutcome

    recs = s["recs"]
    n = len(recs)
    done = [r for r in recs if r.done_at is not None]
    met = sum(
        1 for r in done if s["outcomes"][r.task_id] is TaskOutcome.MET_DEADLINE
    )
    failed_ops = sum(1 for r in recs if r.error is not None)
    rejected = sum(
        1 for r in recs
        if r.disposition is not None and r.disposition != "accepted"
    )
    task_lat = [r.done_at - r.due for r in done]
    ack_lat = [r.ack_at - r.due for r in recs if r.ack_at is not None]
    metrics = {
        "setup_s": statistics.median(s["setups"]),
        "run_s": s["run_s"],
        "events_per_s": s["events"] / s["run_s"],
        "peak_rss_mb": peak_rss_mb(),
        "goodput": met / n if n else 0.0,
        "cpu_ms_per_task": (
            1000.0 * s["cpu_s"] / len(done) if done else 0.0
        ),
        "task_p50_ms": _quantile_ms(task_lat, 50),
        "fail_ratio": (failed_ops + rejected) / n if n else 0.0,
        "task_p99_ms": _quantile_ms(task_lat, 99),
        "ack_p50_ms": _quantile_ms(ack_lat, 50),
    }
    result = Result(
        metrics=metrics, attempted=n, failed=failed_ops, errors=_check(s),
    )
    result.info["gen.lag_max_ms"] = 1000.0 * s["lag_max"]
    result.info["tasks"] = {
        "submitted": n, "completed": len(done), "rejected": rejected,
        "failed": failed_ops,
    }
    agg = s["agg"]
    result.layer_extras = {
        "gen.lag_max_ms": 1000.0 * s["lag_max"],
        "task_p99_ms": metrics["task_p99_ms"],
        "runtime.transport.retransmits": agg["retransmits"],
        "runtime.transport.duplicates": agg["duplicates"],
        "runtime.messages_per_task": agg["sent"] / n if n else 0.0,
        "runtime.loop.stall_max_ms": 1000.0 * max(s["stalls"], default=0.0),
        # The warm-up tasks of every set-up also pass admission.
        "tasks": n + SETUPS,
    }
    return result


def run_untraced(seed: int, seconds: float,
                 inject: Optional[str]) -> Result:
    return _result(asyncio.run(_session(seed, seconds, inject, False)))


def run_traced(seed: int, seconds: float, baseline: Dict[str, Any],
               tracer) -> Result:
    """The same session with every wrapper installed first.

    *baseline* is an untraced run of the same seed and window in
    another process; tracing overhead is the ratio of CPU per task.
    """
    from perfbench import tracing
    from perfbench.layers import GROUPS

    tracer.set_groups(GROUPS)
    tracing.install(tracer)
    s = asyncio.run(_session(seed, seconds, None, True))
    result = _result(s)
    result.layer_extras["traced_s"] = s["session_s"]
    result.layer_extras["trace.overhead"] = (
        result.metrics["cpu_ms_per_task"]
        / baseline["metrics"]["cpu_ms_per_task"]
    )
    return result
