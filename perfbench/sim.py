"""The simulator workloads, driven through ``build_scenario`` / ``Scenario.run``.

Each run executes a fixed number of repetitions, each a whole scenario
(horizon plus drain) on its own seed derived from ``--seed``; outcome
metrics pool the repetitions and timings take their median, so one
seed's trajectory or one slow repetition does not decide a run.

Timings are scaled by reference passes (:mod:`perfbench.calibrate`):
each build whole, each ``Scenario.run`` call in pieces of ``SLICE_S``
simulated seconds.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from perfbench.calibrate import Meter
from perfbench.result import Result, peak_rss_mb

SETUP_BUILDS = 5
SLICE_S = 4.0


@dataclass(frozen=True)
class SimWorkload:
    n_peers: int
    rate_per_peer: float
    #: (mean_lifetime, mean_offtime) seconds, or None for no churn.
    churn: Optional[Tuple[float, float]]
    horizon: float
    drain: float
    #: Nominal host seconds of one repetition; with ``--seconds`` it
    #: fixes the repetition count, so the inputs never depend on speed.
    rep_s: float


WORKLOADS: Dict[str, SimWorkload] = {
    # Placement-heavy: admission, PlacementEngine.place and the Fig-3 BFS
    # do most of the work; repair, gossip and monitoring ~1% each.
    "sim_placement": SimWorkload(300, 0.3, None, 30.0, 10.0, 5.5),
    # Membership-heavy: churn drives repair, overlay joins, gossip and
    # monitoring, and invalidates every membership-keyed cache.
    "sim_churn": SimWorkload(1000, 0.02, (40.0, 10.0), 60.0, 20.0, 11.0),
}

#: Reduced sizes for the smoke test; still exercise every layer.
SMALL: Dict[str, SimWorkload] = {
    "sim_placement": SimWorkload(80, 0.3, None, 8.0, 4.0, 1.0),
    "sim_churn": SimWorkload(300, 0.02, (20.0, 5.0), 20.0, 8.0, 1.0),
}


def sub_seed(seed: int, rep: int) -> int:
    return seed + 100_003 * rep


def make_config(w: SimWorkload, seed: int):
    from repro.core.manager import RMConfig
    from repro.overlay import ChurnConfig
    from repro.workloads import (
        PopulationConfig, ScenarioConfig, WorkloadConfig,
    )

    return ScenarioConfig(
        seed=seed,
        population=PopulationConfig(
            n_peers=w.n_peers,
            n_objects=max(6, w.n_peers // 2),
            replication=3,
        ),
        workload=WorkloadConfig(rate=w.rate_per_peer * w.n_peers),
        rm=RMConfig(max_peers=16),
        churn=(
            ChurnConfig(mean_lifetime=w.churn[0], mean_offtime=w.churn[1])
            if w.churn else None
        ),
    )


def build(w: SimWorkload, seed: int):
    # Looked up at call time so a traced run goes through the wrapper.
    from repro.workloads import scenario as scenario_mod

    return scenario_mod.build_scenario(make_config(w, seed))


@dataclass
class Rep:
    """Outcome of one scenario run; times are scaled to the nominal host."""

    run_s: float
    cpu_s: float
    wall_s: float  # as measured
    events: int
    messages: int
    generated: int
    lost: int
    met: int
    missed: int
    rejected: int
    failed: int
    open: int
    repaired: int
    responses: List[float]
    fairness: float
    errors: List[str]

    @property
    def fingerprint(self) -> Tuple[int, ...]:
        return (
            self.events, self.messages, self.generated, self.lost,
            self.met, self.missed, self.rejected, self.failed, self.open,
        )


class _Slicer:
    """A process on the scenario's kernel that closes a :class:`Meter`
    piece every ``SLICE_S`` simulated seconds.

    A reference pass a few seconds from most of a run says little about
    the host's speed during it, so the run is scaled piece by piece.
    The process schedules only its own timeouts and touches no program
    state, so ``Scenario.run`` follows the program's own trajectory (the
    smoke test compares it with a run without the process).
    """

    def __init__(self, env, meter: Meter) -> None:
        self.events = 1  # the process's start
        env.process(self._run(env, meter))

    def _run(self, env, meter: Meter):
        while True:
            yield env.timeout(SLICE_S)
            self.events += 1
            meter.mark()


def run_rep(w: SimWorkload, scenario, meter: Meter,
            inject: Optional[str] = None, span=None) -> Rep:
    """Run one built scenario to horizon plus drain and check it.

    The ``Scenario.run`` call is timed in pieces (see :class:`_Slicer`);
    a traced run wraps it in *span*.
    """
    from repro.tasks.task import TaskOutcome

    slicer = _Slicer(scenario.env, meter)
    meter.start()
    with span or contextlib.nullcontext():
        summary = scenario.run(w.horizon, drain=w.drain)
    run_s, cpu_s, wall_s = meter.stop()

    metrics = scenario.metrics
    tasks = metrics.tasks
    if inject == "drop_task" and tasks:
        tasks.pop(next(iter(tasks)))
    by_outcome = {o: 0 for o in TaskOutcome}
    n_open = 0
    responses = []
    for t in tasks.values():
        if t.outcome is None:
            n_open += 1
            continue
        by_outcome[t.outcome] += 1
        if t.outcome in (TaskOutcome.MET_DEADLINE,
                         TaskOutcome.MISSED_DEADLINE):
            responses.append(t.response_time)
    submitted = metrics.counts.get("submitted", 0)
    workload = scenario.workload
    generated = workload.n_generated
    lost = generated - submitted
    errors = []
    terminal = sum(by_outcome.values()) + n_open
    if terminal != submitted:
        errors.append(
            f"task conservation: {submitted} reached an RM but "
            f"met+missed+rejected+failed+open = {terminal}"
        )
    if not 0 <= lost <= workload.n_submit_failures:
        errors.append(
            f"task conservation: {generated} generated, {submitted} "
            f"reached an RM, only {workload.n_submit_failures} submit "
            f"failures"
        )
    if generated == 0:
        errors.append("no task was generated")
    return Rep(
        run_s=run_s,
        cpu_s=cpu_s,
        wall_s=wall_s,
        events=scenario.env.n_processed - slicer.events,
        messages=scenario.network.stats.sent,
        generated=generated,
        lost=lost,
        met=by_outcome[TaskOutcome.MET_DEADLINE],
        missed=by_outcome[TaskOutcome.MISSED_DEADLINE],
        rejected=by_outcome[TaskOutcome.REJECTED],
        failed=by_outcome[TaskOutcome.FAILED],
        open=n_open,
        repaired=metrics.counts.get("repaired", 0),
        responses=responses,
        fairness=summary.mean_fairness,
        errors=errors,
    )


def _percentile(values: List[float], q: float) -> float:
    from repro.common.util import percentile

    return percentile(values, q) if values else 0.0


def end_to_end(reps: List[Rep], setup_s: float) -> Dict[str, float]:
    generated = sum(r.generated for r in reps)
    responses = [x for r in reps for x in r.responses]
    terminal = sum(r.met + r.missed + r.failed for r in reps)
    p50 = _percentile(responses, 50)
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(r.run_s for r in reps),
        "events_per_s": statistics.median(r.events / r.run_s for r in reps),
        "peak_rss_mb": peak_rss_mb(),
        "goodput": sum(r.met for r in reps) / generated,
        "cpu_ms_per_task": 1000.0 * sum(r.cpu_s for r in reps) / generated,
        "task_p50_ms": 1000.0 * p50,
        "fail_ratio": sum(
            r.rejected + r.failed + r.open + r.lost for r in reps
        ) / generated,
        "miss_ratio": (
            sum(r.missed + r.failed for r in reps) / terminal
            if terminal else 0.0
        ),
        "fairness_mean": statistics.fmean(r.fairness for r in reps),
        "response_p50_s": p50,
        "response_p95_s": _percentile(responses, 95),
    }


def n_reps(w: SimWorkload, seconds: float) -> int:
    return max(1, round(seconds / w.rep_s))


def run_untraced(name: str, seed: int, seconds: float, small: bool,
                 inject: Optional[str], gc_watch) -> Result:
    w = (SMALL if small else WORKLOADS)[name]
    k = n_reps(w, seconds)
    meter = Meter()
    setups = []
    for _ in range(SETUP_BUILDS):
        _, scaled, _, _ = meter.time(lambda: build(w, sub_seed(seed, 0)))
        setups.append(scaled)
        gc_watch.collect()
    done: List[Rep] = []
    for rep in range(k):
        scenario = build(w, sub_seed(seed, rep))
        gc_watch.collect()
        done.append(run_rep(w, scenario, meter, inject=inject))
        del scenario
        gc_watch.collect()
    result = Result(
        metrics=end_to_end(done, statistics.median(setups)),
        attempted=sum(r.generated for r in done),
        failed=sum(r.lost for r in done),
        errors=[e for r in done for e in r.errors],
    )
    result.info.update(
        reps=k,
        fingerprints=[list(r.fingerprint) for r in done],
        as_measured={"run_s": statistics.median(r.wall_s for r in done)},
        reference_s=meter.references,
    )
    return result


def run_traced(name: str, seed: int, small: bool, baseline: Dict[str, Any],
               tracer) -> Result:
    """One traced repetition of sub-seed 0, checked against *baseline*.

    *baseline* is the untraced run of the same repetition in another
    process: its fingerprint must match exactly, and its ``run_s`` is
    the denominator of the tracing overhead.
    """
    from perfbench import tracing
    from perfbench.layers import GROUPS

    w = (SMALL if small else WORKLOADS)[name]
    meter = Meter(around=lambda: tracer.span("perfbench.reference"))
    tracer.set_groups(GROUPS)
    tracing.install(tracer)
    scenario, setup_s, _, wall = meter.time(
        lambda: build(w, sub_seed(seed, 0)))
    rep = run_rep(w, scenario, meter, span=tracer.span("sim.run"))
    missed_jobs = sum(
        p.processor.n_missed for p in scenario.overlay.peers.values()
    )
    errors = list(rep.errors)
    want = baseline["fingerprints"][0]
    if list(rep.fingerprint) != want:
        errors.append(
            f"traced fingerprint {list(rep.fingerprint)} != untraced "
            f"{want} from another process"
        )
    result = Result(
        metrics=end_to_end([rep], setup_s),
        attempted=rep.generated,
        failed=rep.lost,
        errors=errors,
    )
    result.info.update(
        fingerprints=[list(rep.fingerprint)],
        as_measured={"run_s": rep.wall_s},
        reference_s=meter.references,
    )
    result.layer_extras = {
        "sim.events": rep.events,
        "tasks": rep.generated - rep.lost,
        "repaired": rep.repaired,
        "scheduling.processor.missed": missed_jobs,
        "traced_s": wall + rep.wall_s,
        "trace.overhead": rep.run_s / baseline["metrics"]["run_s"],
    }
    return result
