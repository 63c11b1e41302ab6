"""One-call wiring of profiler + overhead gauge + SLO monitor per runtime.

The CLIs (``repro-run --profile``, ``repro-live --profile``,
``repro-bench --profile``) and tests all want the same bundle:

* the right sampling driver for the runtime (event-count for sim,
  timer-thread for live), sampling at a fixed rate,
* one whole-run overhead gauge over every self-cost source in play,
* when a :class:`HealthSampler` is attached: a :class:`BurnRateMonitor`
  over the stock SLOs, evaluated on every sampler tick, and the
  flight-recorder cooldown-gauge refresh probe.

:func:`profile_sim` / :func:`profile_wall` build that bundle and return
a :class:`ProfileSession` that knows how to stop itself, publish
metrics, write the ``.folded`` artifact, and emit the ``profile`` JSONL
record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Optional

from repro.profiling.sampler import (
    DEFAULT_PERIOD,
    SimEventProfiler,
    WallStackProfiler,
)
from repro.profiling.slo import BurnRateMonitor


@dataclass
class ProfileSession:
    """Everything ``--profile`` attached to one run."""

    runtime: str  # "sim" | "wall"
    profiler: Any
    monitor: Optional[BurnRateMonitor] = None
    sampler: Any = None
    folded_path: Optional[str] = None
    #: Wall-clock start and (once stopped) end of the observed run.
    t_start: float = field(default_factory=perf_counter)
    t_stop: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------
    def stop(self) -> None:
        """Detach/stop the profiler (leaves aggregates readable)."""
        if self.runtime == "sim":
            self.profiler.detach()
        else:
            self.profiler.stop()
        self.t_stop = perf_counter()

    def write_folded(self, path: str) -> Optional[str]:
        """Write the flamegraph artifact; None when nothing sampled."""
        if self.profiler.agg.n_samples == 0:
            return None
        self.folded_path = self.profiler.agg.write_folded(path)
        return self.folded_path

    # -- the overhead gauge -------------------------------------------------
    def cost_s(self) -> float:
        """Cumulative observability self-cost in wall seconds.

        The wall profiler's cost includes its modelled GIL-handoff tax
        (``estimated_cost_s``).  The monitor probe runs inside
        ``sampler.sample()``, so its flight-recorder dump writes land in
        ``sample_cost_s``; they are backed out — the dump is the alert's
        deliverable, not observation overhead.
        """
        profiler = self.profiler
        cost = getattr(profiler, "estimated_cost_s", profiler.self_time_s)
        if self.sampler is not None:
            cost += self.sampler.sample_cost_s
        if self.monitor is not None:
            cost -= self.monitor.dump_cost_s
        return cost

    @property
    def overhead(self) -> float:
        """Whole-run self-cost over wall time."""
        end = self.t_stop if self.t_stop is not None else perf_counter()
        wall = end - self.t_start
        return self.cost_s() / wall if wall > 0 else 0.0

    def publish_overhead(self, metrics) -> None:
        metrics.gauge(
            "repro_prof_overhead_ratio",
            help="Whole-run observability self-cost / wall time.",
        ).set(round(self.overhead, 6))

    # -- exports ------------------------------------------------------------
    def publish(self, metrics, top_n: int = 5) -> None:
        self.profiler.agg.publish(metrics, top_n=top_n)
        self.publish_overhead(metrics)

    def record(self, top_n: int = 20) -> Dict[str, Any]:
        """The ``profile`` JSONL trace record (sans ``type``)."""
        rec: Dict[str, Any] = {"runtime": self.runtime}
        if self.runtime == "sim":
            rec["stride"] = self.profiler.stride
        else:
            rec["period"] = self.profiler.period
        rec.update(self.profiler.agg.record(top_n=top_n))
        rec["self_seconds"] = round(self.profiler.self_time_s, 6)
        if hasattr(self.profiler, "estimated_cost_s"):
            per = self.profiler.gil_cost_per_sample
            if per is not None:
                rec["gil_per_sample_s"] = round(per, 9)
            rec["gil_seconds"] = round(self.profiler.gil_cost_s, 6)
            rec["estimated_seconds"] = round(
                self.profiler.estimated_cost_s, 6
            )
        rec["overhead"] = round(self.overhead, 6)
        if self.monitor is not None:
            rec["slo"] = self.monitor.record()
        if self.folded_path:
            rec["folded_path"] = self.folded_path
        return rec

    def summary(self) -> Dict[str, Any]:
        """Small console/healthz summary."""
        agg = self.profiler.agg
        out = {
            "runtime": self.runtime,
            "samples": agg.n_samples,
            "unique_stacks": agg.unique_stacks,
            "overhead_ratio": round(self.overhead, 5),
        }
        if self.monitor is not None:
            out["slo_alerts"] = len(self.monitor.alerts)
        return out

    @property
    def alerts(self):
        return self.monitor.alerts if self.monitor is not None else []


def _session(runtime, profiler, tel, sampler, recorder) -> ProfileSession:
    """Bundle *profiler* with an SLO monitor when a sampler is given.

    Probe order matters: the signal probes already registered record
    this tick's points, then the monitor evaluates them, then the
    recorder refreshes its cooldown gauges.
    """
    monitor = None
    if sampler is not None:
        monitor = BurnRateMonitor(sampler, tel=tel, recorder=recorder)
        sampler.add_probe(monitor.as_probe())
        if recorder is not None:
            sampler.add_probe(lambda s: recorder.refresh_cooldowns(s.now))
    return ProfileSession(
        runtime=runtime, profiler=profiler, monitor=monitor,
        sampler=sampler,
    )


def profile_sim(env, tel=None, sampler=None, recorder=None) -> ProfileSession:
    """Attach the profiling bundle to a simulation environment.

    The profiler hook observes only and samples every 64 events, so
    with ``--profile`` the event trajectory — and every SLO alert over
    it — is identical to the same run without it.
    """
    profiler = SimEventProfiler(env)
    profiler.attach()
    return _session("sim", profiler, tel, sampler, recorder)


def profile_wall(
    tel=None,
    sampler=None,
    recorder=None,
    period: float = DEFAULT_PERIOD,
    start: bool = True,
) -> ProfileSession:
    """Attach the profiling bundle to the live (wall-clock) runtime.

    The profiler calibrates its per-wakeup GIL-handoff cost on start,
    and the overhead gauge meters that estimated total cost.
    """
    profiler = WallStackProfiler(period=period)
    sess = _session("wall", profiler, tel, sampler, recorder)
    if start:
        profiler.start()
    return sess
