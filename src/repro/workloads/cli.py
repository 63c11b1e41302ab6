"""``repro-run``: run one scenario from a JSON config file.

::

    repro-run scenario.json --duration 300
    repro-run scenario.json --duration 300 --record-trace run.csv
    repro-run --print-default-config > scenario.json
"""

from __future__ import annotations

import argparse
import os

from repro import telemetry
from repro.common.util import fmt_table
from repro.reporting.ascii import sparkline
from repro.workloads.configio import config_to_json, load_config
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.workloads.trace import TraceRecorder, save_trace


def _run_scenario(args) -> int:
    """The ``--scenario`` path: run one stress-scenario DSL file."""
    import json

    from repro.scenarios import build_stressed_scenario, load_spec

    spec = load_spec(args.scenario)
    if args.seed is not None:
        spec.base.seed = args.seed
    if args.policy is not None:
        spec.base.allocation_policy = args.policy
        spec.base.rm.placement_policy = args.policy
    if args.defense:
        spec.base.rm.enable_defense = True

    out_dir = (
        os.path.dirname(args.metrics_out) if args.metrics_out else "."
    ) or "."
    stressed = build_stressed_scenario(spec, out_dir=out_dir)
    if args.profile:
        stressed.attach_profiling(out_dir=out_dir)
    scenario = stressed.scenario
    print(
        f"scenario {spec.name!r}: {scenario.overlay.n_peers} peers / "
        f"{scenario.overlay.n_domains} domains; seed={spec.base.seed}; "
        f"stressors: arrivals={spec.arrivals.shape if spec.arrivals else '-'}"
        f" cost={spec.cost.dist if spec.cost else '-'}"
        f" faults={len(spec.faults)}"
        f" liars={len(stressed.liars)}"
    )
    summary = stressed.run()
    doc = stressed.metrics_document()

    rows = [[k, v if not isinstance(v, float) else f"{v:.3f}"]
            for k, v in summary.row().items()]
    rows.append(["partition_drops", doc["partition_drops"]])
    print(fmt_table(["metric", "value"], rows))
    if stressed.faults is not None:
        for t, kind, detail in stressed.faults.log:
            print(f"  fault t={t:.1f}s {kind}: {detail}")
    if stressed.recorder is not None:
        for path in stressed.recorder.dumps:
            print(f"flight-recorder bundle -> {path}")
    if stressed.profile is not None:
        sess = stressed.profile
        folded = args.profile_folded or os.path.join(
            out_dir, f"profile-{spec.name}.folded"
        )
        path = sess.write_folded(folded)
        info = sess.summary()
        print(
            f"profiler: {info['samples']} samples / "
            f"{info['unique_stacks']} stacks; overhead "
            f"{info['overhead_ratio']:.2%}"
            + (f" -> {path}" if path else "")
        )
        for alert in sess.alerts:
            print(
                f"SLO ALERT: {alert.slo} burning {alert.burn:.1f}x "
                f"({alert.window} window, t={alert.time:.1f}s)"
                + (f" -> {alert.dump}" if alert.dump else "")
            )
    if len(scenario.metrics.fairness_series):
        _, values = scenario.metrics.fairness_series.as_arrays()
        print(f"fairness over time: {sparkline(values, width=60)}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=2)
            fp.write("\n")
        print(f"scenario metrics -> {args.metrics_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Run one peer-to-peer middleware scenario.",
        epilog=(
            "To run the same protocol over real localhost UDP sockets "
            "instead of the simulator, see repro-live."
        ),
    )
    parser.add_argument(
        "config", nargs="?", help="scenario config JSON file"
    )
    parser.add_argument(
        "--scenario", metavar="FILE",
        help="run a stress-scenario DSL file (.json/.toml) instead of a "
        "plain config: shaped arrivals, fault scripts, misbehaving "
        "peers, auto-attached health sampling (see docs/scenarios.md)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="with --scenario: write the schema-versioned per-scenario "
        "metrics JSON here",
    )
    parser.add_argument(
        "--duration", type=float, default=300.0,
        help="simulated seconds of workload (default 300)",
    )
    parser.add_argument(
        "--drain", type=float, default=60.0,
        help="extra simulated seconds for in-flight tasks (default 60)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    parser.add_argument(
        "--policy", default=None,
        choices=(
            "paper", "fairness", "first", "random", "least_loaded",
            "round_robin",
        ),
        help="override the placement policy (default: the config's "
        "allocation_policy / rm.placement_policy)",
    )
    parser.add_argument(
        "--defense", action="store_true",
        help="reputation-gated load reports (rm.enable_defense): the RM "
        "cross-checks each peer's claims against observed evidence, "
        "discounts divergent peers in placement and quarantines chronic "
        "liars (see docs/scenarios.md)",
    )
    parser.add_argument(
        "--record-trace", metavar="FILE",
        help="record generated requests to a CSV trace",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record a telemetry trace (spans/events/metrics) to a JSONL "
        "file; analyse it with repro-trace",
    )
    parser.add_argument(
        "--sample", metavar="PERIOD", nargs="?", const=1.0, type=float,
        default=None,
        help="with --trace: sample health series every PERIOD simulated "
        "seconds (default 1.0) and attach them to the trace; view with "
        "repro-dash.  Also arms the flight recorder (anomaly bundles "
        "land next to the trace file).",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attach the in-process sampling profiler (every 64 "
        "events) and, when health series are sampled, SLO burn-rate "
        "alerting; writes a flame-ready .folded file.  Observation "
        "only: the event trajectory is unchanged.",
    )
    parser.add_argument(
        "--profile-folded", metavar="FILE", default=None,
        help="where to write the folded stacks (default: profile.folded "
        "next to the trace / metrics output)",
    )
    parser.add_argument(
        "--print-default-config", action="store_true",
        help="emit the default ScenarioConfig as JSON and exit",
    )
    args = parser.parse_args(argv)
    if args.sample is not None and not args.trace:
        parser.error("--sample requires --trace")
    if args.profile_folded and not args.profile:
        parser.error("--profile-folded requires --profile")

    if args.print_default_config:
        print(config_to_json(ScenarioConfig()))
        return 0
    if args.scenario:
        if args.config:
            parser.error("--scenario replaces the plain config argument")
        return _run_scenario(args)
    if args.metrics_out:
        parser.error("--metrics-out requires --scenario")
    if not args.config:
        parser.error("a config file is required (or --print-default-config "
                     "/ --scenario)")

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.policy is not None:
        cfg.allocation_policy = args.policy
        cfg.rm.placement_policy = args.policy
    if args.defense:
        cfg.rm.enable_defense = True
    scenario = build_scenario(cfg)
    recorder = None
    if args.record_trace:
        recorder = TraceRecorder()
        scenario.workload.on_generate = recorder.record

    print(
        f"overlay: {scenario.overlay.n_peers} peers / "
        f"{scenario.overlay.n_domains} domains; "
        f"policy={cfg.allocation_policy}; seed={cfg.seed}"
    )
    tel = None
    sampler = None
    recorder_fr = None
    if args.trace:
        tel = telemetry.activate(telemetry.Telemetry.sim(scenario.env))
        if args.sample is not None:
            from repro.telemetry.flight_recorder import FlightRecorder
            from repro.telemetry.timeseries import (
                HealthSampler, overlay_probes,
            )

            sampler = HealthSampler(tel, period=args.sample)
            for probe in overlay_probes(scenario.overlay, scenario.network):
                sampler.add_probe(probe)
            sampler.attach_sim(scenario.env)
            recorder_fr = FlightRecorder(
                tel,
                out_dir=os.path.dirname(args.trace) or ".",
                sampler=sampler,
            )
    profile_sess = None
    if args.profile:
        from repro.profiling import profile_sim

        profile_sess = profile_sim(
            scenario.env, tel=tel, sampler=sampler, recorder=recorder_fr,
        )
    try:
        summary = scenario.run(duration=args.duration, drain=args.drain)
    finally:
        if profile_sess is not None:
            profile_sess.stop()
            if tel is not None:
                profile_sess.publish(tel.metrics)
            folded = args.profile_folded or os.path.join(
                os.path.dirname(args.trace) if args.trace else ".",
                "profile.folded",
            )
            path = profile_sess.write_folded(folded)
            info = profile_sess.summary()
            print(
                f"profiler: {info['samples']} samples / "
                f"{info['unique_stacks']} stacks; overhead "
                f"{info['overhead_ratio']:.2%}"
                + (f" -> {path}" if path else "")
            )
            for alert in profile_sess.alerts:
                print(
                    f"SLO ALERT: {alert.slo} burning {alert.burn:.1f}x "
                    f"({alert.window} window, t={alert.time:.1f}s)"
                    + (f" -> {alert.dump}" if alert.dump else "")
                )
        if tel is not None:
            tel.tracer.finish_open()
            telemetry.export.write_jsonl(
                args.trace, tel.tracer, tel.metrics,
                meta={
                    "runtime": "sim",
                    "seed": cfg.seed,
                    "aggregate": scenario.network.stats.summary(),
                },
                sampler=sampler,
                profile=(
                    profile_sess.record() if profile_sess else None
                ),
            )
            if recorder_fr is not None:
                recorder_fr.close()
                for path in recorder_fr.dumps:
                    print(f"flight-recorder bundle -> {path}")
            telemetry.deactivate()
            print(f"telemetry trace -> {args.trace}")

    rows = [[k, v if not isinstance(v, float) else f"{v:.3f}"]
            for k, v in summary.row().items()]
    print(fmt_table(["metric", "value"], rows))
    if len(scenario.metrics.fairness_series):
        _, values = scenario.metrics.fairness_series.as_arrays()
        print(f"fairness over time: {sparkline(values, width=60)}")

    if recorder is not None:
        with open(args.record_trace, "w", encoding="utf-8") as fp:
            save_trace(recorder.entries, fp)
        print(f"trace: {len(recorder.entries)} requests -> "
              f"{args.record_trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
