#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_placement --seed 7 \\
        --seconds 20 --trace 0

Workloads (see NOTES.md for why each is here):

* ``sim_placement``: 300 peers at 90 tasks/s, no churn (placement).
* ``sim_churn``: 1000 peers with churn (repair, joins, gossip).
* ``live_fig1``: the Fig-1 domain over localhost UDP, 80 tasks/s open
  loop (codec, UDP transport, clock pump).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the untraced workload in a child process, then
wraps every layer entry point, runs again and reports the per-layer
metrics, the tracing overhead and the spans (``.perfbench_out/``).

Every line but the last is a report for people; the last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim_placement", "sim_churn", "live_fig1")
INJECT = ("drop_task", "drop_completion", "drop_ack")
OUT_DIR = ".perfbench_out"
CHILD_HASH_SEED = "20051"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true",
                   help="reduced sizes (the smoke test)")
    p.add_argument("--inject", choices=INJECT,
                   help="break one output on purpose (the smoke test)")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    return args


def _child(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the untraced workload in a fresh process with another hash seed."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "0",
    ]
    if args.workload == "live_fig1":
        cmd += ["--seconds", str(args.seconds / 2)]
    else:
        cmd += ["--seconds", "0"]  # one repetition
    if args.small:
        cmd.append("--small")
    env = dict(os.environ, PYTHONHASHSEED=CHILD_HASH_SEED)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=150,
    )
    lines = proc.stdout.splitlines()
    info = next(
        (json.loads(ln[5:]) for ln in lines if ln.startswith("info ")), None
    )
    if proc.returncode != 0 or info is None:
        raise RuntimeError(
            f"untraced child failed ({proc.returncode}):\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return info


def run(args: argparse.Namespace):
    from perfbench import layers, live, sim
    from perfbench.tracing import GcWatch, Tracer

    is_sim = args.workload != "live_fig1"
    if not args.trace:
        watch = GcWatch()
        watch.start()
        if is_sim:
            result = sim.run_untraced(
                args.workload, args.seed, args.seconds, args.small,
                args.inject, watch,
            )
        else:
            result = live.run_untraced(args.seed, args.seconds, args.inject)
        result.info.update(watch.stop())
        return result, None
    baseline = _child(args)
    tracer = Tracer()
    if is_sim:
        result = sim.run_traced(
            args.workload, args.seed, args.small, baseline, tracer
        )
    else:
        result = live.run_traced(
            args.seed, args.seconds / 2, baseline, tracer
        )
    # Collector pauses come from the untraced child: the wrappers
    # allocate per call and would add collections of their own.
    for key in ("gc.pause_total_ms", "gc.gen2_max_ms"):
        result.layer_extras[key] = baseline[key]
    layer = layers.compute(tracer, result.layer_extras)
    for name in layers.self_check(args.workload, layer):
        result.errors.append(
            f"per-layer metric {name} is 0 on {args.workload}: its "
            f"wrapper never fired"
        )
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    path = os.path.join(
        ROOT, OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv"
    )
    tracer.dump(path)
    result.info["spans"] = os.path.relpath(path, ROOT)
    result.info["spans_recorded"] = tracer.n_spans
    return result, layer


def report(args, result, layer) -> Dict[str, Any]:
    from perfbench.layers import END_TO_END, PER_LAYER

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for name, spec in END_TO_END.items():
        if args.workload not in spec.workloads:
            continue
        tag = "" if spec.gated else "  (reported, not gated)"
        print(f"  {name:<16} {result.metrics[name]:>14.6g} {spec.unit}{tag}")
    if "reference_s" in result.info:
        refs = result.info["reference_s"]
        print(f"  host-speed dependent timings are scaled to the nominal "
              f"host (calibrate.py); reference passes "
              f"{min(refs):.4g}-{max(refs):.4g} s; as measured: "
              + ", ".join(f"{n} {v:.6g}"
                          for n, v in result.info["as_measured"].items()))
    if layer is not None:
        print("per layer:")
        for name, spec in PER_LAYER.items():
            print(f"  {name:<42} {layer[name]:>14.6g} {spec.unit}")
    for err in result.errors:
        print(f"CHECK FAILED: {err}")
    print("info " + json.dumps(
        dict(result.info, metrics=result.metrics), sort_keys=True
    ))
    if layer is None:
        chosen = {
            n: (result.metrics[n], s.unit)
            for n, s in END_TO_END.items() if s.gated
        }
    else:
        chosen = {n: (layer[n], s.unit) for n, s in PER_LAYER.items()}
    return {
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            n: {"value": float(v), "unit": u} for n, (v, u) in chosen.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    result, layer = run(args)
    out = report(args, result, layer)
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
