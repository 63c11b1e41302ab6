"""Smoke test of the benchmark itself, at reduced sizes.

Run from the repository root::

    python -m pytest perfbench -q

Takes about a minute: every workload runs untraced and traced.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("sim_placement", "sim_churn", "live_fig1")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, seed=3, inject=None, cwd=ROOT):
    seconds = "3" if workload == "live_fig1" else "2"
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", seconds,
        "--trace", str(trace), "--small",
    ]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out[workload, trace] = (proc.stdout, _result(proc))
    return out


def test_benchmark_json_matches_the_metric_tables():
    bench = _bench()
    gated = {n: s for n, s in END_TO_END.items() if s.gated}
    assert [m["name"] for m in bench["end_to_end"]] == list(gated)
    for m in bench["end_to_end"]:
        assert (m["unit"], m["better"]) == (
            gated[m["name"]].unit, gated[m["name"]].better)
        assert 0 < m["bound"] <= 0.25
    setup_bound = next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in bench["end_to_end"])
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    for m in bench["per_layer"]:
        spec = PER_LAYER[m["name"]]
        assert (m["unit"], m["better"]) == (spec.unit, spec.better)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, workload):
    bench = _bench()
    text, plain = runs[workload, 0]
    assert plain["correct"] and plain["attempted"] >= 1
    assert plain["failed"] == 0
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    got = {n: v["unit"] for n, v in plain["metrics"].items()}
    assert got == want
    for name, value in plain["metrics"].items():
        assert value["value"] > 0, name
    # The report lines name every end-to-end metric that applies, with
    # its unit, gated or not.
    for name, spec in END_TO_END.items():
        if workload in spec.workloads:
            line = next(
                ln for ln in text.splitlines()
                if ln.split()[:1] == [name]
            )
            assert line.split()[2] == spec.unit, line
    _, traced = runs[workload, 1]
    assert traced["correct"]
    want = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {n: v["unit"] for n, v in traced["metrics"].items()} == want


def test_layer_shares_confirm_the_workload_choice(runs):
    def share(workload, group):
        return runs[workload, 1][1]["metrics"][
            f"layers.{group}.share"]["value"]

    assert share("sim_placement", "placement") > share(
        "sim_churn", "placement")
    assert share("sim_churn", "membership") > share(
        "sim_placement", "membership")
    assert share("live_fig1", "runtime") > 0
    assert share("sim_placement", "runtime") == 0
    assert share("sim_churn", "runtime") == 0


def test_slicing_leaves_the_trajectory_alone():
    from perfbench import sim
    from perfbench.calibrate import Meter
    from repro.tasks.task import TaskOutcome

    w = sim.SMALL["sim_placement"]
    plain = sim.build(w, 5)
    plain.run(w.horizon, drain=w.drain)
    by_outcome = {o: 0 for o in TaskOutcome}
    n_open = 0
    for t in plain.metrics.tasks.values():
        if t.outcome is None:
            n_open += 1
        else:
            by_outcome[t.outcome] += 1
    rep = sim.run_rep(w, sim.build(w, 5), Meter())
    assert not rep.errors
    assert (rep.events, rep.messages, rep.generated, rep.met, rep.missed,
            rep.rejected, rep.failed, rep.open) == (
        plain.env.n_processed, plain.network.stats.sent,
        plain.workload.n_generated,
        by_outcome[TaskOutcome.MET_DEADLINE],
        by_outcome[TaskOutcome.MISSED_DEADLINE],
        by_outcome[TaskOutcome.REJECTED], by_outcome[TaskOutcome.FAILED],
        n_open,
    )


def test_held_out_seed_passes_on_live():
    proc = _run("live_fig1", 0, seed=1_000_003)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _result(proc)["correct"]


@pytest.mark.parametrize("workload,inject", [
    ("sim_placement", "drop_task"),
    ("live_fig1", "drop_completion"),
    ("live_fig1", "drop_ack"),
])
def test_injected_fault_fails_the_checks(workload, inject):
    proc = _run(workload, 0, inject=inject)
    assert proc.returncode == 1
    assert not _result(proc)["correct"]
    assert "CHECK FAILED" in proc.stdout


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sim_placement", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
