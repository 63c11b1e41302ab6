"""Cyclic-garbage budget of a simulation run.

The kernel makes no reference cycle per event: a composite event
detaches from the component events that lost (``timeout | wake`` runs
on every CPU slice, an RPC waits on ``reply | deadline``).  A cycle
made per event or per task again would leave garbage proportional to
the run, which only the collector frees, in pauses; this budget catches
it.  Departed peers under churn leave a cycle each, so the run has no
churn.
"""

import gc

from repro.core.manager import RMConfig
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)


def test_run_leaves_almost_no_cyclic_garbage():
    scenario = build_scenario(ScenarioConfig(
        seed=7,
        population=PopulationConfig(n_peers=80, n_objects=40, replication=3),
        workload=WorkloadConfig(rate=24.0),
        rm=RMConfig(max_peers=16),
    ))
    env = scenario.env
    # The first seconds run with the collector on: lazy imports on first
    # use (numpy's median pulls in numpy.ma) leave one-off cycles.
    env.run(until=2.0)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = env.n_processed
        scenario.run(6.0, drain=4.0)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    events = env.n_processed - before
    assert events > 10_000
    assert unreachable < 0.01 * events, (unreachable, events)
