"""End-to-end: a live domain over localhost UDP completes a media task.

The acceptance scenario for the live runtime: a
:class:`~repro.runtime.cluster.LiveCluster` of one roster agent, one
elected RM and four peers — real sockets, wall-clock event kernels —
admits and completes a Figure-1 transcoding task through the full
``TASK_REQUEST -> TASK_ACK -> COMPOSE -> START_STREAM -> STREAM ->
STEP_DONE -> TASK_DONE`` chain, using the *same* protocol handler code
paths as the simulator (asserted by handler-identity below — there is
no second dispatch table).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import protocol
from repro.core.manager import ResourceManager
from repro.core.peer import Peer
from repro.net.network import ConstantLatency, Network
from repro.runtime.cluster import (
    PROFILER_UPDATE_PERIOD,
    LiveCluster,
    LiveClusterConfig,
)
from repro.runtime.node import NodeSpec
from repro.sim.core import Environment

pytestmark = pytest.mark.integration


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def live_run():
    """One shared live run: boot, stream a task, late-join, leave."""
    async def main():
        out = {}
        config = LiveClusterConfig(object_duration_s=3.0)
        async with LiveCluster(config) as cluster:
            rm = cluster.rm_node
            out["rm_id"] = rm.node_id
            out["peer_ids"] = sorted(n.node_id for n in cluster.peers())
            out["rm_handlers"] = dict(rm.node._handlers)
            out["peer_handlers"] = {
                n.node_id: dict(n.node._handlers) for n in cluster.peers()
            }
            out["rm_obj"] = rm.node
            out["peer_objs"] = {n.node_id: n.node for n in cluster.peers()}

            ack = await cluster.submit("P4", deadline=20.0, timeout=15.0)
            out["ack"] = ack
            await cluster.wait_task_event(
                ack["task_id"], "completed", timeout=15.0
            )
            task = cluster.task(ack["task_id"])
            out["task_state"] = task.state.name
            out["allocation"] = list(task.allocation)
            out["events"] = [
                ev for _, tid, ev in cluster.task_events
                if tid == ack["task_id"]
            ]

            # Late join through the agent -> RM forwarding path.
            await cluster.add_peer(NodeSpec(node_id="P9", power=8.0))
            await asyncio.sleep(0.1)
            out["p9_admitted"] = rm.node.info.has_peer("P9")

            # Graceful departure prunes the roster via PEER_LEAVE.
            await cluster.remove_peer("P9")
            await asyncio.sleep(0.1)
            out["p9_after_leave"] = rm.node.info.has_peer("P9")

            # Idle past one profiler period so at least one wall-clock
            # LOAD_UPDATE heartbeat crosses the wire.
            await asyncio.sleep(PROFILER_UPDATE_PERIOD + 0.3)
            out["aggregate"] = cluster.aggregate_summary()
            out["summaries"] = cluster.summaries()
        return out
    return run(main())


def test_election_yields_one_rm_and_four_peers(live_run):
    # M0 is provisioned to win the §4.1 qualification ranking.
    assert live_run["rm_id"] == "M0"
    assert live_run["peer_ids"] == ["P1", "P2", "P3", "P4"]
    assert isinstance(live_run["rm_obj"], ResourceManager)
    assert all(isinstance(p, Peer) for p in live_run["peer_objs"].values())


def test_task_completes_end_to_end_over_udp(live_run):
    assert live_run["ack"]["disposition"] == "accepted"
    assert live_run["task_state"] == "DONE"
    assert live_run["events"] == ["submitted", "admitted", "completed"]
    # The paper's Figure-1 chain: transcode at P1 then P2/P3.
    services = [s for s, _ in live_run["allocation"]]
    assert services[0] == "T-e1"
    assert len(services) >= 2


def test_full_message_chain_crossed_the_wire(live_run):
    kinds = live_run["aggregate"]["by_kind"]
    for kind in (
        protocol.JOIN_REQUEST, protocol.JOIN_ACK, protocol.TASK_REQUEST,
        protocol.TASK_ACK, protocol.COMPOSE, protocol.START_STREAM,
        protocol.STREAM, protocol.STEP_DONE, protocol.TASK_DONE,
    ):
        assert kinds.get(kind, 0) >= 1, f"no {kind} observed on the wire"
    # Heartbeats flowed on the wall-clock timer path.
    assert kinds.get(protocol.LOAD_UPDATE, 0) >= 1
    # Reliable delivery: nothing dropped on loopback UDP.
    assert live_run["aggregate"]["dropped"] == 0


def test_live_handlers_are_the_simulator_handlers(live_run):
    """No forked protocol logic: the live dispatch tables are the very
    same bound methods a simulator-constructed Peer/RM registers."""
    env = Environment()
    net = Network(env, ConstantLatency(0.01))
    sim_rm = ResourceManager(env, net, "sim_rm", "dsim")
    sim_peer = Peer(env, net, "sim_p", rm_id="sim_rm")

    def table(handlers):
        return {
            kind: getattr(fn, "__func__", fn)
            for kind, fn in handlers.items()
        }

    sim_rm_table = table(sim_rm._handlers)
    live_rm_table = table(live_run["rm_handlers"])
    # Every simulator RM handler appears unchanged in the live RM.
    for kind, fn in sim_rm_table.items():
        assert live_rm_table[kind] is fn, f"forked RM handler for {kind}"
    # The only live-side addition is membership wiring (JOIN_REQUEST
    # forwarded by the roster agent) — not a protocol fork.
    assert set(live_rm_table) - set(sim_rm_table) == {protocol.JOIN_REQUEST}

    sim_peer_table = table(sim_peer._handlers)
    for peer_id, handlers in live_run["peer_handlers"].items():
        live_table = table(handlers)
        assert live_table == {
            kind: fn for kind, fn in sim_peer_table.items()
        }, f"peer {peer_id} dispatch table diverged from the simulator"


def test_membership_churn_over_the_wire(live_run):
    assert live_run["p9_admitted"] is True
    assert live_run["p9_after_leave"] is False


def test_per_node_summaries_share_the_stats_shape(live_run):
    for node_id, summary in live_run["summaries"].items():
        assert {"sent", "delivered", "dropped", "by_kind",
                "retransmits", "duplicates", "malformed",
                "acks_sent"} <= set(summary), node_id


# -- watcher bookkeeping (no sockets) ---------------------------------------

class _StubTask:
    def __init__(self, task_id):
        self.task_id = task_id
        self.finished_at = 1.0


def test_task_event_watchers_do_not_accumulate():
    """Regression: the cluster used to keep one Event per (task, event)
    forever — a week-long soak's watcher map grew without bound.  Fired
    watchers leave the map immediately; waiters hold their own ref."""
    async def main():
        cluster = LiveCluster(LiveClusterConfig(n_peers=1))
        waiter = asyncio.ensure_future(
            cluster.wait_task_event("t1", "completed", timeout=5.0)
        )
        await asyncio.sleep(0)  # let the waiter register
        assert ("t1", "completed") in cluster._watchers
        cluster._on_task_event(_StubTask("t1"), "completed")
        await waiter
        assert cluster._watchers == {}
        # Events nobody waits for never create watcher entries at all.
        for i in range(50):
            cluster._on_task_event(_StubTask(f"bulk{i}"), "completed")
        assert cluster._watchers == {}
    run(main())


def test_task_event_wait_timeout_removes_watcher():
    """A timed-out wait must not strand its Event in the map."""
    async def main():
        cluster = LiveCluster(LiveClusterConfig(n_peers=1))
        with pytest.raises(asyncio.TimeoutError):
            await cluster.wait_task_event("ghost", "completed", timeout=0.01)
        assert cluster._watchers == {}
    run(main())


def test_fired_event_history_is_bounded():
    """The fired-key LRU stays at capacity under a long event stream;
    recent events remain answerable without a watcher."""
    async def main():
        cluster = LiveCluster(LiveClusterConfig(n_peers=1))
        cap = cluster._fired_capacity
        for i in range(cap + 500):
            cluster._on_task_event(_StubTask(f"t{i}"), "completed")
        assert len(cluster._fired) == cap
        # The newest event answers instantly from the fired set.
        await cluster.wait_task_event(
            f"t{cap + 499}", "completed", timeout=0.01
        )
        # The oldest was evicted: waiting on it now times out.
        with pytest.raises(asyncio.TimeoutError):
            await cluster.wait_task_event("t0", "completed", timeout=0.01)
    run(main())
