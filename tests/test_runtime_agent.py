"""The roster agent's §4.1 election, in process.

:class:`~repro.runtime.agent.RosterAgent` is the live runtime's only
membership endpoint: the single-process ``LiveCluster`` runs one, and
every shard of the sharded runtime runs one.  These tests drive a
single agent directly — with a few real :class:`LiveNode` s on
loopback, or with a stub node where the test needs to control exactly
when the RM assumes its role.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Tuple

import pytest

from repro import telemetry
from repro.core import protocol
from repro.net.message import Message
from repro.runtime.agent import RosterAgent
from repro.runtime.node import LiveNode, NodeSpec
from repro.runtime.transport import PeerDirectory
from repro.telemetry import Telemetry

pytestmark = pytest.mark.integration


def run(coro):
    return asyncio.run(coro)


async def boot(specs: List[NodeSpec]) -> Dict[str, Any]:
    """One agent + one LiveNode per spec, joined; every agent send is
    logged as (kind, dst, role, rm_ready at send time)."""
    directory = PeerDirectory()
    agent = RosterAgent("s0", directory, expected_nodes=len(specs))
    sent: List[Tuple[str, str, Any, bool]] = []
    send = agent.transport.send

    def logged_send(msg: Message) -> None:
        role = msg.payload.get("role") if msg.kind == protocol.JOIN_ACK \
            else None
        sent.append((msg.kind, msg.dst, role, agent.rm_ready))
        send(msg)

    agent.transport.send = logged_send  # type: ignore[method-assign]
    await agent.start()
    nodes = []
    for spec in specs:
        node = LiveNode(
            spec, directory, agent_id=agent.node_id, join_timeout=5.0
        )
        agent.register_local(node)
        nodes.append(node)
    try:
        await asyncio.gather(*(n.start() for n in nodes))
    finally:
        await asyncio.gather(*(n.stop() for n in nodes))
        await agent.close()
    return {
        "agent": agent, "sent": sent,
        "roles": {n.node_id: n.role for n in nodes},
    }


def fig_specs() -> List[NodeSpec]:
    return [
        NodeSpec("M0", power=50.0, bandwidth=1.0e7, uptime=1.0),
        NodeSpec("P1", power=10.0, bandwidth=1.25e6, uptime=0.9),
        NodeSpec("P2", power=10.0, bandwidth=1.25e6, uptime=0.9),
    ]


def test_no_peer_join_ack_leaves_before_rm_ready():
    out = run(boot(fig_specs()))
    assert out["roles"] == {"M0": "rm", "P1": "peer", "P2": "peer"}
    acks = [s for s in out["sent"] if s[0] == protocol.JOIN_ACK]
    # The winner's ack goes out before rm_ready (it must assume the
    # role first); every peer ack waits for it.
    assert [(dst, ready) for _, dst, role, ready in acks if role == "rm"] \
        == [("M0", False)]
    peer_acks = [s for s in acks if s[2] == "peer"]
    assert sorted(dst for _, dst, _, _ in peer_acks) == ["P1", "P2"]
    assert all(ready for *_, ready in peer_acks)
    # Member records reach the RM before any peer learns it joined.
    kinds = [(kind, dst) for kind, dst, _, _ in out["sent"]
             if kind != protocol.GOSSIP_SUMMARIES]
    first_peer_ack = kinds.index((protocol.JOIN_ACK, peer_acks[0][1]))
    forwards = [i for i, (kind, dst) in enumerate(kinds)
                if kind == protocol.JOIN_REQUEST and dst == "M0"]
    assert len(forwards) == 2
    assert max(forwards) < first_peer_ack


def test_most_affluent_wins_when_nobody_qualifies():
    # Every candidate misses the §4.1 bandwidth minimum (1e6).
    specs = [
        NodeSpec("A", power=4.0, bandwidth=2.0e5, uptime=0.5),
        NodeSpec("B", power=3.0, bandwidth=5.0e5, uptime=0.6),
        NodeSpec("C", power=9.0, bandwidth=1.0e5, uptime=0.9),
    ]
    out = run(boot(specs))
    # power * bandwidth * uptime: A 4.0e5, B 9.0e5, C 8.1e5.
    assert out["agent"].rm_id == "B"
    assert out["roles"] == {"A": "peer", "B": "rm", "C": "peer"}


def test_exactly_one_rm_elected_event():
    tel = telemetry.activate(Telemetry.wall())
    try:
        out = run(boot(fig_specs()))
    finally:
        telemetry.deactivate()
    elected = [ev for ev in tel.tracer.events if ev.name == "rm.elected"]
    assert len(elected) == 1
    assert elected[0].attrs["rm"] == out["agent"].rm_id == "M0"
    assert elected[0].attrs["members"] == 3


class _StubNode:
    """Just what the agent reads of a local LiveNode."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.assumed = asyncio.Event()


def _join(pid: str, power: float) -> Message:
    return Message(
        kind=protocol.JOIN_REQUEST, src=pid, dst="roster@s0",
        payload={
            "peer_id": pid, "host": "127.0.0.1", "port": 9,
            "power": power, "bandwidth": 1.0e7, "uptime": 1.0,
        },
    )


def test_rm_ready_follows_assumed_without_a_poll():
    async def main():
        agent = RosterAgent("s0", PeerDirectory(), expected_nodes=2)
        sent: List[Message] = []
        agent.transport.send = sent.append  # type: ignore[method-assign]
        await agent.start()
        rm = _StubNode("M0")
        agent.register_local(rm)
        try:
            agent._handle(_join("M0", power=50.0))
            agent._handle(_join("P1", power=10.0))
            assert agent.rm_id == "M0" and not agent.rm_ready
            # A join between the election and rm_ready is deferred too.
            agent._handle(_join("P2", power=10.0))
            # However long the RM takes to assume, the agent waits.
            for _ in range(5):
                await asyncio.sleep(0)
            assert not agent.rm_ready
            assert [m.dst for m in sent if m.kind == protocol.JOIN_ACK] \
                == ["M0"]
            rm.assumed.set()
            # Two loop turns (the event wake-up, then the waiter): far
            # below any sleep-poll period.
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert agent.rm_ready
            assert [m.dst for m in sent if m.kind == protocol.JOIN_ACK] \
                == ["M0", "P1", "P2"]
        finally:
            await agent.close()
    run(main())
