"""Cross-cutting property-based tests (Hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimate import CompletionTimeEstimator
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.graphs import ResourceGraph, iter_paths
from repro.monitoring.profiler import LoadReport
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.core import Environment


# ---------------------------------------------------------------- graphs
@st.composite
def random_graph(draw):
    """A random digraph with a designated init/goal pair."""
    n = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    g = ResourceGraph()
    for i in range(n):
        g.add_state(i)
    for k in range(n_edges):
        a, b = rng.integers(n, size=2)
        if a == b:
            continue
        g.add_service(
            int(a), int(b), f"svc{k}", f"p{int(rng.integers(4))}",
            work=float(rng.uniform(1, 10)),
            out_bytes=float(rng.uniform(0, 1e5)),
        )
    return g, 0, n - 1


class TestSearchProperties:
    @given(random_graph())
    @settings(max_examples=80, deadline=None)
    def test_paths_are_connected_and_start_end_correctly(self, case):
        g, v_init, v_sol = case
        for policy in ("paper", "exhaustive"):
            for path, _ in iter_paths(g, v_init, v_sol, policy,
                                   max_expansions=3000):
                if not path:
                    assert v_init == v_sol
                    continue
                assert path[0].src == v_init
                assert path[-1].dst == v_sol
                for a, b in zip(path, path[1:]):
                    assert a.dst == b.src

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_paper_paths_subset_of_exhaustive(self, case):
        g, v_init, v_sol = case
        exhaustive = {
            tuple(e.edge_id for e in p)
            for p, _ in iter_paths(g, v_init, v_sol, "exhaustive",
                                max_expansions=5000)
        }
        for p, _ in iter_paths(g, v_init, v_sol, "paper",
                            max_expansions=5000):
            ids = tuple(e.edge_id for e in p)
            # Paper BFS paths may revisit no vertex except via parallel
            # goal edges, so each is a simple path found by exhaustive.
            assert ids in exhaustive

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_exhaustive_paths_unique(self, case):
        g, v_init, v_sol = case
        seen = set()
        for p, _ in iter_paths(g, v_init, v_sol, "exhaustive",
                            max_expansions=5000):
            ids = tuple(e.edge_id for e in p)
            assert ids not in seen
            seen.add(ids)


# ---------------------------------------------------------------- estimator
def small_domain(loads):
    env = Environment()
    net = Network(env, ConstantLatency(0.01), bandwidth=1e6)
    info = DomainInfoBase("d", "rm")
    for pid, load in loads.items():
        rec = PeerRecord(peer_id=pid, power=10.0, bandwidth=1e6)
        info.add_peer(rec)
        rec.last_report = LoadReport(
            peer_id=pid, time=0.0, power=10.0, utilization=load / 10.0,
            load=load, bw_used=0.0, queue_work=0.0, queue_length=0,
        )
        rec.reported_at = 0.0
    return info, net


class TestEstimatorProperties:
    @given(
        st.floats(min_value=0.0, max_value=9.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_service_time_monotone_in_load(self, load, work):
        info, _net = small_domain({"p0": load})
        edge = info.register_service_instance("a", "b", "s", "p0", work)
        est = CompletionTimeEstimator()
        base = est.service_time(info, edge, 0.0)
        info2, _ = small_domain({"p0": min(load + 1.0, 9.9)})
        edge2 = info2.register_service_instance("a", "b", "s", "p0", work)
        assert est.service_time(info2, edge2, 0.0) >= base

    @given(
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_estimate_scales_superlinearly_never_less_than_work(
        self, scale, work
    ):
        info, net = small_domain({"p0": 0.0})
        edge = info.register_service_instance("a", "b", "s", "p0", work)
        est = CompletionTimeEstimator()
        t1 = est.estimate_path(info, net, [edge], 0.0, "p0", "p0", 0.0)
        ts = est.estimate_path(
            info, net, [edge], 0.0, "p0", "p0", 0.0, work_scale=scale
        )
        assert ts == pytest.approx(t1 * scale)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40)
    def test_tighter_deadline_never_more_feasible(self, deadline):
        info, net = small_domain({"p0": 5.0})
        edge = info.register_service_instance("a", "b", "s", "p0", 20.0)
        est = CompletionTimeEstimator()
        loose = est.feasible(
            info, net, [edge], deadline * 2, 0.0, "p0", "p0", 0.0
        )
        tight = est.feasible(
            info, net, [edge], deadline, 0.0, "p0", "p0", 0.0
        )
        assert loose or not tight


# ---------------------------------------------------------------- kernel
class TestKernelProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_sorted_order(self, delays):
        env = Environment()
        fired = []
        for d in delays:
            ev = env.timeout(d, d)
            ev.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == sorted(delays)
        assert env.now == max(delays)

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_fifo_store_preserves_order(self, n, seed):
        from repro.sim import Store

        env = Environment()
        st_ = Store(env)
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0, 5, size=n)
        got = []

        def producer():
            for i, d in enumerate(delays):
                yield env.timeout(float(d))
                yield st_.put(i)

        def consumer():
            for _ in range(n):
                item = yield st_.get()
                got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == list(range(n))
