"""Resource graph, service graph, and path search."""

import pytest

from repro.graphs import (
    PathSearch,
    ResourceGraph,
    ServiceGraph,
    iter_paths,
)
from repro.graphs.resource_graph import ServiceEdge


def diamond() -> ResourceGraph:
    """s -> (a | b) -> t with an extra a->b cross edge."""
    g = ResourceGraph()
    g.add_service("s", "a", "sv1", "p1", 1.0, edge_id="sa")
    g.add_service("s", "b", "sv2", "p2", 1.0, edge_id="sb")
    g.add_service("a", "t", "sv3", "p3", 1.0, edge_id="at")
    g.add_service("b", "t", "sv4", "p4", 1.0, edge_id="bt")
    g.add_service("a", "b", "sv5", "p5", 1.0, edge_id="ab")
    return g


class TestResourceGraph:
    def test_add_state_idempotent(self):
        g = ResourceGraph()
        g.add_state("x")
        g.add_state("x")
        assert g.states == ["x"] and g.n_states == 1

    def test_add_service_creates_endpoints(self):
        g = ResourceGraph()
        e = g.add_service("u", "v", "svc", "p", 2.0, 100.0)
        assert g.has_state("u") and g.has_state("v")
        assert g.out_edges("u") == [e] and g.in_edges("v") == [e]

    def test_parallel_edges_allowed(self):
        g = ResourceGraph()
        g.add_service("u", "v", "svc1", "p1", 1.0)
        g.add_service("u", "v", "svc2", "p2", 1.0)
        assert len(g.out_edges("u")) == 2

    def test_duplicate_edge_id_rejected(self):
        g = ResourceGraph()
        g.add_service("u", "v", "s", "p", 1.0, edge_id="e1")
        with pytest.raises(ValueError):
            g.add_service("u", "v", "s", "p", 1.0, edge_id="e1")

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            ServiceEdge("u", "v", "s", "p", work=-1.0)

    def test_remove_edge(self):
        g = diamond()
        g.remove_edge("ab")
        assert not g.has_edge("ab")
        assert all(e.edge_id != "ab" for e in g.out_edges("a"))
        g.remove_edge("ghost")  # idempotent

    def test_remove_peer_prunes_all_its_edges(self):
        g = ResourceGraph()
        g.add_service("u", "v", "s1", "pX", 1.0)
        g.add_service("v", "w", "s2", "pX", 1.0)
        g.add_service("u", "w", "s3", "pY", 1.0)
        removed = g.remove_peer("pX")
        assert len(removed) == 2
        assert g.n_edges == 1 and g.peers() == ["pY"]

    def test_edges_at_peer(self):
        g = diamond()
        assert [e.edge_id for e in g.edges_at_peer("p1")] == ["sa"]

    def test_copy_is_independent(self):
        g = diamond()
        dup = g.copy()
        dup.remove_peer("p1")
        assert g.has_edge("sa") and not dup.has_edge("sa")

    def test_peers_order(self):
        g = diamond()
        assert g.peers() == ["p1", "p2", "p3", "p4", "p5"]


class TestSearch:
    def test_paper_bfs_on_diamond(self):
        g = diamond()
        paths = [
            [e.edge_id for e in p]
            for p, _ in iter_paths(g, "s", "t", "paper")
        ]
        # 'b' is expanded once (via sb, BFS order); the a->b->t route is
        # pruned by the visited set, but both direct goal edges survive.
        assert ["sa", "at"] in paths
        assert ["sb", "bt"] in paths
        assert ["sa", "ab", "bt"] not in paths

    def test_exhaustive_finds_all_simple_paths(self):
        g = diamond()
        paths = sorted(
            tuple(e.edge_id for e in p)
            for p, _ in iter_paths(g, "s", "t", "exhaustive")
        )
        assert paths == sorted([
            ("sa", "at"), ("sb", "bt"), ("sa", "ab", "bt"),
        ])

    def test_exhaustive_no_repeated_vertices(self):
        g = diamond()
        g.add_service("b", "a", "back", "p6", 1.0, edge_id="ba")
        for p, _ in iter_paths(g, "s", "t", "exhaustive"):
            visited = ["s"] + [e.dst for e in p]
            assert len(visited) == len(set(visited))

    def test_same_init_and_goal_yields_empty_path(self):
        g = diamond()
        for policy in ("paper", "exhaustive"):
            assert list(iter_paths(g, "s", "s", policy)) == [([], None)]

    def test_missing_vertices_yield_nothing(self):
        g = diamond()
        assert list(iter_paths(g, "ghost", "t")) == []
        assert list(iter_paths(g, "s", "ghost")) == []

    def test_feasible_prunes_prefixes(self):
        g = diamond()

        # Forbid anything through 'a'; the cost counts hops.
        def extend(hops, edge):
            return None if edge.dst == "a" else hops + 1

        for policy in ("paper", "exhaustive"):
            got = [
                ([e.edge_id for e in p], hops)
                for p, hops in iter_paths(
                    g, "s", "t", policy, extend=extend, start=0
                )
            ]
            assert got == [(["sb", "bt"], 2)]

    def test_max_expansions_bounds_search(self):
        g = ResourceGraph()
        # A long chain.
        for i in range(100):
            g.add_service(i, i + 1, f"s{i}", "p", 1.0)
        got = list(iter_paths(g, 0, 100, "paper", max_expansions=5))
        assert got == []

    def test_unknown_policy_rejected(self):
        g = diamond()
        with pytest.raises(ValueError):
            list(iter_paths(g, "s", "t", "bogus"))
        with pytest.raises(ValueError):
            PathSearch(g, "bogus")

    def test_parallel_goal_edges_all_yielded(self):
        g = ResourceGraph()
        g.add_service("s", "t", "s1", "p1", 1.0, edge_id="a")
        g.add_service("s", "t", "s2", "p2", 1.0, edge_id="b")
        paths = [
            [e.edge_id for e in p]
            for p, _ in iter_paths(g, "s", "t", "paper")
        ]
        assert paths == [["a"], ["b"]]

    def test_path_search_wrapper(self):
        search = PathSearch(diamond(), "exhaustive")
        assert len(search.paths("s", "t")) == 3


class TestServiceGraph:
    def make_edges(self):
        g = diamond()
        return [g.edge("sa"), g.edge("at")]

    def test_from_edges(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        assert len(sg) == 2
        assert sg.steps[0].peer_id == "p1"
        assert sg.allocation_pairs() == [("sv1", "p1"), ("sv3", "p3")]

    def test_from_edges_work_scale(self):
        sg = ServiceGraph.from_edges(
            "t1", self.make_edges(), "src", "sink", work_scale=2.0
        )
        assert sg.steps[0].work == pytest.approx(2.0)
        assert sg.total_work() == pytest.approx(4.0)

    def test_index_offset(self):
        sg = ServiceGraph.from_edges(
            "t1", self.make_edges(), "src", "sink", index_offset=3
        )
        assert [s.index for s in sg.steps] == [3, 4]

    def test_peers_includes_endpoints(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        assert sg.peers() == ["src", "p1", "p3", "sink"]
        assert sg.uses_peer("p3") and not sg.uses_peer("ghost")

    def test_steps_on_peer(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        assert len(sg.steps_on_peer("p1")) == 1

    def test_replace_step(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        new = sg.steps[1].with_peer("p9")
        sg.replace_step(1, new)
        assert sg.steps[1].peer_id == "p9"

    def test_replace_step_index_mismatch(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        with pytest.raises(ValueError):
            sg.replace_step(0, sg.steps[1])
        with pytest.raises(IndexError):
            sg.replace_step(9, sg.steps[1].with_peer("x"))

    def test_record_timing_validation(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        sg.record_timing(0, 1.0, 2.0)
        assert sg.timings[0] == (1.0, 2.0)
        with pytest.raises(ValueError):
            sg.record_timing(1, 2.0, 1.0)
