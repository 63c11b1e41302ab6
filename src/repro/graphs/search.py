"""Path enumeration over the resource graph (the search of Fig. 3).

Two *visited policies* are provided:

``"paper"``
    Faithful to the Figure-3 pseudocode: a breadth-first search in which
    an intermediate vertex is marked *visited* when it is first expanded,
    so later paths through it are pruned.  The goal vertex is never
    marked, so every edge reaching it yields a candidate (this is what
    makes the fairness comparison in Fig. 3 meaningful — in Figure 1
    both ``{e1,e2}`` and ``{e1,e3}`` are considered).  Cheap — O(V+E)
    expansions — but may miss the globally best path; experiment F3
    quantifies the gap.

``"exhaustive"``
    Enumerates *all* simple paths (no repeated vertex within a path),
    depth-first, up to an expansion budget.  Exponential in the worst
    case; used by the optimal baseline and in tests as ground truth.

Both yield ``(path, cost)`` pairs, a path being a list of
:class:`ServiceEdge`.  The cost is carried along the search: every
prefix starts from ``start`` and is extended one edge at a time by
``extend(cost, edge)``, which returns the extended prefix's cost or
``None`` to prune it (and everything through it) immediately,
mirroring Fig. 3's "fulfills requirements in q" check.  Each prefix is
costed once, from its parent's cost, however long it is.  Without an
``extend`` every cost is ``start``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Hashable, Iterator, List, Optional, Tuple

from repro.graphs.resource_graph import ResourceGraph, ServiceEdge

Path = List[ServiceEdge]
#: ``extend(prefix_cost, edge)``: the cost of the prefix plus *edge*,
#: or ``None`` to prune that longer prefix.
ExtendCost = Callable[[Any, ServiceEdge], Any]


def iter_paths(
    graph: ResourceGraph,
    v_init: Hashable,
    v_sol: Hashable,
    visited_policy: str = "paper",
    extend: Optional[ExtendCost] = None,
    start: Any = None,
    max_expansions: int = 100_000,
) -> Iterator[Tuple[Path, Any]]:
    """Yield ``(path, cost)`` for candidate sequences ``v_init -> v_sol``.

    Parameters
    ----------
    graph:
        The domain resource graph.
    v_init, v_sol:
        Initial and required application states.  A missing ``v_init``
        or ``v_sol`` yields no paths (the RM then reports "no feasible
        allocation", §4.3).
    visited_policy:
        ``"paper"`` or ``"exhaustive"`` (see module docstring).
    extend:
        Optional prefix-cost step; a prefix it maps to ``None`` is
        pruned (and never extended).
    start:
        The cost of the empty prefix.
    max_expansions:
        Safety budget on vertex expansions.
    """
    if visited_policy == "paper":
        search = _bfs_paper
    elif visited_policy == "exhaustive":
        search = _dfs_simple
    else:
        raise ValueError(
            f"unknown visited_policy {visited_policy!r}; "
            "use 'paper' or 'exhaustive'"
        )
    if not graph.has_state(v_init) or not graph.has_state(v_sol):
        return
    if v_init == v_sol:
        # Already in the requested state: the empty sequence solves it.
        yield [], start
        return
    yield from search(graph, v_init, v_sol, extend, start, max_expansions)


def _bfs_paper(
    graph: ResourceGraph,
    v_init: Hashable,
    v_sol: Hashable,
    extend: Optional[ExtendCost],
    start: Any,
    max_expansions: int,
) -> Iterator[Tuple[Path, Any]]:
    # Each entry carries its prefix's cost, computed from the parent's
    # when the prefix is made; a pruned prefix never enters the queue.
    queue: deque[tuple[Hashable, Path, Any]] = deque([(v_init, [], start)])
    popleft = queue.popleft
    append = queue.append
    visited: set[Hashable] = set()
    # Read the adjacency dict directly: out_edges() returns a defensive
    # copy, but this loop only iterates (allocation runs this search for
    # every admitted task).
    out = graph._out
    expansions = 0
    while queue:
        v, seq, cost = popleft()
        if v == v_sol:
            yield seq, cost
            continue
        if v in visited:
            continue
        visited.add(v)
        expansions += 1
        if expansions > max_expansions:
            return
        for edge in out.get(v, ()):
            edge_cost = cost
            if extend is not None:
                edge_cost = extend(cost, edge)
                if edge_cost is None:
                    continue
            append((edge.dst, seq + [edge], edge_cost))


def _dfs_simple(
    graph: ResourceGraph,
    v_init: Hashable,
    v_sol: Hashable,
    extend: Optional[ExtendCost],
    start: Any,
    max_expansions: int,
) -> Iterator[Tuple[Path, Any]]:
    budget = [max_expansions]

    def dfs(
        v: Hashable, seq: Path, cost: Any, on_path: set[Hashable]
    ) -> Iterator[Tuple[Path, Any]]:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        for edge in graph.out_edges(v):
            nxt = edge.dst
            if nxt in on_path:
                continue
            edge_cost = cost
            if extend is not None:
                edge_cost = extend(cost, edge)
                if edge_cost is None:
                    continue
            new_seq = seq + [edge]
            if nxt == v_sol:
                yield new_seq, edge_cost
                continue
            on_path.add(nxt)
            yield from dfs(nxt, new_seq, edge_cost, on_path)
            on_path.discard(nxt)

    yield from dfs(v_init, [], start, {v_init})


class PathSearch:
    """Convenience wrapper bundling a graph with search settings."""

    def __init__(
        self,
        graph: ResourceGraph,
        visited_policy: str = "paper",
        max_expansions: int = 100_000,
    ) -> None:
        if visited_policy not in ("paper", "exhaustive"):
            raise ValueError(f"unknown visited_policy {visited_policy!r}")
        self.graph = graph
        self.visited_policy = visited_policy
        self.max_expansions = max_expansions

    def paths(self, v_init: Hashable, v_sol: Hashable) -> List[Path]:
        """All candidate paths as a list (see :func:`iter_paths`)."""
        return [
            path
            for path, _ in iter_paths(
                self.graph,
                v_init,
                v_sol,
                visited_policy=self.visited_policy,
                max_expansions=self.max_expansions,
            )
        ]
