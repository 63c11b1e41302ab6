"""The task allocation algorithm of Figure 3.

BFS over the resource graph from ``v_init`` to ``v_sol``; prefixes that
cannot meet the requirement set ``q`` are pruned; among complete
candidates that satisfy ``q``, the one maximizing the Jain fairness
index of the post-assignment load distribution wins.

The *selection rule* is pluggable (``selector``) so the baselines of
experiment E1/E2 — random, first-feasible, least-loaded — share the
identical search and feasibility machinery and differ **only** in the
choice among feasible candidates, which is precisely the paper's design
choice under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

from repro.common.errors import NoFeasibleAllocation
from repro.core.estimate import CompletionTimeEstimator, PrefixCost
from repro.core.fairness import LoadVector
from repro.core.info_base import DomainInfoBase
from repro.graphs.resource_graph import ServiceEdge
from repro.graphs.search import iter_paths
from repro.net.network import Network
from repro.tasks.task import ApplicationTask


@dataclass
class Candidate:
    """One feasible allocation candidate.

    ``max_post_util`` (the highest post-assignment utilization among the
    touched peers) is precomputed so fairness-blind baseline selectors
    (greedy least-loaded) can share the identical search machinery.
    """

    path: List[ServiceEdge]
    fairness: float
    est_time: float
    deltas: Dict[str, float]
    max_post_util: float = 0.0

    @property
    def edge_ids(self) -> List[str]:
        return [e.edge_id for e in self.path]

    def peers(self) -> List[str]:
        out: List[str] = []
        for e in self.path:
            if e.peer_id not in out:
                out.append(e.peer_id)
        return out


#: Picks the winning candidate from a non-empty list.
Selector = Callable[[List[Candidate]], Candidate]


def select_max_fairness(candidates: List[Candidate]) -> Candidate:
    """The paper's rule: maximize post-assignment fairness (Fig. 3)."""
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.fairness > best.fairness:
            best = cand
    return best


@dataclass
class AllocationResult:
    """Outcome of a successful allocation."""

    task_id: str
    path: List[ServiceEdge]
    fairness: float
    est_time: float
    deltas: Dict[str, float]
    n_candidates: int
    n_examined: int

    @property
    def edge_ids(self) -> List[str]:
        return [e.edge_id for e in self.path]

    def allocation_pairs(self) -> List[tuple[str, str]]:
        return [(e.service_id, e.peer_id) for e in self.path]


@dataclass
class Allocator:
    """The Figure-3 allocation algorithm with pluggable selection.

    Parameters
    ----------
    estimator:
        Completion-time estimator (feasibility of ``q``).
    visited_policy:
        ``"paper"`` (Fig-3 BFS) or ``"exhaustive"`` (all simple paths).
    selector:
        Choice rule among feasible candidates; defaults to the paper's
        fairness maximization.
    max_expansions / max_candidates:
        Search budgets.
    """

    estimator: CompletionTimeEstimator = field(
        default_factory=CompletionTimeEstimator
    )
    visited_policy: str = "paper"
    selector: Selector = select_max_fairness
    max_expansions: int = 100_000
    max_candidates: int = 10_000

    def allocate(
        self,
        info: DomainInfoBase,
        net: Network,
        task: ApplicationTask,
        v_init: Hashable,
        v_sol: Hashable,
        source_peer: str,
        sink_peer: str,
        in_bytes: float,
        now: float,
        loads: Optional[LoadVector] = None,
        work_scale: float = 1.0,
    ) -> AllocationResult:
        """Run the allocation for *task*.

        Raises
        ------
        NoFeasibleAllocation
            With ``reason="no_path"`` when the resource graph offers no
            route at all, or ``reason="qos"`` when routes exist but none
            satisfies the requirement set (the admission layer treats
            these differently — a missing service must be *redirected*
            by summary lookup; an overload may be *retried/redirected*
            too but signals domain saturation).
        """
        load_view = loads if loads is not None else info.load_vector(now)
        # The remaining time budget: equals the relative QoS deadline for
        # a fresh submission, shrinks for redirected / repaired tasks.
        deadline = task.absolute_deadline - now
        if deadline <= 0:
            raise NoFeasibleAllocation(task.task_id, reason="qos")
        candidates: List[Candidate] = []
        n_examined = 0
        any_path = False
        estimator = self.estimator
        budget = deadline * (1.0 - estimator.safety_margin)

        def extend(
            cost: PrefixCost, edge: ServiceEdge
        ) -> Optional[PrefixCost]:
            # Fig. 3's prefix check: a prefix already over budget cannot
            # complete in time (its cost is a lower bound), so prune it.
            cost = estimator.extend_prefix(
                info, net, cost, edge, now, work_scale
            )
            if cost is not None and cost[0] <= budget:
                return cost
            return None

        for path, (elapsed, carried, last_peer) in iter_paths(
            info.resource_graph,
            v_init,
            v_sol,
            visited_policy=self.visited_policy,
            extend=extend,
            start=(0.0, in_bytes, source_peer),
            max_expansions=self.max_expansions,
        ):
            any_path = True
            n_examined += 1
            # The prefix cost covers every service on the path: what is
            # left to estimate is the empty suffix, the hop to the sink.
            est = elapsed + estimator.estimate_path(
                info, net, (), now, last_peer, sink_peer, carried, work_scale
            )
            if est > budget:
                continue
            deltas = estimator.path_load_deltas(path, deadline, work_scale)
            if estimator.overloads(info, deltas, now):
                continue
            fairness = load_view.fairness_with(deltas)
            max_post_util = 0.0
            for peer_id, delta in deltas.items():
                power = info.peer(peer_id).power
                post = (load_view.get(peer_id) + delta) / power
                max_post_util = max(max_post_util, post)
            candidates.append(
                Candidate(path, fairness, est, deltas, max_post_util)
            )
            if len(candidates) >= self.max_candidates:
                break

        if not candidates:
            # Distinguish "no route exists at all" from "routes exist but
            # none meets q": prefix pruning may have hidden every route,
            # so re-probe without the QoS predicate.
            if not any_path:
                probe = iter_paths(
                    info.resource_graph, v_init, v_sol,
                    visited_policy=self.visited_policy,
                    max_expansions=self.max_expansions,
                )
                any_path = next(iter(probe), None) is not None
            raise NoFeasibleAllocation(
                task.task_id, reason="qos" if any_path else "no_path"
            )
        winner = self.selector(candidates)
        return AllocationResult(
            task_id=task.task_id,
            path=winner.path,
            fairness=winner.fairness,
            est_time=winner.est_time,
            deltas=winner.deltas,
            n_candidates=len(candidates),
            n_examined=n_examined,
        )
