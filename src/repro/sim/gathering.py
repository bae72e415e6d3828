"""Gathering: the k-agent generalisation of rendezvous (extension).

The paper treats two agents; gathering more than two is classical related
work ([32, 36, 40, 46] in its bibliography).  This module adds the
standard *merge* semantics on top of the synchronous model:

* agents that occupy the same node in the same round merge into a group;
* a group moves as one and follows the program of its smallest-labelled
  member (who, having started in round 1 like everyone else, simply keeps
  executing its own schedule -- merging never perturbs the leader);
* gathering is complete when a single group remains.

With these semantics any *pairwise-correct* simultaneous-start rendezvous
algorithm gathers ``k`` agents within its two-agent worst-case time: all
leaders run their full schedules from round 1, so any two surviving
groups trace exactly the two-agent execution of their leaders and must
meet by its bound -- past that bound only one group can remain.  The
``gathering`` experiment (``python -m repro experiments run gathering``)
measures this claim.

Only simultaneous start is supported (delays would let a sleeping agent
with a smaller label wake inside a moving group, which needs a leadership
hand-off policy the two-agent model says nothing about).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import is_move, validate_action
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, ProgramFactory, ReactiveProgram


@dataclass
class _Member:
    label: int
    start_node: int
    program: ReactiveProgram | None = None  # None once leadership is lost


@dataclass
class _Group:
    position: int
    members: list[_Member]
    entry_port: int | None = None
    pending_obs: Observation | None = None

    @property
    def leader(self) -> _Member:
        return min(self.members, key=lambda member: member.label)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class GatheringResult:
    """Outcome of a k-agent gathering run."""

    gathered: bool
    time: int | None
    node: int | None
    cost: int
    rounds_executed: int
    final_group_count: int
    merge_times: tuple[int, ...]  # round of each merge event

    @property
    def summary(self) -> str:
        if self.gathered:
            return (
                f"gathered at node {self.node} in round {self.time} "
                f"(cost {self.cost}, merges at {list(self.merge_times)})"
            )
        return (
            f"not gathered within {self.rounds_executed} rounds "
            f"({self.final_group_count} groups remain, cost {self.cost})"
        )


@dataclass(frozen=True)
class GatheringSpec:
    """One agent in a gathering run (always waking in round 1)."""

    label: int
    start_node: int
    factory: ProgramFactory
    provide_map: bool = True
    provide_position: bool = True


class GatheringSimulator:
    """Synchronous gathering with merge-and-follow-the-leader semantics."""

    def __init__(self, graph: PortLabeledGraph):
        if not graph.is_connected():
            raise ValueError("gathering requires a connected graph")
        self.graph = graph

    def run(
        self, specs: Sequence[GatheringSpec], max_rounds: int
    ) -> GatheringResult:
        if len(specs) < 2:
            raise ValueError("gathering needs at least two agents")
        labels = [spec.label for spec in specs]
        starts = [spec.start_node for spec in specs]
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        if len(set(starts)) != len(starts):
            raise ValueError("agents must start at pairwise distinct nodes")

        groups = [self._initial_group(spec) for spec in specs]
        cost = 0
        merge_times: list[int] = []

        for current_round in range(1, max_rounds + 1):
            # Each group steps its leader's program.
            for group in groups:
                leader = group.leader
                assert leader.program is not None and group.pending_obs is not None
                action = leader.program.step(group.pending_obs)
                validate_action(action, self.graph.degree(group.position))
                if is_move(action):
                    group.position, group.entry_port = self.graph.neighbor_via(
                        group.position, action
                    )
                    cost += group.size
                group.pending_obs = Observation(
                    clock=current_round,
                    degree=self.graph.degree(group.position),
                    entry_port=group.entry_port,
                )

            merged = self._merge_colocated(groups)
            if len(merged) < len(groups):
                merge_times.append(current_round)
            groups = merged
            if len(groups) == 1:
                return GatheringResult(
                    gathered=True,
                    time=current_round,
                    node=groups[0].position,
                    cost=cost,
                    rounds_executed=current_round,
                    final_group_count=1,
                    merge_times=tuple(merge_times),
                )

        return GatheringResult(
            gathered=False,
            time=None,
            node=None,
            cost=cost,
            rounds_executed=max_rounds,
            final_group_count=len(groups),
            merge_times=tuple(merge_times),
        )

    # ------------------------------------------------------------------

    def _initial_group(self, spec: GatheringSpec) -> _Group:
        group = _Group(position=spec.start_node, members=[])
        context = AgentContext(
            label=spec.label,
            graph=self.graph if spec.provide_map else None,
            position_oracle=(
                (lambda g=group: g.position) if spec.provide_position else None
            ),
        )
        member = _Member(
            label=spec.label,
            start_node=spec.start_node,
            program=ReactiveProgram(spec.factory(context)),
        )
        group.members.append(member)
        group.pending_obs = Observation(
            clock=0,
            degree=self.graph.degree(spec.start_node),
            entry_port=None,
        )
        return group

    def _merge_colocated(self, groups: list[_Group]) -> list[_Group]:
        by_node: dict[int, _Group] = {}
        for group in groups:
            resident = by_node.get(group.position)
            if resident is None:
                by_node[group.position] = group
                continue
            absorbed, surviving = (
                (group, resident)
                if resident.leader.label < group.leader.label
                else (resident, group)
            )
            # The losing leader's program is abandoned for good.
            absorbed.leader.program = None
            surviving.members.extend(absorbed.members)
            by_node[group.position] = surviving
        return list(by_node.values())


def gather(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    labels: Sequence[int],
    starts: Sequence[int],
    max_rounds: int | None = None,
) -> GatheringResult:
    """Convenience wrapper mirroring :func:`simulate_rendezvous`.

    ``factory`` is typically a simultaneous-start algorithm instance; the
    default horizon is the longest member schedule (a pairwise-correct
    algorithm gathers within its two-agent bound, which that covers).
    """
    if max_rounds is None:
        schedule_length = getattr(factory, "schedule_length", None)
        if schedule_length is None:
            raise ValueError(
                "pass max_rounds explicitly for factories without schedule_length"
            )
        max_rounds = max(schedule_length(label) for label in labels)
    specs = [
        GatheringSpec(label=label, start_node=start, factory=factory)
        for label, start in zip(labels, starts)
    ]
    return GatheringSimulator(graph).run(specs, max_rounds=max_rounds)
