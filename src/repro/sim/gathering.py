"""Gathering: the k-agent generalisation of rendezvous (extension).

The paper treats two agents; gathering more than two is classical related
work ([32, 36, 40, 46] in its bibliography).  This module adds the
standard *merge* semantics on top of the synchronous model:

* agents that occupy the same node in the same round merge into a group;
* a group moves as one and follows the program of its smallest-labelled
  member (who, having started in round 1 like everyone else, simply keeps
  executing its own schedule -- merging never perturbs the leader);
* gathering is complete when a single group remains.

Because merging never perturbs a leader, a leader's trajectory is its
solo trajectory, and two surviving groups meet exactly when their
leaders' two-agent execution does.  :func:`gather` therefore reads
everything off a compiled :class:`~repro.sim.compiled.TrajectoryTable`:
the leaders' pairwise first meetings, processed in time order, and the
cost rows of their trajectories, weighted by group size.

With these semantics any *pairwise-correct* simultaneous-start rendezvous
algorithm gathers ``k`` agents within its two-agent worst-case time: any
two surviving groups trace the two-agent execution of their leaders and
must meet by its bound -- past that bound only one group can remain.  The
``gathering`` experiment (``python -m repro experiments run gathering``)
measures this claim.

Only simultaneous start is supported (delays would let a sleeping agent
with a smaller label wake inside a moving group, which needs a leadership
hand-off policy the two-agent model says nothing about).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sim.adversary import Configuration
from repro.sim.compiled import CompiledTrajectory, TrajectoryTable


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


def gather(
    table: TrajectoryTable,
    labels: Sequence[int],
    starts: Sequence[int],
    max_rounds: int | None = None,
) -> GatheringResult:
    """Gather one agent per ``(label, start)`` on ``table``'s graph.

    ``table`` compiles the agents' solo trajectories (one table serves
    any number of calls on its graph and factory).  The default horizon
    is the longest member schedule (a pairwise-correct algorithm gathers
    within its two-agent bound, which that covers).
    """
    if not table.graph.is_connected():
        raise ValueError("gathering requires a connected graph")
    if len(labels) < 2:
        raise ValueError("gathering needs at least two agents")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be pairwise distinct")
    if len(set(starts)) != len(starts):
        raise ValueError("agents must start at pairwise distinct nodes")
    if max_rounds is None:
        max_rounds = max(table.factory.schedule_length(label) for label in labels)
    start_of = dict(zip(labels, starts))

    def at(label: int, time_point: int) -> CompiledTrajectory:
        return table.trajectory(label, start_of[label], time_point)

    def moved(leader: int, members: int, since: int, upto: int) -> int:
        """Traversals of ``leader``'s group in rounds ``since + 1..upto``."""
        cost_through = at(leader, upto).cost_through
        return members * (cost_through(upto) - cost_through(since))

    meetings: dict[tuple[int, int], int] = {}
    for index, first in enumerate(labels):
        for second in labels[index + 1 :]:
            met_at = table.first_meeting_time(
                Configuration(
                    labels=(first, second),
                    starts=(start_of[first], start_of[second]),
                    delay=0,
                ),
                max_rounds,
            )
            if met_at is not None:
                meetings[first, second] = met_at

    # leader -> (group size, round its current size started counting)
    groups = {label: (1, 0) for label in labels}
    cost = 0
    merge_times: list[int] = []
    while len(groups) > 1:
        pending = [
            met_at
            for (first, second), met_at in meetings.items()
            if first in groups and second in groups
        ]
        if not pending:
            break
        now = min(pending)
        merge_times.append(now)
        # Leaders colocated now have not met before (they would have
        # merged), so these are exactly the leaders meeting at ``now``.
        at_node: dict[int, list[int]] = {}
        for leader in groups:
            node = at(leader, now).position_at(now)
            at_node.setdefault(node, []).append(leader)
        for leaders in at_node.values():
            if len(leaders) < 2:
                continue
            size = 0
            for leader in leaders:
                members, since = groups.pop(leader)
                cost += moved(leader, members, since, now)
                size += members
            groups[min(leaders)] = (size, now)

    gathered = len(groups) == 1
    end = merge_times[-1] if gathered else max_rounds
    for leader, (members, since) in groups.items():
        cost += moved(leader, members, since, end)
    leader = min(groups)
    return GatheringResult(
        gathered=gathered,
        time=end if gathered else None,
        node=at(leader, end).position_at(end) if gathered else None,
        cost=cost,
        rounds_executed=end,
        final_group_count=len(groups),
        merge_times=tuple(merge_times),
    )
