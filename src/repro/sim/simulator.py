"""The synchronous-round execution engine.

Semantics (matching paper Section 1.2):

* Global rounds are numbered from 1; the earlier agent wakes in round 1.
  *Time points* ``0, 1, 2, ...`` denote the instants between rounds; round
  ``r`` takes place between time points ``r - 1`` and ``r``.
* Under :attr:`PresenceModel.FROM_START` (the paper's primary model) every
  agent sits at its starting node from time point 0 and can be found there
  by the other agent even before its own wake-up.  Under
  :attr:`PresenceModel.PARACHUTE` (the alternative model discussed in the
  Conclusion) an agent only materialises at time point ``wake_round - 1``.
* All awake agents act simultaneously.  Two agents traversing the same edge
  in opposite directions in the same round cross without meeting; the
  engine counts such crossings so tests can observe them.
* Rendezvous is colocation of two present agents at a time point; ``time``
  is that time point, ``cost`` the total number of traversals so far.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.registry import PRESENCE_MODELS
from repro.sim.actions import WAIT, Action, is_move, validate_action
from repro.sim.metrics import RendezvousResult
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, ProgramFactory, ReactiveProgram
from repro.sim.trace import AgentTrace


class PresenceModel(Enum):
    """When an agent becomes physically present at its starting node."""

    #: Present (asleep) from time point 0 -- the paper's primary model.
    FROM_START = "from-start"
    #: Appears only at its wake-up ("parachuted", Conclusion's alternative).
    PARACHUTE = "parachute"


for _model in PresenceModel:
    PRESENCE_MODELS.register(_model.value)(_model)


@dataclass(frozen=True)
class AgentSpec:
    """Static description of one agent handed to the simulator.

    ``provide_map`` / ``provide_position`` control which knowledge the
    resulting :class:`~repro.sim.program.AgentContext` carries; procedures
    that need withheld knowledge fail loudly (see ``AgentContext``).
    """

    label: int
    start_node: int
    factory: ProgramFactory
    wake_round: int = 1
    provide_map: bool = True
    provide_position: bool = True

    def __post_init__(self) -> None:
        if self.wake_round < 1:
            raise ValueError(f"wake_round must be >= 1, got {self.wake_round}")


@dataclass
class _AgentState:
    spec: AgentSpec
    position: int
    entry_port: int | None = None
    program: ReactiveProgram | None = None
    pending_obs: Observation | None = None
    trace: AgentTrace = field(init=False)

    def __post_init__(self) -> None:
        self.trace = AgentTrace(
            label=self.spec.label,
            start_node=self.spec.start_node,
            wake_round=self.spec.wake_round,
        )
        self.trace.positions.append(self.position)

    @property
    def awake(self) -> bool:
        return self.program is not None


class Simulator:
    """Runs agent programs on a port-labeled graph, round by round."""

    def __init__(
        self,
        graph: PortLabeledGraph,
        presence: PresenceModel = PresenceModel.FROM_START,
    ):
        if not graph.is_connected():
            raise ValueError("the rendezvous model requires a connected graph")
        self.graph = graph
        self.presence = presence

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[AgentSpec], max_rounds: int) -> RendezvousResult:
        """Execute until two present agents meet or ``max_rounds`` elapse.

        At least one spec must have ``wake_round == 1`` (time is defined
        from the earlier agent's start).  Starting nodes must be pairwise
        distinct, as the paper requires.
        """
        if not specs:
            raise ValueError("need at least one agent")
        if min(spec.wake_round for spec in specs) != 1:
            raise ValueError("the earliest agent must wake in round 1")
        starts = [spec.start_node for spec in specs]
        if len(set(starts)) != len(starts):
            raise ValueError("agents must start at pairwise distinct nodes")
        labels = [spec.label for spec in specs]
        if len(set(labels)) != len(labels):
            raise ValueError("agent labels must be pairwise distinct")
        for spec in specs:
            if not 0 <= spec.start_node < self.graph.num_nodes:
                raise ValueError(f"start node {spec.start_node} outside the graph")
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")

        states = [_AgentState(spec=spec, position=spec.start_node) for spec in specs]
        crossings = 0

        for current_round in range(1, max_rounds + 1):
            self._wake_due_agents(states, current_round)

            # A newly parachuted agent may land where another present agent
            # already stands: that is a meeting at time point round - 1.
            meeting = self._find_meeting(states, current_round - 1)
            if meeting is not None:
                return self._result(states, meeting, current_round - 1, crossings, current_round - 1)

            moves = self._collect_actions(states, current_round)
            crossings += self._count_crossings(states, moves)
            self._apply_moves(states, moves, current_round)

            meeting = self._find_meeting(states, current_round)
            if meeting is not None:
                return self._result(states, meeting, current_round, crossings, current_round)

        return self._result(states, None, None, crossings, max_rounds)

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------

    def _wake_due_agents(self, states: list[_AgentState], current_round: int) -> None:
        for state in states:
            if state.program is None and state.spec.wake_round <= current_round:
                context = AgentContext(
                    label=state.spec.label,
                    graph=self.graph if state.spec.provide_map else None,
                    position_oracle=(
                        (lambda s=state: s.position)
                        if state.spec.provide_position
                        else None
                    ),
                )
                state.program = ReactiveProgram(state.spec.factory(context))
                state.pending_obs = Observation(
                    clock=0,
                    degree=self.graph.degree(state.position),
                    entry_port=None,
                )

    def _collect_actions(
        self, states: list[_AgentState], current_round: int
    ) -> list[Action]:
        actions: list[Action] = []
        for state in states:
            if not state.awake:
                actions.append(WAIT)
                continue
            assert state.program is not None and state.pending_obs is not None
            action = state.program.step(state.pending_obs)
            validate_action(action, self.graph.degree(state.position))
            actions.append(action)
        return actions

    def _count_crossings(self, states: list[_AgentState], actions: list[Action]) -> int:
        """Count pairs traversing one edge in opposite directions this round."""
        crossings = 0
        movers = [
            (state, action)
            for state, action in zip(states, actions)
            if is_move(action)
        ]
        for (state_a, port_a), (state_b, port_b) in itertools.combinations(movers, 2):
            dest_a, entry_a = self.graph.neighbor_via(state_a.position, port_a)
            dest_b, entry_b = self.graph.neighbor_via(state_b.position, port_b)
            same_edge = (
                dest_a == state_b.position
                and dest_b == state_a.position
                and entry_a == port_b
                and entry_b == port_a
            )
            if same_edge:
                crossings += 1
        return crossings

    def _apply_moves(
        self, states: list[_AgentState], actions: list[Action], current_round: int
    ) -> None:
        for state, action in zip(states, actions):
            if state.awake:
                if is_move(action):
                    new_position, entry_port = self.graph.neighbor_via(
                        state.position, action
                    )
                    state.position = new_position
                    state.entry_port = entry_port
                state.trace.record(action, state.position)
                state.pending_obs = Observation(
                    clock=current_round - state.spec.wake_round + 1,
                    degree=self.graph.degree(state.position),
                    entry_port=state.entry_port,
                )
            else:
                # A sleeping agent records nothing; its position is fixed.
                state.trace.positions.append(state.position)

    def _find_meeting(
        self, states: list[_AgentState], time_point: int
    ) -> tuple[int, int] | None:
        """Return ``(node, agent_index)`` if two present agents are colocated.

        Under FROM_START every agent is present at every time point; under
        PARACHUTE an agent materialises at time point ``wake_round - 1``.
        """
        occupied: dict[int, int] = {}
        for index, state in enumerate(states):
            present = (
                self.presence is PresenceModel.FROM_START
                or state.spec.wake_round - 1 <= time_point
            )
            if not present:
                continue
            if state.position in occupied:
                return (state.position, occupied[state.position])
            occupied[state.position] = index
        return None

    def _result(
        self,
        states: list[_AgentState],
        meeting: tuple[int, int] | None,
        meeting_time: int | None,
        crossings: int,
        rounds_executed: int,
    ) -> RendezvousResult:
        costs = tuple(state.trace.moves for state in states)
        return RendezvousResult(
            met=meeting is not None,
            time=meeting_time,
            meeting_node=meeting[0] if meeting is not None else None,
            cost=sum(costs),
            costs=costs,
            crossings=crossings,
            rounds_executed=rounds_executed,
            traces=tuple(state.trace for state in states),
        )


def default_max_rounds(
    factory: ProgramFactory, labels: tuple[int, int], delay: int
) -> int:
    """The standard round budget: the later agent's schedule end.

    ``delay`` plus the longer of the two agents' schedules -- a correct
    algorithm must meet before both schedules run out.  This is the
    *single* statement of that formula: :func:`simulate_rendezvous` (for
    an omitted ``max_rounds``) and
    :func:`repro.sim.adversary.default_horizon` (for every sweep's
    ``None`` horizon policy) both delegate here, so the two can never
    drift.
    ``factory`` must expose ``schedule_length`` (every :mod:`repro.core`
    algorithm does).
    """
    schedule_length = getattr(factory, "schedule_length", None)
    if schedule_length is None:
        raise ValueError(
            "pass max_rounds explicitly for factories without schedule_length"
        )
    return delay + max(schedule_length(labels[0]), schedule_length(labels[1]))


def simulate_rendezvous(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    labels: tuple[int, int],
    starts: tuple[int, int],
    delay: int = 0,
    max_rounds: int | None = None,
    presence: PresenceModel = PresenceModel.FROM_START,
    provide_map: bool = True,
    provide_position: bool = True,
) -> RendezvousResult:
    """Convenience wrapper for the standard two-agent experiment.

    The second agent wakes ``delay`` rounds after the first.  When
    ``max_rounds`` is omitted and ``factory`` exposes a ``schedule_length``
    method (all algorithms in :mod:`repro.core` do), the horizon is
    :func:`default_max_rounds`: the later agent's schedule end (its
    schedule length plus the delay) -- the same formula every adversary
    sweep uses.
    """
    if max_rounds is None:
        max_rounds = default_max_rounds(factory, labels, delay)
    specs = [
        AgentSpec(
            label=labels[0],
            start_node=starts[0],
            factory=factory,
            wake_round=1,
            provide_map=provide_map,
            provide_position=provide_position,
        ),
        AgentSpec(
            label=labels[1],
            start_node=starts[1],
            factory=factory,
            wake_round=1 + delay,
            provide_map=provide_map,
            provide_position=provide_position,
        ),
    ]
    return Simulator(graph, presence).run(specs, max_rounds=max_rounds)
