"""The compiled-trajectory engine: adversary sweeps without re-simulation.

The paper's algorithms (Cheap, Fast, FastWithRelabeling and their
simultaneous-start variants) are *oblivious*: each agent's behaviour is a
fixed wait/explore :class:`~repro.core.schedule.Schedule` determined by its
label alone, executed by a deterministic exploration procedure whose moves
depend only on the agent's own position history -- never on the other
agent.  An agent's whole trajectory is therefore a pure function of
``(label, start)``, while a worst-case sweep evaluates
``L(L-1) * n(n-1) * |delays|`` configurations.  The reactive engine pays a
full generator-driven simulation per configuration; this module pays one
compilation per ``(label, start)`` -- ``O(L * n)`` of them -- and answers
each configuration by scanning two pre-computed position timelines for
their first (delay-shifted) colocation.

Equivalence contract: for any schedule-driven factory,
``worst_case_search(engine="compiled")`` returns a
:class:`~repro.sim.adversary.WorstCaseReport` equal *field for field* --
including per-agent traces, crossing counts and tie-broken argmax
configurations -- to the reactive engine's: :meth:`TrajectoryTable.verdicts`
measures exactly the reactive ``(time, cost)``, the shared
:class:`~repro.sim.adversary.Reduction` picks the extremes, and
:meth:`TrajectoryTable.result` rebuilds their full records.  The
cross-engine suite in ``tests/sim/test_compiled.py`` asserts exactly that
over every registered algorithm x graph family x presence model x delay
grid.

Compilation replays the *actual* agent program (the same generators the
simulator would drive), so schedule semantics, exploration routes and
budget enforcement are shared with the reactive engine by construction
rather than re-implemented; only the per-configuration interaction logic
(colocation, presence, costs, crossings) is specialised here.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter here meters trajectory-table
# builds and scans for telemetry gauges (build_seconds); measurements
# flow only through Telemetry, never into RendezvousResult bytes, as the
# inertness matrix in tests/obs proves dynamically.

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import WAIT, Action, validate_action
from repro.sim.adversary import Configuration, Verdict
from repro.sim.metrics import RendezvousResult
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, ProgramFactory, ReactiveProgram
from repro.sim.simulator import PresenceModel
from repro.sim.trace import AgentTrace


@dataclass(frozen=True)
class CompiledTrajectory:
    """One agent's full solo timeline: what ``(label, start)`` determines.

    ``positions[t]`` is the node occupied at time point ``t`` for
    ``t = 0..T`` (``T`` = the schedule length in rounds); after ``T`` the
    agent idles at ``positions[T]`` forever.  ``actions[r - 1]`` is the
    action of round ``r`` (``None`` for a wait), ``entries[r - 1]`` the
    entry port of that round's move (``None`` for a wait), and
    ``cumulative_cost[r]`` the number of edge traversals through round
    ``r`` (``cumulative_cost[0] == 0``).
    """

    label: int
    start: int
    positions: tuple[int, ...]
    actions: tuple[Action, ...]
    entries: tuple[int | None, ...]
    cumulative_cost: tuple[int, ...]

    @property
    def length(self) -> int:
        """The schedule length ``T``: rounds until the agent parks."""
        return len(self.actions)

    def position_at(self, time_point: int) -> int:
        """The node occupied at ``time_point`` (parked past the schedule)."""
        if time_point < 0:
            raise ValueError(f"time points are non-negative, got {time_point}")
        positions = self.positions
        return positions[time_point] if time_point < len(positions) else positions[-1]

    def cost_through(self, round_: int) -> int:
        """Edge traversals through round ``round_`` (clamped to the schedule)."""
        cumulative = self.cumulative_cost
        return cumulative[round_] if round_ < len(cumulative) else cumulative[-1]


def compile_trajectory(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    label: int,
    start: int,
    provide_map: bool = True,
    provide_position: bool = True,
) -> CompiledTrajectory:
    """Replay agent ``label``'s program solo from ``start`` and record it.

    Drives the very generator the simulator would run, for exactly
    ``factory.schedule_length(label)`` rounds, feeding it the same
    observations (clock, degree, last entry port) a two-agent run would --
    legitimate because oblivious programs never observe the other agent.
    Fails loudly if the program is still active past its declared schedule
    length: a factory whose behaviour outlives ``schedule_length`` is not
    schedule-driven and must use the reactive engine.
    """
    schedule_length = getattr(factory, "schedule_length", None)
    if schedule_length is None:
        raise ValueError(
            f"cannot compile {getattr(factory, 'name', factory)!r}: "
            "the factory exposes no schedule_length"
        )
    total = schedule_length(label)

    positions = [start]
    context = AgentContext(
        label=label,
        graph=graph if provide_map else None,
        position_oracle=(lambda: positions[-1]) if provide_position else None,
    )
    program = ReactiveProgram(factory(context))
    actions: list[Action] = []
    entries: list[int | None] = []
    cumulative = [0]
    moves = 0
    entry_port: int | None = None  # persists across waits, as in the simulator
    obs = Observation(clock=0, degree=graph.degree(start), entry_port=None)

    for round_ in range(1, total + 1):
        position = positions[-1]
        action = program.step(obs)
        validate_action(action, graph.degree(position))
        if action is not None:
            position, entry_port = graph.neighbor_via(position, action)
            moves += 1
            entries.append(entry_port)
        else:
            entries.append(None)
        actions.append(action)
        positions.append(position)
        cumulative.append(moves)
        obs = Observation(
            clock=round_, degree=graph.degree(position), entry_port=entry_port
        )

    # The schedule must be exhausted: one further step has to yield the
    # implicit wait-forever, or the declared length lied and compiled
    # results would silently diverge from the reactive engine.
    if program.step(obs) is not WAIT or not program.finished:
        raise ValueError(
            f"cannot compile {getattr(factory, 'name', factory)!r}: the program "
            f"for label {label} is still active after its declared "
            f"schedule_length of {total} rounds"
        )

    return CompiledTrajectory(
        label=label,
        start=start,
        positions=tuple(positions),
        actions=tuple(actions),
        entries=tuple(entries),
        cumulative_cost=tuple(cumulative),
    )


def first_meeting_time(
    first: CompiledTrajectory,
    second: CompiledTrajectory,
    delay: int,
    horizon: int,
    presence: PresenceModel = PresenceModel.FROM_START,
) -> int | None:
    """First time point in ``[0, horizon]`` at which the agents colocate.

    The second agent's timeline is shifted by ``delay`` (it sits at its
    start until then); under :attr:`PresenceModel.PARACHUTE` time points
    before its wake (``t < delay``) cannot be meetings.  The scan is split
    into phases so the long stationary stretches (waiting periods, parked
    schedule tails) run through C-speed ``tuple.index`` searches instead
    of a Python loop.
    """
    p1, p2 = first.positions, second.positions
    length1, length2 = first.length, second.length
    end1, end2 = p1[-1], p2[-1]
    start2 = p2[0]
    earliest = delay if presence is PresenceModel.PARACHUTE else 0
    if earliest > horizon:
        return None

    # Phase 1 -- t in [earliest, min(delay, horizon)]: agent 2 at its start.
    hi = min(delay, horizon)
    if earliest <= hi:
        cut = min(hi, length1)
        if earliest <= cut:
            try:
                return p1.index(start2, earliest, cut + 1)
            except ValueError:
                pass
        if hi > length1 and end1 == start2:
            return max(earliest, length1 + 1)

    # Phase 2 -- t in (delay, min(horizon, delay + T2)]: agent 2 en route.
    lo = delay + 1
    hi = min(horizon, delay + length2)
    if lo <= hi:
        cut = min(hi, length1)
        if lo <= cut:
            shifted = lo - delay
            for offset, (a, b) in enumerate(
                zip(p1[lo : cut + 1], p2[shifted : shifted + cut - lo + 1])
            ):
                if a == b:
                    return lo + offset
        if hi > length1:
            parked_lo = max(lo, length1 + 1)
            try:
                return p2.index(end1, parked_lo - delay, hi - delay + 1) + delay
            except ValueError:
                pass

    # Phase 3 -- t in (delay + T2, horizon]: agent 2 parked at its endpoint.
    lo = delay + length2 + 1
    if lo <= horizon:
        cut = min(horizon, length1)
        if lo <= cut:
            try:
                return p1.index(end2, lo, cut + 1)
            except ValueError:
                pass
        if horizon > length1 and end1 == end2:
            return max(lo, length1 + 1)
    return None


def crossings_through(
    first: CompiledTrajectory,
    second: CompiledTrajectory,
    delay: int,
    last_round: int,
) -> int:
    """Rounds in ``1..last_round`` where the agents swap along one edge.

    The reactive engine's criterion exactly: both agents traverse the
    *same* edge (matching ports at both endpoints, so parallel edges are
    distinguished) in opposite directions in the same round.
    """
    crossings = 0
    hi = min(last_round, first.length, delay + second.length)
    p1, p2 = first.positions, second.positions
    for round_ in range(delay + 1, hi + 1):
        port1 = first.actions[round_ - 1]
        if port1 is None:
            continue
        local = round_ - delay
        port2 = second.actions[local - 1]
        if port2 is None:
            continue
        if (
            p1[round_] == p2[local - 1]
            and p2[local] == p1[round_ - 1]
            and first.entries[round_ - 1] == port2
            and second.entries[local - 1] == port1
        ):
            crossings += 1
    return crossings


def _padded_timeline(
    trajectory: CompiledTrajectory, sleep: int, last: int
) -> tuple[list[int], list[Action], int]:
    """Positions ``0..last``, actions ``1..last`` and moves of one agent.

    ``sleep`` is how many leading rounds the agent spends asleep at its
    start (0 for the first agent, the wake-up delay for the second); the
    reactive simulator records a sleeping agent's position each round and
    its actions only from its wake-up on, and this reproduces both lists.
    """
    start_block = min(last, sleep)
    positions = [trajectory.positions[0]] * (start_block + 1)
    actions: list[Action] = []
    if last > sleep:
        local_last = last - sleep
        length = trajectory.length
        positions.extend(trajectory.positions[1 : local_last + 1])
        actions.extend(trajectory.actions[:local_last])
        if local_last > length:
            positions.extend([trajectory.positions[-1]] * (local_last - length))
            actions.extend([WAIT] * (local_last - length))
    moves = trajectory.cost_through(max(last - sleep, 0))
    return positions, actions, moves


def reconstruct_result(
    first: CompiledTrajectory,
    second: CompiledTrajectory,
    config: Configuration,
    horizon: int,
    presence: PresenceModel = PresenceModel.FROM_START,
) -> RendezvousResult:
    """The full :class:`RendezvousResult` of one configuration, from timelines.

    Byte-identical to what the reactive simulator returns for the same
    configuration: same meeting time/node, per-agent costs, crossing
    count, rounds executed, and per-agent traces (positions recorded
    through the final round, actions only while awake).
    """
    met_at = first_meeting_time(first, second, config.delay, horizon, presence)
    last_round = met_at if met_at is not None else horizon

    positions1, actions1, moves1 = _padded_timeline(first, 0, last_round)
    positions2, actions2, moves2 = _padded_timeline(second, config.delay, last_round)
    trace1 = AgentTrace(
        label=config.labels[0],
        start_node=config.starts[0],
        wake_round=1,
        actions=actions1,
        positions=positions1,
        moves=moves1,
    )
    trace2 = AgentTrace(
        label=config.labels[1],
        start_node=config.starts[1],
        wake_round=1 + config.delay,
        actions=actions2,
        positions=positions2,
        moves=moves2,
    )
    return RendezvousResult(
        met=met_at is not None,
        time=met_at,
        meeting_node=positions1[met_at] if met_at is not None else None,
        cost=moves1 + moves2,
        costs=(moves1, moves2),
        crossings=crossings_through(first, second, config.delay, last_round),
        rounds_executed=last_round,
        traces=(trace1, trace2),
    )


class TrajectoryTable:
    """Lazily compiled ``(label, start) -> trajectory`` cache for one sweep.

    The compilation substrate of the compiled engine: at most ``L * n``
    trajectories are compiled however many configurations are evaluated.
    ``evaluate`` answers the hot path (meeting time and cost only);
    ``result`` reconstructs the full reactive-equivalent record and is
    reserved for the few configurations that end up as extremes.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        factory: ProgramFactory,
        provide_map: bool = True,
        provide_position: bool = True,
    ):
        self.graph = graph
        self.factory = factory
        self._provide = (provide_map, provide_position)
        self._trajectories: dict[tuple[int, int], CompiledTrajectory] = {}
        #: Cumulative wall-clock seconds spent compiling trajectories --
        #: the "table build" half of this engine's profile (the rest of a
        #: sweep is timeline scanning).  Observability data only: nothing
        #: reads it back into the computation.
        self.build_seconds = 0.0

    def trajectory(self, label: int, start: int) -> CompiledTrajectory:
        key = (label, start)
        compiled = self._trajectories.get(key)
        if compiled is None:
            started = time.perf_counter()
            compiled = compile_trajectory(
                self.graph, self.factory, label, start, *self._provide
            )
            self.build_seconds += time.perf_counter() - started
            self._trajectories[key] = compiled
        return compiled

    def __len__(self) -> int:
        return len(self._trajectories)

    def evaluate(
        self,
        config: Configuration,
        max_rounds: int,
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> tuple[int | None, int]:
        """``(meeting time, cost)`` of one configuration, without traces.

        The meeting time is ``None`` when the agents do not meet within
        ``max_rounds``; the cost is counted through the meeting round, or
        through the horizon for a failure -- exactly the numbers the
        reactive engine's :class:`RendezvousResult` would carry.
        """
        first = self.trajectory(config.labels[0], config.starts[0])
        second = self.trajectory(config.labels[1], config.starts[1])
        met_at = first_meeting_time(first, second, config.delay, max_rounds, presence)
        last_round = met_at if met_at is not None else max_rounds
        cost = first.cost_through(last_round) + second.cost_through(
            max(last_round - config.delay, 0)
        )
        return met_at, cost

    def verdicts(
        self,
        items: Iterable[tuple[int, Configuration, int]],
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> Iterator[Verdict]:
        """The compiled evaluator: one verdict per ``(index, config, horizon)``.

        Lazy and in input order, so a configuration stream is never
        materialized.
        """
        evaluate = self.evaluate
        for index, config, horizon in items:
            met_at, cost = evaluate(config, horizon, presence)
            yield Verdict(index, config, horizon, met_at, cost)

    def result(
        self,
        config: Configuration,
        max_rounds: int,
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> RendezvousResult:
        """The full reactive-equivalent result of one configuration."""
        return reconstruct_result(
            self.trajectory(config.labels[0], config.starts[0]),
            self.trajectory(config.labels[1], config.starts[1]),
            config,
            max_rounds,
            presence,
        )
