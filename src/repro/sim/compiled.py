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
extreme verdicts with their indices and tie-broken argmax
configurations, executions and ``(index, configuration)`` failures --
to the reactive engine's:
:meth:`TrajectoryTable.verdicts` measures exactly the reactive ``(time,
cost)`` and the shared :class:`~repro.sim.adversary.Reduction` picks the
extremes.  The cross-engine suite in ``tests/sim/test_compiled.py``
asserts exactly that over every registered algorithm x graph family x
presence model x delay grid.  No full execution is rebuilt here: a
caller that wants one with traces replays the configuration through
the reactive simulator.

Compilation takes one of two routes, picked by structure, never by a
declared flag.  When the factory is a
:class:`~repro.core.base.RendezvousAlgorithm` whose program is its
schedule (:func:`~repro.core.base.schedule_driven`: it overrides neither
``__call__`` nor ``body``, the rule that also derives ``is_oblivious``),
the *segment route* walks ``schedule(label)``: a ``WAIT(k)`` segment
extends the timeline by ``k`` rounds in one step, and each ``EXPLORE``
segment runs the real ``exploration.execute`` generator on the
observations the program would see.  Every other factory takes the
*replay route*, which drives the agent program itself one round at a
time.  Either way exploration routes and budget enforcement are the
reactive engine's own code, not a re-implementation; only the
per-configuration interaction logic (colocation, presence, costs) is
specialised here.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter here meters trajectory-table
# builds and scans for telemetry gauges (build_seconds); measurements
# flow only through Telemetry, never into report bytes, as the
# inertness matrix in tests/obs proves dynamically.

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import WAIT, Action, validate_action
from repro.sim.adversary import Configuration, Verdict
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, ProgramFactory, ReactiveProgram
from repro.sim.simulator import PresenceModel


@dataclass(frozen=True)
class CompiledTrajectory:
    """One agent's full solo timeline: what ``(label, start)`` determines.

    ``positions[t]`` is the node occupied at time point ``t`` for
    ``t = 0..T`` (``T`` = the schedule length in rounds); after ``T`` the
    agent idles at ``positions[T]`` forever.  ``actions[r - 1]`` is the
    action of round ``r`` (``None`` for a wait), and
    ``cumulative_cost[r]`` the number of edge traversals through round
    ``r`` (``cumulative_cost[0] == 0``).
    """

    label: int
    start: int
    positions: tuple[int, ...]
    actions: tuple[Action, ...]
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


class _Recorder:
    """One agent's solo timeline as it is compiled, round by round or in runs."""

    __slots__ = ("graph", "positions", "actions", "cumulative", "moves", "entry_port")

    def __init__(self, graph: PortLabeledGraph, start: int):
        self.graph = graph
        self.positions = [start]
        self.actions: list[Action] = []
        self.cumulative = [0]
        self.moves = 0
        self.entry_port: int | None = None  # persists across waits, as in the simulator

    def observation(self) -> Observation:
        """What the agent perceives before its next round."""
        return Observation(
            clock=len(self.actions),
            degree=self.graph.degree(self.positions[-1]),
            entry_port=self.entry_port,
        )

    def act(self, action: Action) -> None:
        """Record one round's action."""
        position = self.positions[-1]
        validate_action(action, self.graph.degree(position))
        if action is not None:
            position, self.entry_port = self.graph.neighbor_via(position, action)
            self.moves += 1
        self.actions.append(action)
        self.positions.append(position)
        self.cumulative.append(self.moves)

    def wait(self, rounds: int) -> None:
        """Record ``rounds`` consecutive waits in one step."""
        self.positions.extend([self.positions[-1]] * rounds)
        self.actions.extend([WAIT] * rounds)
        self.cumulative.extend([self.moves] * rounds)

    def trajectory(self, label: int) -> CompiledTrajectory:
        return CompiledTrajectory(
            label=label,
            start=self.positions[0],
            positions=tuple(self.positions),
            actions=tuple(self.actions),
            cumulative_cost=tuple(self.cumulative),
        )


def _still_active(factory: ProgramFactory, label: int, total: int) -> ValueError:
    return ValueError(
        f"cannot compile {getattr(factory, 'name', factory)!r}: the program "
        f"for label {label} is still active after its declared "
        f"schedule_length of {total} rounds"
    )


def compile_trajectory(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    label: int,
    start: int,
    provide_map: bool = True,
    provide_position: bool = True,
) -> CompiledTrajectory:
    """Run agent ``label`` solo from ``start`` and record its timeline.

    Records exactly ``factory.schedule_length(label)`` rounds, feeding the
    agent the same observations (clock, degree, last entry port) a
    two-agent run would -- legitimate because oblivious programs never
    observe the other agent.  A schedule-driven algorithm is compiled
    segment by segment, anything else by replaying its program (see the
    module docstring); both routes give the same trajectory.  Fails
    loudly if the program is still active past its declared schedule
    length: a factory whose behaviour outlives ``schedule_length`` is not
    schedule-driven and must use the reactive engine.
    """
    from repro.core.base import schedule_driven  # deferred: core imports sim

    schedule_length = getattr(factory, "schedule_length", None)
    if schedule_length is None:
        raise ValueError(
            f"cannot compile {getattr(factory, 'name', factory)!r}: "
            "the factory exposes no schedule_length"
        )
    total = schedule_length(label)

    recorder = _Recorder(graph, start)
    context = AgentContext(
        label=label,
        graph=graph if provide_map else None,
        position_oracle=(
            (lambda: recorder.positions[-1]) if provide_position else None
        ),
    )
    if schedule_driven(type(factory)):
        _record_segments(recorder, factory, context)
        if len(recorder.actions) > total:
            raise _still_active(factory, label, total)
        recorder.wait(total - len(recorder.actions))
    else:
        _record_replay(recorder, factory, context, total)
    return recorder.trajectory(label)


def _record_segments(recorder: _Recorder, algorithm, context: AgentContext) -> None:
    """The segment route: waits in one step, explorations by their generator."""
    from repro.core.schedule import SegmentKind

    algorithm._check_label(context.label)
    exploration = algorithm.exploration
    for segment in algorithm.schedule(context.label):
        if segment.kind is SegmentKind.WAIT:
            recorder.wait(segment.rounds)
            continue
        behaviour = exploration.execute(context, recorder.observation())
        try:
            action = next(behaviour)
            while True:
                recorder.act(action)
                action = behaviour.send(recorder.observation())
        except StopIteration:
            pass


def _record_replay(
    recorder: _Recorder, factory: ProgramFactory, context: AgentContext, total: int
) -> None:
    """The replay route: drive the agent program for ``total`` rounds."""
    program = ReactiveProgram(factory(context))
    for _ in range(total):
        recorder.act(program.step(recorder.observation()))
    # The schedule must be exhausted: one further step has to yield the
    # implicit wait-forever, or the declared length lied and compiled
    # results would silently diverge from the reactive engine.
    if program.step(recorder.observation()) is not WAIT or not program.finished:
        raise _still_active(factory, context.label, total)


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


class TrajectoryTable:
    """Lazily compiled ``(label, start) -> trajectory`` cache for one sweep.

    The compilation substrate of the compiled engine: at most ``L * n``
    trajectories are compiled however many configurations are evaluated.
    ``evaluate`` answers one configuration's meeting time and cost, the
    numbers a report keeps.
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
        reactive engine's :class:`~repro.sim.metrics.RendezvousResult`
        would carry.
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
            yield Verdict(index, config, met_at, cost)
