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
each configuration by scanning two position timelines for their first
(delay-shifted) colocation.

Timelines are built on demand.  A :class:`CompiledTrajectory` is a
recorder that can resume: :meth:`TrajectoryTable.trajectory` extends it
through the time point a reader asks for, and the meeting scans ask in
time blocks that double from :data:`MIN_TIME_BLOCK`, so a trajectory is
built about as far as the latest meeting that reads it -- the whole
``schedule_length`` only when some configuration misses, meets late or
reads the parked tail.  A meeting round and its cost depend only on the
prefix, so nothing a report holds depends on how far a trajectory was
built.

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
schedule (:func:`~repro.core.base.schedule_driven`: it does not override
``__call__``, the rule that also derives ``is_oblivious``),
the *segment route* walks ``schedule(label)``: a ``WAIT(k)`` segment
extends the timeline by ``k`` rounds in one step (in runs, at a block
edge), and each ``EXPLORE`` segment splices in the route of the
exploration it names (the algorithm's own by default) from the agent's
node and entry port there.  ``execute`` hands an exploration only a local
view (its own clock from 0, the map, the position capability), so that
route is a function of its start: a :class:`RouteMemo` records each
``(procedure, node, entry port)`` route once per table with
:func:`~repro.exploration.base.record_route` and splices it, up to the
build target, into every trajectory that reaches it; a stored error
fires only when a build reaches its round.  Every other factory takes
the *replay route*, which drives the agent program one round at a time.
Either way exploration routes and budget enforcement are the reactive
engine's own code, not a re-implementation; only the per-configuration
interaction logic (colocation, presence, costs) is specialised here.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- perf_counter here meters trajectory-table
# builds and scans for telemetry gauges (build_seconds); measurements
# flow only through Telemetry, never into report bytes, as the
# inertness matrix in tests/obs proves dynamically.

import time
from operator import eq, indexOf
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import WAIT, Action, validate_action
from repro.sim.adversary import Configuration, Verdict
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, ProgramFactory, ReactiveProgram
from repro.sim.simulator import PresenceModel

if TYPE_CHECKING:  # exploration imports sim, so its names load at run time
    from repro.exploration.base import ExplorationProcedure, Route


#: The first time block a meeting scan reads.  Later blocks double, so a
#: trajectory is built about as far as its latest meeting, never more
#: than twice that (the cube engine's column blocks start from it too).
MIN_TIME_BLOCK = 16


class CompiledTrajectory:
    """One agent's solo timeline: what ``(label, start)`` determines.

    Built on demand: :meth:`extend` records the timeline through a time
    point, resuming the suspended schedule (or program) where the last
    extension stopped.  ``positions[t]`` is the node occupied at time
    point ``t`` for ``t = 0..built``; once built to ``length`` (``T``, the
    schedule length) the agent idles at ``positions[T]`` forever.
    ``actions[r - 1]`` is the action of round ``r`` (``None`` for a
    wait), and ``cumulative_cost[r]`` the number of edge traversals
    through round ``r`` (``cumulative_cost[0] == 0``).  The three read
    as tuples of the built prefix; the engines read the lists behind
    them.
    """

    __slots__ = (
        "label",
        "start",
        "length",
        "_rows",
        "_factory",
        "_positions",
        "_actions",
        "_cumulative",
        "_moves",
        "_entry_port",
        "_target",
        "_steps",
    )

    def __init__(
        self, graph: PortLabeledGraph, factory: ProgramFactory, label: int, start: int,
        length: int,
    ):
        self.label = label
        self.start = start
        self.length = length
        self._rows = graph.adjacency()
        self._factory = factory
        self._positions = [start]
        self._actions: list[Action] = []
        self._cumulative = [0]
        self._moves = 0
        self._entry_port: int | None = None  # persists across waits, as in the simulator
        self._target = 0
        #: The suspended recording generator; ``None`` once the whole
        #: schedule is recorded and checked.
        self._steps: Iterator[None] | None = None

    @property
    def built(self) -> int:
        """The last time point recorded so far."""
        return len(self._positions) - 1

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(self._positions)

    @property
    def actions(self) -> tuple[Action, ...]:
        return tuple(self._actions)

    @property
    def cumulative_cost(self) -> tuple[int, ...]:
        return tuple(self._cumulative)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledTrajectory):
            return NotImplemented
        return (self.label, self.start, self.length, self._positions, self._actions) == (
            other.label, other.start, other.length, other._positions, other._actions
        )

    __hash__ = None  # type: ignore[assignment]  # it grows

    def __repr__(self) -> str:
        return (
            f"CompiledTrajectory(label={self.label}, start={self.start}, "
            f"length={self.length}, built={self.built})"
        )

    def reaches(self, upto: int | None) -> bool:
        """Whether the timeline is built through ``upto`` (``None``: all of it)."""
        if self._steps is None:
            return True
        return upto is not None and upto < len(self._positions)

    def extend(self, upto: int | None = None) -> None:
        """Record through time point ``min(upto, length)``; ``None`` records all.

        Reaching ``length`` runs the program's end check: a program still
        active past its declared schedule length raises.
        """
        target = self.length if upto is None else min(upto, self.length)
        if self._steps is None or (
            target < len(self._positions) and target < self.length
        ):
            return
        self._target = target
        if next(self._steps, _DONE) is _DONE:
            self._steps = None

    def window(self, lo: int, hi: int) -> tuple[list[int], list[Action], list[int]]:
        """Time points ``lo..hi - 1`` as built: positions, the actions of
        their rounds (round ``t`` ends at time point ``t``) and costs."""
        return (
            self._positions[lo:hi],
            self._actions[max(lo - 1, 0) : hi - 1],
            self._cumulative[lo:hi],
        )

    def position_at(self, time_point: int) -> int:
        """The node occupied at ``time_point`` (parked past the schedule)."""
        if time_point < 0:
            raise ValueError(f"time points are non-negative, got {time_point}")
        return self._read(self._positions, time_point)

    def cost_through(self, round_: int) -> int:
        """Edge traversals through round ``round_`` (clamped to the schedule)."""
        return self._read(self._cumulative, round_)

    def _read(self, timeline: list[int], time_point: int) -> int:
        if time_point < len(timeline):
            return timeline[time_point]
        if self._steps is not None:
            raise ValueError(
                f"time point {time_point} is past the built prefix "
                f"(0..{self.built}) of a trajectory of length {self.length}"
            )
        return timeline[-1]

    # -- recording ------------------------------------------------------

    def _room(self) -> int:
        """Rounds the recorder may take before pausing at its target."""
        built = len(self._positions) - 1
        if built == self.length:
            raise _still_active(self._factory, self.label, self.length)
        return self._target - built

    def _step(self, action: Action) -> Observation:
        """Record one round's action; return what the agent perceives next."""
        rows = self._rows
        position = self._positions[-1]
        if action is not None:
            row = rows[position]
            if action.__class__ is not int or not 0 <= action < len(row):
                validate_action(action, len(row))  # raises unless an int subclass
            position, self._entry_port = row[action]
            self._moves += 1
        self._actions.append(action)
        self._positions.append(position)
        self._cumulative.append(self._moves)
        return Observation(len(self._actions), len(rows[position]), self._entry_port)

    def _idle(self, rounds: int) -> None:
        """Record ``rounds`` consecutive waits in one step."""
        self._positions.extend([self._positions[-1]] * rounds)
        self._actions.extend([WAIT] * rounds)
        self._cumulative.extend([self._moves] * rounds)

    def _wait(self, rounds: int) -> Iterator[None]:
        """Record ``rounds`` consecutive waits, in runs up to the target."""
        while rounds:
            room = self._room()
            if room <= 0:
                yield
                continue
            run = min(room, rounds)
            self._idle(run)
            rounds -= run


_DONE = object()


def _still_active(factory: ProgramFactory, label: int, total: int) -> ValueError:
    return ValueError(
        f"cannot compile {getattr(factory, 'name', factory)!r}: the program "
        f"for label {label} is still active after its declared "
        f"schedule_length of {total} rounds"
    )


class RouteMemo(dict):
    """``(procedure, node, entry port) -> Route`` for one graph and knowledge.

    A missing route is recorded on first use
    (:func:`~repro.exploration.base.record_route`), so each is recorded
    once however many trajectories splice it; ``spliced_rounds`` counts
    the route rounds spliced.  Both counts are observability data only.
    ``position_read`` tells whether any route recorded here read its
    position: while it is false, every walk this memo spliced is the
    rotated copy of itself from a rotated start on a port-preserving
    rotation (:func:`~repro.exploration.base.record_route`).
    """

    def __init__(
        self, graph: PortLabeledGraph, provide_map: bool = True,
        provide_position: bool = True,
    ):
        super().__init__()
        self._knowledge = (provide_map, provide_position)
        self._graph = graph
        self.spliced_rounds = 0
        self.position_read = False

    def __missing__(self, key: tuple[ExplorationProcedure, int, int | None]) -> Route:
        from repro.exploration.base import record_route  # deferred: it imports sim

        procedure, node, entry_port = key
        route = self[key] = record_route(
            procedure, self._graph, node, entry_port, *self._knowledge
        )
        self.position_read |= route.reads_position
        return route


def open_trajectory(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    label: int,
    start: int,
    provide_map: bool = True,
    provide_position: bool = True,
    routes: RouteMemo | None = None,
) -> CompiledTrajectory:
    """Agent ``label``'s solo timeline from ``start``, built to time point 0.

    :meth:`CompiledTrajectory.extend` records it further, feeding the
    agent the same observations (clock, degree, last entry port) a
    two-agent run would -- legitimate because oblivious programs never
    observe the other agent.  A schedule-driven algorithm is recorded
    segment by segment, its explorations spliced from ``routes`` (a
    :class:`RouteMemo` of the same graph and knowledge; a private one
    when ``None``), anything else by replaying its program (see the
    module docstring); both routes give the same trajectory.  A factory
    whose program is still active past its declared schedule length is
    not schedule-driven: the extension that reaches that length raises.
    """
    from repro.core.base import schedule_driven  # deferred: core imports sim

    schedule_length = getattr(factory, "schedule_length", None)
    if schedule_length is None:
        raise ValueError(
            f"cannot compile {getattr(factory, 'name', factory)!r}: "
            "the factory exposes no schedule_length"
        )
    total = schedule_length(label)
    trajectory = CompiledTrajectory(graph, factory, label, start, total)
    if schedule_driven(type(factory)):
        if routes is None:
            routes = RouteMemo(graph, provide_map, provide_position)
        trajectory._steps = _record_segments(trajectory, factory, label, routes)
    else:
        context = AgentContext(
            label=label,
            graph=graph if provide_map else None,
            position_oracle=(
                (lambda: trajectory._positions[-1]) if provide_position else None
            ),
        )
        trajectory._steps = _record_replay(trajectory, factory, context, total)
    return trajectory


def compile_trajectory(
    graph: PortLabeledGraph,
    factory: ProgramFactory,
    label: int,
    start: int,
    provide_map: bool = True,
    provide_position: bool = True,
) -> CompiledTrajectory:
    """Run agent ``label`` solo from ``start`` through its whole schedule.

    :func:`open_trajectory` extended to ``factory.schedule_length(label)``
    rounds; fails loudly if the program is still active past it.
    """
    trajectory = open_trajectory(
        graph, factory, label, start, provide_map, provide_position
    )
    trajectory.extend()
    return trajectory


def _record_segments(
    trajectory: CompiledTrajectory, algorithm, label: int, routes: RouteMemo
) -> Iterator[None]:
    """The segment route: waits in runs, explorations spliced from routes.

    A generator that pauses (yields) whenever the trajectory reaches its
    target.  An EXPLORE segment splices the route of the procedure it
    names (or the algorithm's own) from the agent's node and entry port,
    slice by slice up to the target; a route that raised raises once the
    build reaches the round it failed in.
    """
    from repro.core.schedule import SegmentKind

    algorithm._check_label(label)
    default = algorithm.exploration
    positions, actions, cumulative = (
        trajectory._positions, trajectory._actions, trajectory._cumulative
    )
    room = trajectory._room
    for segment in algorithm.schedule(label):
        if segment.kind is SegmentKind.WAIT:
            yield from trajectory._wait(segment.rounds)
            continue
        route = routes[
            segment.exploration or default, positions[-1], trajectory._entry_port
        ]
        base, done, end = trajectory._moves, 0, len(route.actions)
        while done < end:
            left = room()
            if left <= 0:
                yield
                continue
            stop = min(done + left, end)
            positions.extend(route.positions[done:stop])
            actions.extend(route.actions[done:stop])
            costs = route.cumulative[done:stop]
            cumulative.extend(map(base.__add__, costs) if base else costs)
            routes.spliced_rounds += stop - done
            done = stop
        if route.error is not None:
            while route.error_at > done and room() <= 0:
                yield
            raise route.error
        trajectory._moves = base + route.moves
        trajectory._entry_port = route.entry_port
    # A declared length past the schedule's own parks the agent.
    yield from trajectory._wait(trajectory.length - trajectory.built)


def _record_replay(
    trajectory: CompiledTrajectory,
    factory: ProgramFactory,
    context: AgentContext,
    total: int,
) -> Iterator[None]:
    """The replay route: drive the agent program for ``total`` rounds."""
    program = ReactiveProgram(factory(context))
    observation = Observation(0, len(trajectory._rows[trajectory.start]), None)
    for _ in range(total):
        while trajectory._room() <= 0:
            yield
        observation = trajectory._step(program.step(observation))
    # The schedule must be exhausted: one further step has to yield the
    # implicit wait-forever, or the declared length lied and compiled
    # results would silently diverge from the reactive engine.
    if program.step(observation) is not WAIT or not program.finished:
        raise _still_active(factory, context.label, total)


def _meeting_in(
    first: CompiledTrajectory,
    second: CompiledTrajectory,
    delay: int,
    lo: int,
    hi: int,
) -> int | None:
    """First time point in ``[lo, hi]`` at which the agents colocate.

    The second agent's timeline is shifted by ``delay`` (it sits at its
    start until then).  Both trajectories must be built through the
    window (``hi`` and ``hi - delay``); a parked end is read only past a
    schedule, where the window has made its trajectory complete.  The
    window is split into phases so every stretch runs through a C-speed
    search instead of a Python loop: ``list.index`` where one agent is
    stationary (waiting periods, parked schedule tails), and the first
    ``True`` of a lazy ``map(eq, ...)`` where both move.
    """
    p1, p2 = first._positions, second._positions
    length1, length2 = first.length, second.length
    start2 = p2[0]

    # Phase 1 -- t <= delay: agent 2 at its start.
    top = min(delay, hi)
    if lo <= top:
        cut = min(top, length1)
        if lo <= cut:
            try:
                return p1.index(start2, lo, cut + 1)
            except ValueError:
                pass
        if top > length1 and p1[-1] == start2:
            return max(lo, length1 + 1)

    # Phase 2 -- delay < t <= delay + T2: agent 2 en route.
    begin = max(lo, delay + 1)
    top = min(hi, delay + length2)
    if begin <= top:
        cut = min(top, length1)
        if begin <= cut:
            shifted = begin - delay
            window = cut - begin + 1
            same = map(eq, p1[begin : cut + 1], p2[shifted : shifted + window])
            try:
                return begin + indexOf(same, True)
            except ValueError:
                pass
        if top > length1:
            parked_lo = max(begin, length1 + 1)
            try:
                return p2.index(p1[-1], parked_lo - delay, top - delay + 1) + delay
            except ValueError:
                pass

    # Phase 3 -- t > delay + T2: agent 2 parked at its endpoint.
    begin = max(lo, delay + length2 + 1)
    if begin <= hi:
        end2 = p2[-1]
        cut = min(hi, length1)
        if begin <= cut:
            try:
                return p1.index(end2, begin, cut + 1)
            except ValueError:
                pass
        if hi > length1 and p1[-1] == end2:
            return max(begin, length1 + 1)
    return None


class TrajectoryTable:
    """Lazily compiled ``(label, start) -> trajectory`` cache for one sweep.

    The compilation substrate of the compiled engine: at most ``L * n``
    trajectories are compiled however many configurations are evaluated,
    and their explorations are spliced from one :class:`RouteMemo`
    (``routes``: ``len(routes)`` routes recorded,
    ``routes.spliced_rounds`` rounds spliced).  ``evaluate`` answers one
    configuration's meeting time and cost, the numbers a report keeps.
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
        self.routes = RouteMemo(graph, provide_map, provide_position)
        self._trajectories: dict[tuple[int, int], CompiledTrajectory] = {}
        #: Cumulative wall-clock seconds spent compiling trajectories --
        #: the "table build" half of this engine's profile (the rest of a
        #: sweep is timeline scanning).  Observability data only: nothing
        #: reads it back into the computation.
        self.build_seconds = 0.0

    def trajectory(
        self, label: int, start: int, upto: int | None = None
    ) -> CompiledTrajectory:
        """The ``(label, start)`` trajectory, built through time point ``upto``.

        ``None`` builds the whole schedule.  Every build step of this
        engine, and of the cube engine's rows, goes through here: a
        trajectory is opened once and extended only as far as some
        reader asked.  A build that raises drops the trajectory, so the
        next request raises again.
        """
        key = (label, start)
        compiled = self._trajectories.get(key)
        if compiled is not None and compiled.reaches(upto):
            return compiled
        started = time.perf_counter()
        try:
            if compiled is None:
                compiled = self._trajectories[key] = open_trajectory(
                    self.graph, self.factory, label, start, *self._provide,
                    self.routes,
                )
            compiled.extend(upto)
        except BaseException:
            self._trajectories.pop(key, None)
            raise
        finally:
            self.build_seconds += time.perf_counter() - started
        return compiled

    def __len__(self) -> int:
        return len(self._trajectories)

    def first_meeting_time(
        self,
        config: Configuration,
        horizon: int,
        presence: PresenceModel = PresenceModel.FROM_START,
    ) -> int | None:
        """First time point in ``[0, horizon]`` at which the agents colocate.

        The second agent's timeline is shifted by ``config.delay``; under
        :attr:`PresenceModel.PARACHUTE` time points before its wake
        (``t < delay``) cannot be meetings.  The window is read in time
        blocks that double from :data:`MIN_TIME_BLOCK`, each first
        extending both trajectories as far as it reads, so a
        configuration that meets early builds neither schedule in full.
        No block looks past ``max(T1, delay + T2)``: beyond it both agents
        are parked, so a colocation there implies one at that point.
        """
        return self._scan(config, horizon, presence)[0]

    def _scan(
        self, config: Configuration, horizon: int, presence: PresenceModel
    ) -> tuple[int | None, CompiledTrajectory, CompiledTrajectory]:
        """:meth:`first_meeting_time` and the two trajectories it read."""
        (label1, label2), (start1, start2), delay = (
            config.labels, config.starts, config.delay
        )
        first = self.trajectory(label1, start1, 0)
        second = self.trajectory(label2, start2, 0)
        limit = min(horizon, max(first.length, delay + second.length))
        lo = delay if presence is PresenceModel.PARACHUTE else 0
        block = MIN_TIME_BLOCK
        while lo <= limit:
            # Read whatever is built already in one go.
            hi = min(limit, max(lo + block - 1, min(first.built, second.built + delay)))
            block *= 2
            if not first.reaches(hi):
                first = self.trajectory(label1, start1, hi)
            if not second.reaches(hi - delay):
                second = self.trajectory(label2, start2, hi - delay)
            met_at = _meeting_in(first, second, delay, lo, hi)
            if met_at is not None:
                return met_at, first, second
            lo = hi + 1
        return None, first, second

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
        would carry.  The meeting scan has usually built both
        trajectories as far as these reads go.
        """
        met_at, first, second = self._scan(config, max_rounds, presence)
        last_round = met_at if met_at is not None else max_rounds
        wake_round = max(last_round - config.delay, 0)
        if not first.reaches(last_round):
            first = self.trajectory(config.labels[0], config.starts[0], last_round)
        if not second.reaches(wake_round):
            second = self.trajectory(config.labels[1], config.starts[1], wake_round)
        return met_at, first.cost_through(last_round) + second.cost_through(wake_round)

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
