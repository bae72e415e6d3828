"""Each exploration route recorded once and spliced into every trajectory.

An exploration sees only an exploration-local view (its own clock from 0,
the map and the position capability), so its walk is a function of the
node and entry port it starts from.  The segment route records each
``(procedure, node, entry port)`` walk once per table and splices it into
every trajectory that runs an EXPLORE there.  Enforced here:

* the reactive, compiled and cube engines agree on explorations that read
  the local clock and the carried-over entry port;
* each walk is recorded at most once per table, and the segment route
  never steps a round by itself;
* a walk that raises fires exactly when a build reaches the round it
  failed in -- never for a sweep whose cells all meet before it;
* a walk that reads no position is the rotated walk from every rotated
  start (the lemma behind the cube's orbit rows), and a walk that reads
  it voids the cube certificate.
"""

import collections

import pytest

from repro.core.cheap import Cheap, CheapSimultaneous
from repro.core.fast import Fast
from repro.exploration import base as exploration_base
from repro.exploration.base import (
    ExplorationBudgetError,
    measure_exploration,
    record_route,
)
from repro.exploration.dfs import KnownMapDFS
from repro.exploration.ring import RingExploration
from repro.graphs.families import circulant_graph, oriented_ring, star_graph, torus_grid
from repro.graphs.orientation import CLOCKWISE
from repro.obs import MemorySink, Telemetry
from repro.registry import EXPLORATIONS
from repro.sim.actions import WAIT
from repro.sim.adversary import (
    ConfigCube,
    all_label_pairs,
    reduce_space,
    worst_case_search,
)
from repro.sim.compiled import CompiledTrajectory, TrajectoryTable, compile_trajectory
from repro.sim.cube import CubeTimelineTable, numpy_available
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, ExplorationContext
from repro.sim.prune import rotation_automorphism
from repro.sim.simulator import PresenceModel

from tests.sim.test_compiled import ObservantExploration, Replayed

DERIVED_ENGINES = ("compiled",) + (("cube",) if numpy_available() else ())

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the cube engine needs NumPy"
)

GRAPHS = {
    "ring": lambda: oriented_ring(6),
    "torus": lambda: torus_grid(3, 3),
    "star": lambda: star_graph(4),
}


def assert_engines_agree(graph, factory, cube):
    for presence in PresenceModel:
        reactive = worst_case_search(
            graph, factory, cube, presence=presence, engine="reactive"
        )
        for engine in DERIVED_ENGINES:
            derived = worst_case_search(
                graph, factory, cube, presence=presence, engine=engine
            )
            assert derived == reactive, (engine, presence)


# ----------------------------------------------------------------------
# (a) Cross-engine identity on observation-driven explorations
# ----------------------------------------------------------------------


class ClockedExploration(ObservantExploration):
    """Waits as many rounds as its entry port says, then moves on the
    parity of its local clock: a walk that reads the clock at every round."""

    name = "clocked"

    @property
    def budget(self) -> int:
        return 5

    def moves(self, ctx, obs):
        for _ in range(obs.entry_port or 0):
            obs = yield WAIT
        while obs.clock < 4:
            obs = yield (obs.clock // 2) % obs.degree
        return obs


@pytest.mark.parametrize("exploration", [ObservantExploration, ClockedExploration])
@pytest.mark.parametrize("algorithm", [Cheap, Fast])
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_observation_driven_explorations_agree_across_engines(
    family, algorithm, exploration
):
    graph = GRAPHS[family]()
    factory = algorithm(exploration(), 3)
    cube = ConfigCube.make(graph, all_label_pairs(3), delays=(0, 1, 4))
    assert_engines_agree(graph, factory, cube)


def test_execute_hands_moves_an_exploration_local_view(ring12):
    """No label, no rng, and a clock counted from the exploration's start;
    the degree and the entry port are the agent's own."""
    seen = []

    class Spy(RingExploration):
        def moves(self, ctx, obs):
            seen.append(ctx)
            for _ in range(3):
                seen.append((obs.clock, obs.entry_port))
                obs = yield CLOCKWISE
            return obs

    context = AgentContext(label=2, graph=ring12, position_oracle=lambda: 5)
    behaviour = Spy(12).execute(context, Observation(100, 2, 1))
    assert next(behaviour) == CLOCKWISE
    for clock in (101, 102):
        assert behaviour.send(Observation(clock, 2, 1)) == CLOCKWISE
    local, *observed = seen
    assert isinstance(local, ExplorationContext) and not hasattr(local, "label")
    assert local.graph is ring12 and local.require_position() == 5
    assert observed == [(0, 1), (1, 1), (2, 1)]


# ----------------------------------------------------------------------
# (b) One recording per (procedure, node, entry port), no per-round steps
# ----------------------------------------------------------------------


def spy_recordings(monkeypatch):
    """Count every walk recorded, keyed by (procedure, node, entry port)."""
    recorded = collections.Counter()
    original = exploration_base.record_route

    def record(procedure, graph, node, entry_port=None, *args):
        recorded[(procedure, node, entry_port)] += 1
        return original(procedure, graph, node, entry_port, *args)

    monkeypatch.setattr(exploration_base, "record_route", record)
    return recorded


def forbid_steps(monkeypatch):
    def step(self, action):
        raise AssertionError("the segment route stepped a round")

    monkeypatch.setattr(CompiledTrajectory, "_step", step)


@pytest.mark.parametrize("engine", DERIVED_ENGINES)
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_each_walk_is_recorded_once_per_table(engine, family, monkeypatch):
    graph = GRAPHS[family]()
    factory = Fast(KnownMapDFS(graph), 4)
    cube = ConfigCube.make(graph, all_label_pairs(4), delays=(0, 2, 7))
    recorded = spy_recordings(monkeypatch)
    forbid_steps(monkeypatch)
    sink = MemorySink()
    telemetry = Telemetry(sink)
    report = worst_case_search(
        graph, factory, cube, engine=engine, telemetry=telemetry
    )
    telemetry.close()
    assert report.executions == len(cube)
    assert recorded and max(recorded.values()) == 1
    counters = sink.counter_totals()
    assert counters["compiled.routes.recorded"] == len(recorded)
    # Every trajectory runs the walks of several segments, so far more
    # rounds are spliced than recorded.
    recorded_rounds = len(recorded) * factory.exploration_budget
    assert counters["compiled.routes.spliced_rounds"] > recorded_rounds


def test_the_table_meters_its_routes(ring12):
    table = TrajectoryTable(ring12, Cheap(RingExploration(12), 3))
    assert len(table.routes) == 0 and table.routes.spliced_rounds == 0
    for start in range(12):
        table.trajectory(3, start)
    # Each start runs two explorations: from its start node with no entry
    # port, and from the node before it entered through port 1.
    assert len(table.routes) == 24
    assert table.routes.spliced_rounds == 12 * 2 * 11


# ----------------------------------------------------------------------
# (c) A walk that raises fires when a build reaches its round
# ----------------------------------------------------------------------


class Overrun(RingExploration):
    """Walks clockwise ``n - 1`` rounds but declares a budget of ``n - 9``."""

    @property
    def budget(self) -> int:
        return self.ring_size - 9


class BadPort(RingExploration):
    """Walks clockwise, then asks for a port no ring node has in round 5."""

    def moves(self, ctx, obs):
        for _ in range(4):
            obs = yield CLOCKWISE
        obs = yield 7
        return obs


def test_a_raising_walk_keeps_its_prefix_and_the_error(ring12):
    overrun = record_route(Overrun(12), ring12, 0)
    assert isinstance(overrun.error, ExplorationBudgetError)
    assert overrun.error_at == len(overrun.actions) == 3
    assert overrun.positions == [1, 2, 3]
    bad = record_route(BadPort(12), ring12, 0)
    assert isinstance(bad.error, ValueError) and "port 7" in str(bad.error)
    assert len(bad.actions) == 4 and bad.error_at == 5
    with pytest.raises(ExplorationBudgetError):
        measure_exploration(Overrun(12), ring12, 0)


@pytest.mark.parametrize(
    "exploration, error, fires_at",
    [
        # The procedure raises choosing round 4's action: after round 3.
        (Overrun(12), ExplorationBudgetError, 3),
        # The bad port of round 5 fails as round 5 is recorded.
        (BadPort(12), ValueError, 5),
    ],
)
def test_a_stored_error_fires_exactly_when_a_build_reaches_it(
    ring12, exploration, error, fires_at
):
    """Label 2 of simultaneous Cheap waits one budget, then explores."""
    algorithm = CheapSimultaneous(exploration, 2)
    segment = exploration.budget
    for label, start in ((1, 0), (2, 0)):
        offset = 0 if label == 1 else segment
        table = TrajectoryTable(ring12, algorithm)
        assert table.trajectory(label, start, offset + fires_at - 1).built == (
            offset + fires_at - 1
        )
        with pytest.raises(error):
            table.trajectory(label, start, offset + fires_at)
        with pytest.raises(error):  # recorded once, raised again
            table.trajectory(label, start, offset + fires_at)
        assert len(table.routes) == 1


def test_a_sweep_that_meets_before_the_overrun_matches_the_reactive_report():
    """Label 1 walks first and meets label 2 within ten rounds; its walk
    overruns its budget of 39 only in round 40, which no engine reaches."""
    ring = oriented_ring(48)
    algorithm = CheapSimultaneous(Overrun(48), 2)
    near = [(0, d) for d in range(1, 11)]
    cube = ConfigCube.make(ring, [(1, 2)], delays=(0,), start_pairs=near)
    reactive = worst_case_search(ring, algorithm, cube, 200, engine="reactive")
    assert reactive.max_time == 10 and not reactive.failures
    for engine in DERIVED_ENGINES:
        assert worst_case_search(ring, algorithm, cube, 200, engine=engine) == reactive
    far = ConfigCube.make(ring, [(1, 2)], delays=(0,), start_pairs=[(0, 45)])
    for engine in ("reactive",) + DERIVED_ENGINES:
        with pytest.raises(ExplorationBudgetError):
            worst_case_search(ring, algorithm, far, 200, engine=engine)


# ----------------------------------------------------------------------
# (d) Missing knowledge raises as before
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, message",
    [
        ((False, True), "requires a map of the graph"),
        ((True, False), "requires a map with a marked current position"),
    ],
)
def test_a_map_procedure_without_its_knowledge_raises(ring12, flags, message):
    algorithm = Fast(KnownMapDFS(ring12), 3)
    for factory in (algorithm, Replayed(algorithm)):
        with pytest.raises(ValueError, match=message):
            compile_trajectory(ring12, factory, 2, 0, *flags)
        with pytest.raises(ValueError, match=message):
            TrajectoryTable(ring12, factory, *flags).trajectory(2, 0, 1)
    with pytest.raises(ValueError, match=message):
        measure_exploration(KnownMapDFS(ring12), ring12, 0, *flags)


# ----------------------------------------------------------------------
# (e) A walk that reads no position rotates; one that reads it voids
# ----------------------------------------------------------------------

#: Graphs whose rotation ``v -> v + 1`` preserves every port.
ROTATION_GRAPHS = {
    "ring-5": lambda: oriented_ring(5),
    "ring-6": lambda: oriented_ring(6),
    "ring-8": lambda: oriented_ring(8),
    "circulant(8,(1,2))": lambda: circulant_graph(8, (1, 2)),
    "circulant(7,(1,3))": lambda: circulant_graph(7, (1, 3)),
}

#: The map-with-position procedures: each reads its position when granted.
POSITION_READERS = {"dfs-open", "dfs-closed", "eulerian", "hamiltonian"}


def route_facts(route, shift, n):
    """A route's observable record with its positions rotated by ``shift``."""
    error = route.error
    return (
        [(position + shift) % n for position in route.positions],
        route.actions,
        route.cumulative,
        route.moves,
        route.entry_port,
        None if error is None else (type(error), str(error)),
        route.error_at,
    )


@pytest.mark.parametrize("name", EXPLORATIONS.names())
def test_a_walk_that_reads_no_position_is_the_rotated_walk(name):
    """The lemma of ``record_route``, by brute force: every start, entry
    port and position flag on every rotation-symmetric graph the
    procedure applies to."""
    applied = 0
    for graph_name, build in ROTATION_GRAPHS.items():
        graph = build()
        assert rotation_automorphism(graph), graph_name
        try:
            procedure = EXPLORATIONS.entry(name).build(graph)
        except ValueError:  # e.g. ring-clockwise off a ring
            continue
        applied += 1
        n = graph.num_nodes
        for provide_position in (True, False):
            for entry_port in (None, *range(graph.degree(0))):
                walks = [
                    record_route(
                        procedure, graph, node, entry_port, True, provide_position
                    )
                    for node in range(n)
                ]
                origin = walks[0]
                if provide_position and name in POSITION_READERS:
                    assert origin.reads_position, (graph_name, entry_port)
                for node, walk in enumerate(walks):
                    assert walk.reads_position == origin.reads_position
                    if not walk.reads_position:
                        assert route_facts(walk, 0, n) == route_facts(
                            origin, node, n
                        ), (graph_name, provide_position, entry_port, node)
    assert applied >= 3


class AnchoredExploration(RingExploration):
    """Reads its position and walks only when it starts at node 0."""

    def moves(self, ctx, obs):
        anchored = ctx.require_position() == 0
        for _ in range(self.ring_size - 1):
            obs = yield (CLOCKWISE if anchored else WAIT)
        return obs


@needs_numpy
def test_a_start_divergent_exploration_voids_the_certificate():
    ring = oriented_ring(6)
    algorithm = Cheap(AnchoredExploration(6), 3)
    table = CubeTimelineTable(ring, algorithm)
    assert table.certificate.orbit
    cube = ConfigCube.make(ring, all_label_pairs(3), delays=(0, 3))

    (reduction,) = reduce_space(
        "cube", table, ring, algorithm, cube, [(0, len(cube))], None,
        PresenceModel.FROM_START,
    )
    assert not table.certificate.orbit
    assert "read its position" in table.certificate.reason
    # The start-1 row recorded its walk from node 1 itself, not by rotation.
    routes = table.trajectories.routes
    assert routes.position_read
    assert (algorithm.exploration, 1, None) in routes
    assert routes[algorithm.exploration, 0, None].moves == 5
    assert routes[algorithm.exploration, 1, None].moves == 0
    assert reduction.report() == worst_case_search(
        ring, algorithm, cube, engine="reactive"
    )
