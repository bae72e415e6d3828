"""Timelines on demand, and the programs they move onto the cube.

The compiled and cube engines build each trajectory only as far as the
meeting scan reads it, in the same doubling time blocks the scan uses.
Four contracts are enforced here:

* the ring zigzag, iterated doubling and the oracle are schedule-driven
  by structure, run on both derived engines, and report exactly what the
  reactive engine reports -- which in turn still equals what their
  generator programs produced before they were schedules;
* a sweep whose cells all meet early never builds past the block in
  which they met;
* the orbit certificate holds while the start-0 rows splice only walks
  that read no position: a later EXPLORE that reads it voids the
  certificate once a build reaches it, and not before;
* a program still active past its declared schedule length raises once a
  sweep builds to that length.
"""

import hashlib
import itertools

import pytest

from repro.baselines.oracle import OracleBaseline
from repro.baselines.ring_zigzag import RingZigzag
from repro.core.ablations import CheapShortWait
from repro.core.base import RendezvousAlgorithm
from repro.core.cheap import Cheap
from repro.core.fast import Fast
from repro.core.schedule import Schedule, explore, wait
from repro.core.unknown_e import IteratedDoublingRendezvous, ring_level_factory
from repro.exploration.dfs import KnownMapDFS
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring, torus_grid
from repro.graphs.orientation import CLOCKWISE
from repro.sim.actions import WAIT
from repro.sim.adversary import (
    ConfigCube,
    all_label_pairs,
    reduce_space,
    resolve_substrate,
    worst_case_search,
)
from repro.sim.compiled import MIN_TIME_BLOCK, TrajectoryTable, compile_trajectory
from repro.sim.cube import CubeTimelineTable, numpy_available
from repro.sim.simulator import PresenceModel, simulate_rendezvous

# The replay-route wrapper of the segment-route suite.
from tests.sim.test_compiled import Replayed

DERIVED_ENGINES = ("compiled",) + (("cube",) if numpy_available() else ())

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the cube engine needs NumPy"
)


def assert_engines_agree(graph, factory, cube, presences=tuple(PresenceModel)):
    for presence in presences:
        reactive = worst_case_search(
            graph, factory, cube, presence=presence, engine="reactive"
        )
        for engine in DERIVED_ENGINES:
            derived = worst_case_search(
                graph, factory, cube, presence=presence, engine=engine
            )
            assert derived == reactive, (engine, presence)


# ----------------------------------------------------------------------
# Schedule-driven by structure
# ----------------------------------------------------------------------


def doubling(inner=Fast, max_level=6, label_space=3):
    return IteratedDoublingRendezvous(
        inner, ring_level_factory(), label_space, start_level=2, max_level=max_level
    )


class TestScheduleDriven:
    def test_the_three_programs_derive_is_oblivious(self):
        programs = (
            RingZigzag(12, 4),
            doubling(),
            OracleBaseline(RingExploration(12), (2, 5)),
        )
        for program in programs:
            assert program.is_oblivious, program.name
            assert resolve_substrate("auto", program) == (
                "cube" if numpy_available() else "compiled"
            )
            with pytest.raises(NotImplementedError):
                program.time_bound()
            with pytest.raises(NotImplementedError):
                program.cost_bound()

    def test_doubling_schedule_names_each_level_exploration(self):
        wrapper = doubling(max_level=4)
        explorations = [
            segment.exploration
            for segment in wrapper.schedule(2)
            if segment.exploration is not None
        ]
        assert {e.budget for e in explorations} == {3, 7, 15}
        assert wrapper.schedule_length(2) == wrapper.horizon_through(2, 4)

    def test_zigzag_schedule_sweeps_or_waits_four_radii(self):
        zigzag = RingZigzag(12, 4)
        for segment, (sweep, bit) in zip(
            zigzag.schedule(3),
            itertools.product(zigzag.sweeps, (0, 0, 1, 1, 1, 1, 0, 1)),
        ):
            if bit:
                assert segment.exploration is sweep
            else:
                assert segment.rounds == sweep.budget == 4 * sweep.radius

    def test_oracle_smaller_label_has_an_empty_schedule(self):
        oracle = OracleBaseline(RingExploration(12), (2, 5))
        assert len(oracle.schedule(2)) == 0 and oracle.schedule_length(2) == 0
        assert oracle.schedule_length(5) == 11
        with pytest.raises(ValueError, match="not part of the pair"):
            oracle.schedule_length(3)


class PositionReading(RingExploration):
    """The clockwise walk, after reading its position once."""

    def moves(self, ctx, obs):
        ctx.require_position()
        return (yield from super().moves(ctx, obs))


@needs_numpy
def test_the_orbit_gate_checks_every_named_exploration(ring12):
    def levels(level):
        exploration = RingExploration(max(3, 2**level))
        return PositionReading(exploration.ring_size) if level == 4 else exploration

    wrapper = IteratedDoublingRendezvous(Fast, levels, 3, start_level=2, max_level=5)
    table = CubeTimelineTable(ring12, wrapper)
    assert table.certificate.orbit
    cube = ConfigCube.make(ring12, [(1, 2), (3, 1)], delays=(0, 4))
    horizon = max(wrapper.schedule_length(label) for label in (1, 2, 3))
    (reduction,) = reduce_space(
        "cube", table, ring12, wrapper, cube, [(0, len(cube))], horizon,
        PresenceModel.FROM_START,
    )
    assert not table.certificate.orbit
    assert "read its position" in table.certificate.reason
    assert reduction.report() == worst_case_search(
        ring12, wrapper, cube, horizon, engine="reactive"
    )
    assert CubeTimelineTable(ring12, doubling(max_level=5)).timelines(1, 0).rows == 1


# ----------------------------------------------------------------------
# (a) Cross-engine identity, reactive as the oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [6, 11, 16])
def test_zigzag_agrees_across_engines_at_every_start_pair(n):
    ring = oriented_ring(n)
    zigzag = RingZigzag(n, 3)
    cube = ConfigCube.make(ring, all_label_pairs(3), delays=(0,))
    assert_engines_agree(ring, zigzag, cube)


@pytest.mark.parametrize("n, max_level", [(6, 6), (9, 8), (12, 10)])
@pytest.mark.parametrize("inner", [Fast, Cheap])
def test_iterated_doubling_agrees_across_engines(n, max_level, inner):
    ring = oriented_ring(n)
    wrapper = doubling(inner, max_level=max_level)
    cube = ConfigCube.make(ring, all_label_pairs(3), delays=(0, 5))
    assert_engines_agree(ring, wrapper, cube)


@pytest.mark.parametrize(
    "graph, exploration",
    [
        (oriented_ring(12), RingExploration(12)),
        (torus_grid(3, 3), KnownMapDFS(torus_grid(3, 3))),
    ],
    ids=["ring-12", "torus(3,3)"],
)
def test_oracle_agrees_across_engines(graph, exploration):
    oracle = OracleBaseline(exploration, (2, 5))
    cube = ConfigCube.make(
        graph, [(2, 5), (5, 2)], delays=(0, 1, exploration.budget)
    )
    assert_engines_agree(graph, oracle, cube)


@needs_numpy
def test_a_label_with_an_empty_schedule_is_one_parked_column(ring12):
    oracle = OracleBaseline(RingExploration(12), (2, 5))
    table = CubeTimelineTable(ring12, oracle)
    assert table.certificate.orbit
    rows = table.timelines(2, 100)
    assert rows.length == rows.built == 0
    assert rows.positions.tolist() == [[0]] and rows.costs.tolist() == [[0]]
    assert TrajectoryTable(ring12, oracle).trajectory(2, 7).position_at(9) == 7


# ----------------------------------------------------------------------
# (e) The schedules replay the parent's generator programs
# ----------------------------------------------------------------------


def action_digest(graph, factory, label):
    actions = compile_trajectory(graph, factory, label, 0).actions
    return hashlib.sha256(repr(actions).encode()).hexdigest()[:16]


#: ``(met, time, cost)`` and action digests the generator programs gave.
ZIGZAG_PINS = {
    (9, 4): (
        {
            ((1, 2), (0, 1)): (True, 11, 3),
            ((2, 3), (0, 4)): (True, 172, 172),
            ((2, 1), (3, 8)): (True, 140, 84),
        },
        "1889105daa7d4387",
    ),
    (48, 8): (
        {
            ((1, 2), (0, 1)): (True, 19, 3),
            ((6, 3), (0, 24)): (True, 1520, 1264),
            ((2, 1), (3, 47)): (True, 196, 84),
        },
        "54364948349507bc",
    ),
}

DOUBLING_PINS = {
    (Fast, 12, 6): (
        {
            ((1, 2), (0, 5), 0): (True, 26, 35),
            ((4, 3), (2, 7), 3): (True, 25, 37),
            ((3, 1), (0, 1), 0): (True, 16, 31),
        },
        "7b51de878bb19691",
        1547,
    ),
    (Cheap, 9, 5): (
        {
            ((1, 2), (0, 5), 0): (True, 14, 11),
            ((4, 3), (2, 7), 3): (True, 80, 30),
            ((3, 1), (0, 1), 0): (True, 17, 14),
        },
        "4b9e7dc2ae33ab71",
        448,
    ),
}


@pytest.mark.parametrize("n, label_space", sorted(ZIGZAG_PINS))
def test_zigzag_replays_the_generator_program(n, label_space):
    ring = oriented_ring(n)
    zigzag = RingZigzag(n, label_space)
    runs, digest = ZIGZAG_PINS[n, label_space]
    for (labels, starts), expected in runs.items():
        result = simulate_rendezvous(ring, zigzag, labels=labels, starts=starts)
        assert (result.met, result.time, result.cost) == expected
    assert action_digest(ring, zigzag, label_space) == digest


@pytest.mark.parametrize(
    "inner, n, max_level", sorted(DOUBLING_PINS, key=lambda k: k[0].__name__)
)
def test_doubling_replays_the_generator_program(inner, n, max_level):
    ring = oriented_ring(n)
    wrapper = doubling(inner, max_level=max_level, label_space=4)
    runs, digest, length = DOUBLING_PINS[inner, n, max_level]
    for (labels, starts, delay), expected in runs.items():
        result = simulate_rendezvous(
            ring, wrapper, labels=labels, starts=starts, delay=delay
        )
        assert (result.met, result.time, result.cost) == expected
    assert action_digest(ring, wrapper, 3) == digest
    assert wrapper.schedule_length(3) == length


# ----------------------------------------------------------------------
# (b) Early meetings build early blocks only
# ----------------------------------------------------------------------


def spy_builds(monkeypatch):
    """Record every time point a trajectory is asked to reach."""
    asked = []
    original = TrajectoryTable.trajectory

    def trajectory(self, label, start, upto=None):
        asked.append(upto)
        return original(self, label, start, upto)

    monkeypatch.setattr(TrajectoryTable, "trajectory", trajectory)
    return asked


@pytest.mark.parametrize("engine", DERIVED_ENGINES)
def test_early_meetings_never_build_past_their_block(engine, monkeypatch):
    """Adjacent zigzag agents meet at round 19 of 4,440: the builds stop at
    the end of the second block (time point 47) on either engine."""
    ring = oriented_ring(48)
    zigzag = RingZigzag(48, 8)
    cube = ConfigCube.make(
        ring, [(1, 2), (5, 6), (7, 8)], delays=(0,), start_pairs=[(0, 1), (0, 47)]
    )
    asked = spy_builds(monkeypatch)
    report = worst_case_search(ring, zigzag, cube, engine=engine)
    assert report.max_time == 19
    second_block_end = 3 * MIN_TIME_BLOCK - 1
    assert None not in asked
    assert max(asked) <= second_block_end < zigzag.schedule_length(1)


@needs_numpy
def test_a_cube_scan_builds_each_label_only_as_far_as_its_pairs_meet():
    ring = oriented_ring(48)
    oracle = OracleBaseline(RingExploration(48), (1, 2))
    table = CubeTimelineTable(ring, oracle)
    cube = ConfigCube.make(ring, [(2, 1)], delays=(0,), start_pairs=[(0, 1)])
    (reduction,) = reduce_space(
        "cube", table, ring, oracle, cube, [(0, len(cube))], 47,
        PresenceModel.FROM_START,
    )
    assert reduction.report().max_time == 1
    assert table.timelines(2, 0).built == MIN_TIME_BLOCK - 1  # first block only
    assert table.stats.rounds_built < table.stats.rounds_declared


# ----------------------------------------------------------------------
# (c) A later EXPLORE that reads its position voids the certificate
# ----------------------------------------------------------------------


class AnchoredWalk(RingExploration):
    """Reads its position and walks clockwise only from node 0."""

    def moves(self, ctx, obs):
        anchored = ctx.require_position() == 0
        for _ in range(self.ring_size - 1):
            obs = yield (CLOCKWISE if anchored else WAIT)
        return obs


class LateReader(RendezvousAlgorithm):
    """Label 1 waits and every other label walks clockwise for 20 rounds,
    so labels 1 and 2 meet in the first block and labels 3 and 4, in
    lockstep, do not.  Then every label runs a 20-round EXPLORE that
    reads its position and walks only from node 0: the rows past round
    20 are not rotations of the start-0 row."""

    name = "late-reader"

    def __init__(self, label_space: int = 4):
        super().__init__(RingExploration(21), label_space)
        self.anchored = AnchoredWalk(21)

    def schedule(self, label: int) -> Schedule:
        first = wait(20) if label == 1 else explore()
        return Schedule([first, explore(self.anchored)])

    def time_bound(self, smaller_label: int | None = None) -> int:
        raise NotImplementedError

    def cost_bound(self, smaller_label: int | None = None) -> int:
        raise NotImplementedError


def late_reader_sweep(pairs, delays, start_pairs=None):
    """A whole cube sweep of :class:`LateReader` on the 6-ring, with the
    table it ran on."""
    ring = oriented_ring(6)
    factory = LateReader()
    cube = ConfigCube.make(ring, pairs, delays=delays, start_pairs=start_pairs)
    table = CubeTimelineTable(ring, factory)
    assert table.certificate.orbit
    (reduction,) = reduce_space(
        "cube", table, ring, factory, cube, [(0, len(cube))], 60,
        PresenceModel.FROM_START,
    )
    reactive = worst_case_search(ring, factory, cube, 60, engine="reactive")
    assert reduction.report() == reactive
    return table, reactive


@needs_numpy
def test_a_late_divergence_voids_the_certificate():
    table, reactive = late_reader_sweep([(2, 3), (3, 2)], (0, 3))
    assert not table.certificate.orbit
    assert "read its position" in table.certificate.reason
    assert reactive.failures  # agents that both stop never meet


@needs_numpy
def test_a_pair_built_past_the_read_voids_the_certificate_after_early_meetings():
    """Labels 1 and 2 meet in the first block, but the rows of 3 and 4 are
    built past round 20 and splice the reading walk."""
    table, reactive = late_reader_sweep([(1, 2), (3, 4)], (0,))
    assert not table.certificate.orbit
    assert "read its position" in table.certificate.reason
    assert reactive.failures and reactive.max_time > 20


@needs_numpy
def test_a_first_block_sweep_keeps_the_certificate():
    """Before the reading walk the derived rows are exact, and a scan that
    never builds as far as it keeps the orbit path."""
    table, _ = late_reader_sweep([(2, 3)], (2,), start_pairs=[(0, 1)])
    assert table.certificate.orbit
    assert not table.trajectories.routes.position_read


# ----------------------------------------------------------------------
# (d) The end check runs once a build reaches the schedule length
# ----------------------------------------------------------------------


class Outliving:
    """Declares a 3-round schedule but walks clockwise forever."""

    name = "outliving"
    is_oblivious = True

    def schedule_length(self, label: int) -> int:
        return 3

    def __call__(self, ctx):
        obs = yield
        while True:
            obs = yield 0


class Truncated(CheapShortWait):
    def schedule_length(self, label: int) -> int:
        return super().schedule_length(label) - 1


@pytest.mark.parametrize("engine", DERIVED_ENGINES)
def test_an_outliving_program_raises_once_a_sweep_builds_to_its_length(engine, ring12):
    # Two clockwise walkers in lockstep never meet: the scan reaches T.
    factory = Outliving()
    cube = ConfigCube.make(ring12, [(1, 2)], delays=(0,))
    with pytest.raises(ValueError, match="still active"):
        worst_case_search(ring12, factory, cube, 10, engine=engine)
    truncated = Truncated(RingExploration(12), 3)
    cube = ConfigCube.make(ring12, [(1, 2)], delays=(0, 40))
    with pytest.raises(ValueError, match="still active"):
        worst_case_search(ring12, truncated, cube, engine=engine)


def test_a_failed_build_is_dropped_and_raises_again(ring12):
    table = TrajectoryTable(ring12, Outliving())
    for _ in range(2):
        with pytest.raises(ValueError, match="still active"):
            table.trajectory(1, 0)
    assert len(table) == 0
    assert table.trajectory(1, 0, 2).built == 2  # short of T: no check yet


def test_a_partial_trajectory_refuses_reads_past_its_prefix(ring12):
    table = TrajectoryTable(ring12, Fast(RingExploration(12), 3))
    partial = table.trajectory(2, 0, 5)
    assert partial.built == 5 < partial.length
    assert partial.position_at(5) == partial.positions[5]
    with pytest.raises(ValueError, match="past the built prefix"):
        partial.cost_through(partial.length + 1)
    assert table.trajectory(2, 0) is partial and partial.built == partial.length
    assert partial == compile_trajectory(ring12, table.factory, 2, 0)


def test_resumed_builds_equal_one_full_build(ring12):
    """Extending in odd steps gives the trajectory one full build gives, on
    the segment route and on the replay route."""
    for factory, label in (
        (RingZigzag(12, 4), 3),
        (doubling(max_level=5), 2),
        (Replayed(Cheap(RingExploration(12), 3)), 3),
    ):
        table = TrajectoryTable(ring12, factory)
        trajectory = table.trajectory(label, 4, 0)
        for upto in range(0, trajectory.length + 7, 7):
            assert table.trajectory(label, 4, upto) is trajectory
        assert trajectory == compile_trajectory(ring12, factory, label, 4)
