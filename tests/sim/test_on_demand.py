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
* the derived-trajectory probe keeps pace with the start-0 row, so a
  factory whose start-1 route diverges only after the first block still
  voids the orbit certificate;
* a program still active past its declared schedule length raises once a
  sweep builds to that length.
"""

import hashlib
import itertools

import pytest

from repro.baselines.oracle import OracleBaseline
from repro.baselines.ring_zigzag import RingZigzag
from repro.core.ablations import CheapShortWait
from repro.core.cheap import Cheap
from repro.core.fast import Fast
from repro.core.unknown_e import IteratedDoublingRendezvous, ring_level_factory
from repro.exploration.dfs import KnownMapDFS
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring, torus_grid
from repro.sim.adversary import (
    ConfigCube,
    all_label_pairs,
    reduce_space,
    resolve_substrate,
    worst_case_search,
)
from repro.sim.compiled import MIN_TIME_BLOCK, TrajectoryTable, compile_trajectory
from repro.sim.cube import CubeTimelineTable, numpy_available
from repro.sim.prune import start_oblivious_factory
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
        assert set(map(id, explorations)) == set(map(id, wrapper.explorations(2)))
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

    def test_the_explorations_are_derived_from_the_schedules(self):
        zigzag = RingZigzag(12, 4)
        assert set(map(id, zigzag.explorations(3))) == set(map(id, zigzag.sweeps))
        oracle = OracleBaseline(RingExploration(12), (2, 5))
        assert oracle.explorations(5) == (oracle.exploration,)
        assert oracle.explorations(2) == ()
        fast = Fast(RingExploration(12), 3)
        assert fast.explorations(1) == (fast.exploration,)


@needs_numpy
def test_the_orbit_gate_checks_every_named_exploration(ring12):
    class Anchored(RingExploration):
        start_oblivious = False

    def levels(level):
        exploration = RingExploration(max(3, 2**level))
        return Anchored(exploration.ring_size) if level == 4 else exploration

    wrapper = IteratedDoublingRendezvous(Fast, levels, 3, start_level=2, max_level=5)
    assert start_oblivious_factory(wrapper)  # its own exploration, the first level's
    table = CubeTimelineTable(ring12, wrapper)
    assert table.certificate.orbit
    cube = ConfigCube.make(ring12, [(1, 2), (3, 1)], delays=(0, 4))
    horizon = max(wrapper.schedule_length(label) for label in (1, 2, 3))
    (reduction,) = reduce_space(
        "cube", table, ring12, wrapper, cube, [(0, len(cube))], horizon,
        PresenceModel.FROM_START,
    )
    assert not table.certificate.orbit
    assert "does not declare start_oblivious" in table.certificate.reason
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
# (c) The probe keeps pace with the build
# ----------------------------------------------------------------------


class _ClaimsStartOblivious:
    start_oblivious = True


class LateDivergence:
    """Walks clockwise for 20 rounds from any start, then only an agent
    started at node 0 keeps walking: the start-1 route equals the rotated
    start-0 route on the first block and differs after it."""

    name = "late-divergence"
    is_oblivious = True
    exploration = _ClaimsStartOblivious()

    def schedule_length(self, label: int) -> int:
        return 40

    def __call__(self, ctx):
        anchored = ctx.require_position() == 0
        obs = yield
        for round_ in range(40):
            obs = yield (0 if round_ < 20 or anchored else None)


@needs_numpy
def test_a_late_divergence_voids_the_certificate():
    ring = oriented_ring(6)
    factory = LateDivergence()
    cube = ConfigCube.make(ring, [(1, 2), (2, 1)], delays=(0, 3))
    table = CubeTimelineTable(ring, factory)
    assert table.certificate.orbit
    (reduction,) = reduce_space(
        "cube", table, ring, factory, cube, [(0, len(cube))], 60,
        PresenceModel.FROM_START,
    )
    assert not table.certificate.orbit
    assert "probe mismatch" in table.certificate.reason
    reactive = worst_case_search(ring, factory, cube, 60, engine="reactive")
    assert reactive.failures  # agents that both stop never meet
    assert reduction.report() == reactive


class LabelledLateDivergence:
    """Label 1 waits and label 2 walks for 20 rounds, so they meet in the
    first block; labels 3 and 4 walk in lockstep, so they do not.  From
    round 20 on, only an agent started at node 0 walks: every label's
    start-1 route differs from the rotated start-0 route after the first
    block."""

    name = "labelled-late-divergence"
    is_oblivious = True
    exploration = _ClaimsStartOblivious()

    def schedule_length(self, label: int) -> int:
        return 40

    def __call__(self, ctx):
        anchored = ctx.require_position() == 0
        obs = yield
        for round_ in range(40):
            early = round_ < 20
            obs = yield (0 if (ctx.label != 1 if early else anchored) else None)


@needs_numpy
def test_the_probe_keeps_pace_with_labels_built_past_its_own_meetings():
    """The probed label (the smallest) meets in the first block, but the
    other pair's rows are built past it: the probe follows them there."""
    ring = oriented_ring(6)
    factory = LabelledLateDivergence()
    cube = ConfigCube.make(ring, [(1, 2), (3, 4)], delays=(0,))
    table = CubeTimelineTable(ring, factory)
    assert table.certificate.orbit
    (reduction,) = reduce_space(
        "cube", table, ring, factory, cube, [(0, len(cube))], 60,
        PresenceModel.FROM_START,
    )
    assert not table.certificate.orbit
    assert "probe mismatch for label 1" in table.certificate.reason
    reactive = worst_case_search(ring, factory, cube, 60, engine="reactive")
    assert reactive.failures and reactive.max_time > 20
    assert reduction.report() == reactive


@needs_numpy
def test_a_first_block_sweep_keeps_the_certificate():
    """Before the divergence the derived rows are exact, and the scan that
    never reads past them keeps the orbit path."""
    ring = oriented_ring(6)
    factory = LateDivergence()
    cube = ConfigCube.make(ring, [(1, 2)], delays=(2,), start_pairs=[(0, 1)])
    table = CubeTimelineTable(ring, factory)
    (reduction,) = reduce_space(
        "cube", table, ring, factory, cube, [(0, len(cube))], 60,
        PresenceModel.FROM_START,
    )
    assert table.certificate.orbit
    assert reduction.report() == worst_case_search(
        ring, factory, cube, 60, engine="reactive"
    )


# ----------------------------------------------------------------------
# (d) The end check runs once a build reaches the schedule length
# ----------------------------------------------------------------------


class Outliving:
    """Declares a 3-round schedule but walks clockwise forever."""

    name = "outliving"
    is_oblivious = True
    exploration = _ClaimsStartOblivious()

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
