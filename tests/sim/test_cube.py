"""The cube engine: whole-cube tensorization and pruning soundness.

Two contracts are enforced here.  First, byte-identity: the cube engine,
which always prunes what it can certify, must return reports equal
field-for-field to the reactive engine -- for every registered algorithm
on a small instance of every registered graph family plus an odd and an
even certified ring, with delays past every schedule so that delay
dominance fires, under both presence models.  Second, the pruning
machinery itself (:mod:`repro.sim.prune`): the engine's delta rows must
cover the full ordered-start space on odd and even rings, the
certification checks must each refuse exactly their failure mode, the
walks a certificate rests on must be exact rotations, and delay
dominance must derive exact translates.
"""

import pytest

from repro.core.ablations import CheapShortWait
from repro.exploration.ring import RingExploration
from repro.graphs.families import circulant_graph, oriented_ring, torus_grid
from repro.obs.telemetry import Telemetry
from repro.registry import ALGORITHMS, GRAPH_FAMILIES
from repro.runtime import AlgorithmSpec
from repro.sim import cube as cube_module
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    all_label_pairs,
    default_horizon,
    default_start_pairs,
    worst_case_search,
)
from repro.sim.compiled import TrajectoryTable
from repro.sim.cube import BatchUnavailableError, CubeTimelineTable, numpy_available
from repro.sim.prune import (
    SymmetryCertificate,
    certify_symmetry,
    derive_met,
    dominance_plan,
    rotation_automorphism,
)
from repro.sim.simulator import PresenceModel

# The same small-instance conventions as the wider cross-engine suite --
# imported, not copied, so the two matrices can never drift apart (and
# test_compiled's registry-sync test covers this module too).
from tests.sim.test_compiled import (
    LABEL_SPACE,
    SMALL_FAMILIES,
    build_algorithm,
    small_instance,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the cube engine needs NumPy"
)


def cube_search(graph, factory, configs, max_rounds=None, **kwargs):
    return worst_case_search(
        graph, factory, configs, max_rounds, engine="cube", **kwargs
    )


#: Certified rings beside the family instances: the orbit path must hold
#: on odd and even ``n`` alike (``delta`` and ``n - delta`` coincide only
#: on even rings).
CERTIFIED_RINGS = {"ring-5": 5, "ring-6": 6}


def reference_instance(name):
    if name in CERTIFIED_RINGS:
        return oriented_ring(CERTIFIED_RINGS[name])
    return small_instance(name)


def past_schedule_delays(algorithm):
    """No delay, plus two delays past every label's schedule.

    The late pair shares one post-wake window, so delay dominance derives
    one slice of every label pair from the other.
    """
    longest = max(
        algorithm.schedule_length(label) for label in range(1, LABEL_SPACE + 1)
    )
    return (0, longest + 1, longest + 3)


@needs_numpy
@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES) + sorted(CERTIFIED_RINGS))
@pytest.mark.parametrize("algorithm_name", ALGORITHMS.names())
def test_pruning_never_changes_a_report(family, algorithm_name):
    """Pruned cube == reactive, everywhere.

    The whole-cube tensor path (a :class:`ConfigCube` input) takes every
    reduction its checks allow -- rotation orbits exactly where the
    symmetry certificate holds and no walk read its position, delay
    dominance on the past-schedule slices -- and must come back
    byte-identical to the reactive reference regardless.
    """
    graph = reference_instance(family)
    algorithm = build_algorithm(algorithm_name, graph)
    cube = ConfigCube.make(
        graph, all_label_pairs(LABEL_SPACE), delays=past_schedule_delays(algorithm)
    )

    # What the walks did: the start-0 rows of every label, built whole.
    walks = TrajectoryTable(graph, algorithm)
    for label in range(1, LABEL_SPACE + 1):
        walks.trajectory(label, 0)
    certified = (
        certify_symmetry(graph, algorithm).orbit and not walks.routes.position_read
    )
    assert certified or family not in CERTIFIED_RINGS
    for presence in PresenceModel:
        reactive = worst_case_search(
            graph, algorithm, cube, presence=presence, engine="reactive"
        )
        telemetry = Telemetry()
        report = cube_search(
            graph, algorithm, cube, presence=presence, telemetry=telemetry
        )
        assert report == reactive, f"{algorithm_name} on {family} ({presence})"
        counters = telemetry.counters
        assert (counters["cube.prune.orbit_cells"] > 0) is certified
        assert counters["cube.prune.dominated_slices"] > 0


#: Sparse start pairs with a repeat, the shape of the EXP-12 measurement:
#: ``(0, d)``, ``(0, n - d)`` and ``(0, n - d)`` again.
SPARSE_INSTANCES = {
    "ring-12": lambda: oriented_ring(12),
    "torus(3,3)": lambda: torus_grid(3, 3),
}


@needs_numpy
@pytest.mark.parametrize("name", sorted(SPARSE_INSTANCES))
def test_sparse_repeated_start_pairs_agree_across_engines(name):
    """A cube over a sparse start-pair subset with a repeated pair.

    The ring takes the orbit path (a delta gather), the torus the
    per-start path (a start-row gather); both must report exactly what
    the compiled and reactive engines report.
    """
    graph = SPARSE_INSTANCES[name]()
    n = graph.num_nodes
    algorithm = build_algorithm("fast", graph)
    assert certify_symmetry(graph, algorithm).orbit is (name == "ring-12")
    cube = ConfigCube.make(
        graph,
        all_label_pairs(LABEL_SPACE),
        delays=(0, 5),
        start_pairs=[(0, 3), (0, n - 3), (0, n - 3)],
    )

    reactive = worst_case_search(graph, algorithm, cube, engine="reactive")
    assert reactive.executions == len(cube)
    for engine in ("compiled", "cube"):
        report = worst_case_search(graph, algorithm, cube, engine=engine)
        assert report == reactive, engine


def rotation_symmetric(n):
    """An ``n``-node graph whose rotation preserves every port.

    The oriented ring, or the one-edge complete graph where no ring
    exists (``n = 2``).
    """
    if n >= 3:
        return oriented_ring(n)
    return GRAPH_FAMILIES.entry("complete").build(n=n)


def start_cells(graph, certified):
    """``(met, cost)`` over every start cell of every label pair, two delays.

    An uncertified table scans all ``n`` first-start rows; a certified one
    keeps the single delta row.
    """
    # Try-all-DFS reads no position on any graph, K2 included.
    algorithm = AlgorithmSpec(
        "fast",
        LABEL_SPACE,
        knowledge="map-without-position",
        exploration="try-all-dfs",
    ).build(graph)
    table = CubeTimelineTable(graph, algorithm)
    assert table.certificate.orbit
    if not certified:
        table.certificate = SymmetryCertificate(False, "every start row")
    pairs = list(all_label_pairs(LABEL_SPACE))
    horizons = [
        [
            (delay, default_horizon(algorithm, pair, delay)) for delay in (0, 5)
        ]
        for pair in pairs
    ]
    return table.slices(pairs, horizons, PresenceModel.FROM_START)


@needs_numpy
class TestOrbitCoverage:
    """The property behind orbit pruning, read off the engine's own cells.

    A certified table's delta row must cover the ordered start space
    exactly: cell ``[0, (s2 - s1) mod n]`` equals the start-row scan's
    cell ``[s1, s2]`` for every start pair, on odd and even ``n``.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17])
    def test_representatives_partition_the_ordered_start_space(self, n):
        np = cube_module.require_numpy()
        graph = rotation_symmetric(n)
        orbit = start_cells(graph, certified=True)
        full = start_cells(graph, certified=False)
        assert orbit[0].shape[2:] == (1, n)
        assert full[0].shape[2:] == (n, n)
        starts = np.arange(n)
        delta = (starts[None, :] - starts[:, None]) % n
        for by_delta, by_start in zip(orbit, full):
            assert (by_delta[:, :, 0, delta] == by_start).all()

    @pytest.mark.parametrize("n", [5, 8])
    def test_deltas_are_rotation_invariants(self, n):
        np = cube_module.require_numpy()
        rotated = (np.arange(n) + 1) % n
        for cells in start_cells(oriented_ring(n), certified=False):
            shifted = cells
            for _ in range(n):
                shifted = shifted[:, :, rotated][:, :, :, rotated]
                assert (shifted == cells).all()


class TestCertification:
    """Each gate refuses exactly its own failure mode, loudly."""

    def test_oriented_ring_rotation_is_port_preserving(self):
        for n in (3, 8, 12):
            assert rotation_automorphism(oriented_ring(n))

    def test_non_rotation_symmetric_graph_fails_the_rotation_check(self):
        # Nothing is declared: the O(E) structural check alone decides,
        # so a graph that is not rotation-symmetric is scanned start by
        # start, never wrongly pruned.
        graph = GRAPH_FAMILIES.entry("path").build(n=4)
        assert not rotation_automorphism(graph)
        certificate = certify_symmetry(graph, build_algorithm("fast", graph))
        assert not certificate.orbit
        assert "rotation" in certificate.reason

    def test_a_factory_that_is_not_schedule_driven_fails_the_structural_gate(
        self, ring12
    ):
        # Overriding __call__ makes the program a replay: no recorded walk
        # could show that it ignores its position.
        class Reactive(CheapShortWait):
            def __call__(self, ctx):
                return super().__call__(ctx)

        ablation = Reactive(RingExploration(12), label_space=LABEL_SPACE)
        certificate = certify_symmetry(ring12, ablation)
        assert not certificate.orbit
        assert "not schedule-driven" in certificate.reason

    def test_registered_algorithm_on_a_ring_earns_the_certificate(self, ring12):
        certificate = certify_symmetry(ring12, build_algorithm("fast", ring12))
        assert certificate.orbit


class StartSensitiveFactory:
    """A hand-declared replay-route factory anchored to node 0.

    Started at node 0 it walks clockwise for its whole schedule; started
    anywhere else it never moves.  It is not schedule-driven, so the cube
    never takes the orbit path for it.
    """

    name = "start-sensitive"
    is_oblivious = True

    def schedule_length(self, label: int) -> int:
        return 6

    def __call__(self, ctx):
        anchored = ctx.require_position() == 0
        obs = yield
        for _ in range(self.schedule_length(0)):
            obs = yield (0 if anchored else None)


@needs_numpy
def test_a_replay_factory_is_refused_up_front_and_matches_reactive():
    graph = oriented_ring(6)
    factory = StartSensitiveFactory()
    certificate = certify_symmetry(graph, factory)
    assert not certificate.orbit
    assert "not schedule-driven" in certificate.reason
    table = CubeTimelineTable(graph, factory)
    assert table.timelines(1).rows == 6
    cube = ConfigCube.make(graph, [(1, 2), (2, 1)], delays=(0, 2))
    reactive = worst_case_search(graph, factory, cube, 12, engine="reactive")
    telemetry = Telemetry()
    assert cube_search(graph, factory, cube, 12, telemetry=telemetry) == reactive
    assert telemetry.counters["cube.prune.orbit_cells"] == 0


@needs_numpy
def test_rotated_timelines_share_one_cost_row(ring12):
    """A certified label stores one row, start 0's, and extends only it."""
    table = CubeTimelineTable(ring12, build_algorithm("fast", ring12))
    rows = table.timelines(1, 20)
    assert table.certificate.orbit
    assert rows.length > 20
    assert rows.costs.shape == rows.positions.shape == (1, 21)
    assert table.timelines(1) is rows
    assert rows.costs.shape == rows.positions.shape == (1, rows.length + 1)
    # Start 0 only: no other start is ever compiled.
    assert sorted(table.trajectories._trajectories) == [(1, 0)]
    start = table.trajectories.trajectory(1, 5)
    assert tuple((rows.positions[0] + 5) % 12) == start.positions
    assert tuple(rows.costs[0]) == start.cumulative_cost


@needs_numpy
@pytest.mark.parametrize(
    "knowledge, exploration, orbit",
    [
        ("map-without-position", "try-all-dfs", True),
        ("size-bound-only", "uxs", True),
        ("map-with-position", "hamiltonian", False),
    ],
)
def test_walks_that_read_the_map_but_not_the_position_keep_the_orbit(
    knowledge, exploration, orbit
):
    """On a circulant, the knowledge model picks the exploration, and
    only the one that reads its position loses the orbit rows."""
    graph = circulant_graph(8, (1, 2))
    algorithm = AlgorithmSpec(
        "fast", 4, knowledge=knowledge, exploration=exploration
    ).build(graph)
    cube = ConfigCube.make(graph, all_label_pairs(4), delays=(0, 3))
    reactive = worst_case_search(graph, algorithm, cube, engine="reactive")
    telemetry = Telemetry()
    assert cube_search(graph, algorithm, cube, telemetry=telemetry) == reactive
    assert telemetry.counters["cube.prune.orbit_cells"] == (
        len(cube) if orbit else 0
    )


class TestDominance:
    def test_plan_groups_slices_by_post_wake_window(self):
        plan = dominance_plan(
            [(0, 10), (6, 16), (8, 18), (7, 20), (9, 19)], first_length=5
        )
        # (0, 10) is below the threshold; (6, 16) pivots K=10 for
        # (8, 18) and (9, 19); (7, 20) pivots K=13 alone.
        assert plan.scan == (0, 1, 3)
        assert plan.derived == {2: (1, 2), 4: (1, 3)}

    def test_plan_below_the_schedule_scans_everything(self):
        plan = dominance_plan([(0, 10), (1, 11), (2, 12)], first_length=5)
        assert plan.scan == (0, 1, 2)
        assert plan.derived == {}

    @needs_numpy
    def test_derive_met_translates_exactly_the_post_wake_meetings(self):
        np = cube_module.require_numpy()
        met_pivot = np.array([-1, 3, 7, 12])
        from_start = derive_met(np, met_pivot, 5, 4, parachute=False)
        assert from_start.tolist() == [-1, 3, 11, 16]
        parachute = derive_met(np, met_pivot, 5, 4, parachute=True)
        assert parachute.tolist() == [-1, 7, 11, 16]


@needs_numpy
class TestTelemetryMeters:
    def test_prune_avenues_are_metered_on_a_certified_sweep(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        longest = max(
            algorithm.schedule_length(label)
            for label in range(1, LABEL_SPACE + 1)
        )
        pairs = list(all_label_pairs(LABEL_SPACE))
        cube = ConfigCube.make(
            ring12, pairs, delays=(0, longest + 1, longest + 2)
        )

        telemetry = Telemetry()
        report = cube_search(ring12, algorithm, cube, telemetry=telemetry)
        counters = telemetry.counters
        assert counters["configs.evaluated"] == len(cube)
        assert counters["cube.prune.orbit_cells"] == len(pairs) * 3 * (
            12 * 12 - 12
        )
        # Both past-schedule delays share K = max schedule length, so one
        # slice per label pair derives from its pivot.
        assert counters["cube.prune.dominated_slices"] == len(pairs)
        assert report == worst_case_search(ring12, algorithm, cube, engine="reactive")

    def test_uncertified_family_meters_no_orbit_cells(self):
        graph = small_instance("torus")
        algorithm = build_algorithm("fast", graph)
        assert not certify_symmetry(graph, algorithm).orbit
        cube = ConfigCube.make(graph, [(1, 2)], delays=(0,))
        telemetry = Telemetry()
        cube_search(graph, algorithm, cube, telemetry=telemetry)
        assert telemetry.counters["configs.evaluated"] == len(cube)
        assert telemetry.counters["cube.prune.orbit_cells"] == 0
        assert telemetry.counters["cube.prune.dominated_slices"] == 0


class TestWithoutNumpy:
    # Deliberately not skipped without NumPy: on the NumPy-free CI legs
    # the monkeypatch is a no-op and the real absence path is proven.
    def test_cube_raises_a_loud_hint_naming_cube(self, ring12, monkeypatch):
        algorithm = build_algorithm("fast", ring12)
        monkeypatch.setattr(cube_module, "_np", None)
        with pytest.raises(BatchUnavailableError, match="'cube'"):
            cube_search(ring12, algorithm, ConfigCube.make(ring12, []), 1)


class TestConfigCube:
    def test_iteration_matches_configurations_in_global_order(self, ring12):
        pairs = list(all_label_pairs(LABEL_SPACE))
        cube = ConfigCube.make(ring12, pairs, delays=(0, 2, 5))
        # Label pairs outermost, then start pairs, then delays.
        assert list(cube) == [
            Configuration(labels=labels, starts=starts, delay=delay)
            for labels in pairs
            for starts in default_start_pairs(ring12)
            for delay in (0, 2, 5)
        ]
        assert len(cube) == len(pairs) * 12 * 11 * 3

    def test_fix_first_start_matches_too(self, ring12):
        cube = ConfigCube.make(
            ring12, [(1, 2)], delays=(0, 1), fix_first_start=True
        )
        assert [config.starts for config in cube] == [
            (0, v) for v in range(1, 12) for _ in (0, 1)
        ]
        assert len(cube) == 11 * 2
