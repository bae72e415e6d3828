"""Cross-engine equivalence: derived engines vs. the reactive simulator.

The compiled trajectory engine (`repro.sim.compiled`) and the whole-cube
tensor engine (`repro.sim.cube`) are only allowed to exist because they
are *indistinguishable* from the reactive engine: for every registered
algorithm on a small instance of every registered graph family, under
both presence models and a ``{0, 1, E}`` delay grid, the engines must
return equal :class:`~repro.sim.adversary.WorstCaseReport`\\ s --
including failure tuples and the extreme verdicts with their tie-broken
argmax indices and configurations.  Full executions come only from the
reactive simulator; a compiled trajectory is checked against its traces
position by position.
"""

import pytest

from repro.core.ablations import CheapShortWait, FastNoDelimiter, FastNoDoubling
from repro.exploration.base import ExplorationProcedure
from repro.exploration.dfs import KnownMapDFS
from repro.graphs.families import star_graph
from repro.registry import ALGORITHMS, GRAPH_FAMILIES, KNOWLEDGE_MODELS
from repro.runtime.spec import AlgorithmSpec
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    all_label_pairs,
    default_horizon,
    default_start_pairs,
    worst_case_search,
)
from repro.sim import compiled
from repro.sim.cube import numpy_available
from repro.sim.compiled import TrajectoryTable, compile_trajectory
from repro.sim.program import AgentContext
from repro.sim.simulator import PresenceModel, simulate_rendezvous

#: Every engine that must be indistinguishable from "reactive" here.
DERIVED_ENGINES = ("compiled",) + (("cube",) if numpy_available() else ())

#: The smallest valid instance of every registered graph family.  A test
#: below asserts this stays in sync with the registry, so adding a family
#: without extending the equivalence suite fails loudly.
SMALL_FAMILIES = {
    "ring": {"n": 4},
    "path": {"n": 4},
    "star": {"n": 4},
    "complete": {"n": 4},
    "tree": {"depth": 1},
    "hypercube": {"dimension": 2},
    "torus": {"rows": 3, "cols": 3},
    "lollipop": {"clique_size": 3, "tail_length": 1},
    "circulant": {"n": 5, "offsets": (1, 2)},
    "complete-bipartite": {"a": 2, "b": 2},
    "petersen": {},
}

LABEL_SPACE = 3


def small_instance(family: str):
    return GRAPH_FAMILIES.entry(family).build(**SMALL_FAMILIES[family])


def build_algorithm(name: str, graph):
    return AlgorithmSpec(name, label_space=LABEL_SPACE).build(graph)


def delay_grid(algorithm) -> tuple[int, int, int]:
    return (0, 1, algorithm.exploration_budget)


class TestSuiteCoverage:
    def test_every_registered_family_has_a_small_instance(self):
        assert set(SMALL_FAMILIES) == set(GRAPH_FAMILIES.names())

    def test_every_registered_algorithm_declares_oblivious(self):
        # All paper algorithms are wait/explore schedules; a future
        # registered algorithm that is not schedule-driven must instead be
        # added to the equivalence suite with engine="reactive" expectations.
        for entry in ALGORITHMS.entries():
            assert entry.target.is_oblivious, entry.name


@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
@pytest.mark.parametrize("algorithm_name", ALGORITHMS.names())
def test_derived_engine_reports_equal_reactive_report(family, algorithm_name):
    """The exhaustive cross-engine sweep: equal reports, field for field.

    Every derived engine (compiled, and cube when NumPy is present) is
    compared against one reactive reference per presence model.  Delays
    are swept even for simultaneous-start algorithms -- they then
    legitimately fail to meet in some configurations, which is exactly how
    the failure tuples' equivalence is exercised.
    """
    graph = small_instance(family)
    algorithm = build_algorithm(algorithm_name, graph)
    configs = ConfigCube.make(
        graph, all_label_pairs(LABEL_SPACE), delays=delay_grid(algorithm)
    )

    for presence in PresenceModel:
        reactive = worst_case_search(
            graph, algorithm, configs, presence=presence, engine="reactive"
        )
        for engine in DERIVED_ENGINES:
            derived = worst_case_search(
                graph, algorithm, configs, presence=presence, engine=engine
            )
            assert derived == reactive, (
                f"{algorithm_name} on {family} ({presence}, {engine})"
            )


class TestTieBreaking:
    def test_enumeration_order_decides_ties_in_both_engines(self, ring12):
        """Max ties are broken by enumeration order, not by engine.

        Feeding the same configurations in reversed order (a cube over
        every axis reversed) must flip both engines to the same other
        argmax record -- proving ties exist and that the compiled engine
        inherits the reactive first-wins rule rather than accidentally
        agreeing.
        """
        algorithm = build_algorithm("cheap-sim", ring12)
        pairs = list(all_label_pairs(LABEL_SPACE))
        configs = ConfigCube.make(ring12, pairs, delays=(0,))
        reversed_configs = ConfigCube.make(
            ring12,
            reversed(pairs),
            delays=(0,),
            start_pairs=reversed(default_start_pairs(ring12)),
        )
        assert list(reversed_configs) == list(reversed(list(configs)))

        for ordering in (configs, reversed_configs):
            reactive = worst_case_search(ring12, algorithm, ordering, engine="reactive")
            for engine in DERIVED_ENGINES:
                derived = worst_case_search(ring12, algorithm, ordering, engine=engine)
                assert derived == reactive, engine
        forward = worst_case_search(ring12, algorithm, configs, engine="compiled")
        backward = worst_case_search(
            ring12, algorithm, reversed_configs, engine="compiled"
        )
        assert forward.max_time == backward.max_time
        assert forward.worst_time.config != backward.worst_time.config


class TestEngineSelection:
    def test_auto_uses_the_fastest_engine_for_oblivious_factories(
        self, ring12, monkeypatch
    ):
        """``auto`` routes to cube with NumPy, to compiled without."""
        algorithm = build_algorithm("cheap", ring12)
        configs = ConfigCube.make(ring12, [(1, 2)], delays=(0,))
        calls = []
        import repro.sim.adversary as adversary_module
        import repro.sim.cube as cube_module

        original = adversary_module.reduce_space

        def spy(engine, *args, **kwargs):
            calls.append(engine)
            return original(engine, *args, **kwargs)

        monkeypatch.setattr(adversary_module, "reduce_space", spy)

        def search():
            worst_case_search(ring12, algorithm, configs, engine="auto")

        if numpy_available():
            search()
            assert calls == ["cube"]
        calls.clear()
        monkeypatch.setattr(cube_module, "_np", None)
        search()
        assert calls == ["compiled"]

    def test_ablations_derive_is_oblivious_and_auto_matches_reactive(self):
        """The ablations inherit the schedule-driven ``__call__``,
        so they derive the flag (overriding ``__call__`` withdraws it) and
        ``auto`` runs them on a derived engine -- with the reactive report,
        failures included."""
        assert FastNoDoubling.is_oblivious
        assert CheapShortWait.is_oblivious
        assert FastNoDelimiter.is_oblivious

        class Reactive(CheapShortWait):
            def __call__(self, ctx):
                return super().__call__(ctx)

        assert Reactive.is_oblivious is False

        star = star_graph(6)
        algorithm = CheapShortWait(KnownMapDFS(star), label_space=LABEL_SPACE)
        configs = ConfigCube.make(star, all_label_pairs(LABEL_SPACE), delays=(0, 2))

        auto = worst_case_search(star, algorithm, configs, engine="auto")
        reactive = worst_case_search(star, algorithm, configs, engine="reactive")
        assert reactive.failures, "delay 2 must defeat the short wait"
        assert auto.failures == reactive.failures
        assert auto == reactive

    def test_unknown_engine_is_rejected(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        with pytest.raises(ValueError, match="unknown engine"):
            worst_case_search(
                ring12, algorithm, ConfigCube.make(ring12, []), 1, engine="warp"
            )


class TestCompilation:
    def test_trajectory_matches_solo_simulation(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        trajectory = compile_trajectory(ring12, algorithm, label=2, start=5)
        assert trajectory.length == algorithm.schedule_length(2)
        assert trajectory.positions[0] == 5
        assert trajectory.cumulative_cost[0] == 0
        assert trajectory.cost_through(trajectory.length) == sum(
            1 for action in trajectory.actions if action is not None
        )
        # Positions beyond the schedule repeat the final node.
        assert trajectory.position_at(trajectory.length + 100) == trajectory.positions[-1]

    def test_table_compiles_each_pair_once(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        table = TrajectoryTable(ring12, algorithm)
        first = table.trajectory(1, 0)
        assert table.trajectory(1, 0) is first
        assert len(table) == 1

    def test_single_result_equals_the_simulator(self, ring12):
        """One configuration's ``(time, cost)`` is the reactive one, and
        the reactive traces walk the compiled trajectories round by round
        (the second agent held at its start for ``delay`` rounds)."""
        algorithm = build_algorithm("fwr", ring12)
        table = TrajectoryTable(ring12, algorithm)
        for labels, starts, delay, presence in [
            ((1, 3), (0, 7), 0, PresenceModel.FROM_START),
            ((3, 1), (2, 9), 4, PresenceModel.PARACHUTE),
            ((2, 3), (11, 1), 17, PresenceModel.FROM_START),
        ]:
            config = Configuration(labels=labels, starts=starts, delay=delay)
            horizon = default_horizon(algorithm, labels, delay)
            expected = simulate_rendezvous(
                ring12,
                algorithm,
                labels=labels,
                starts=starts,
                delay=delay,
                max_rounds=horizon,
                presence=presence,
            )
            assert table.evaluate(config, horizon, presence) == (
                expected.time if expected.met else None,
                expected.cost,
            )
            first = table.trajectory(labels[0], starts[0])
            second = table.trajectory(labels[1], starts[1])
            trace1, trace2 = expected.traces
            points = range(expected.rounds_executed + 1)
            assert trace1.positions == [first.position_at(t) for t in points]
            assert trace2.positions == [
                second.position_at(max(t - delay, 0)) for t in points
            ]

    def test_non_schedule_driven_program_is_rejected(self, ring12):
        class LyingFactory:
            """Claims a schedule of 3 rounds but keeps moving afterwards."""

            name = "liar"

            def schedule_length(self, label: int) -> int:
                return 3

            def __call__(self, ctx: AgentContext):
                obs = yield
                while True:
                    obs = yield 0

        with pytest.raises(ValueError, match="still active"):
            compile_trajectory(ring12, LyingFactory(), label=1, start=0)

    def test_factory_without_schedule_length_is_rejected(self, ring12):
        def bare_factory(ctx):
            obs = yield

        with pytest.raises(ValueError, match="schedule_length"):
            compile_trajectory(ring12, bare_factory, label=1, start=0)

    def test_search_without_configurations_reports_nothing(self, ring12):
        algorithm = build_algorithm("cheap", ring12)
        empty = ConfigCube.make(ring12, [])
        report = worst_case_search(ring12, algorithm, empty, 1, engine="compiled")
        assert report.worst_time is None and report.worst_cost is None
        assert report.executions == 0 and report.failures == ()


#: Graphs of the segment-route suite: a ring, a torus, a star and a path.
SEGMENT_GRAPHS = {
    "ring": {"n": 6},
    "torus": {"rows": 3, "cols": 3},
    "star": {"n": 4},
    "path": {"n": 4},
}

ABLATIONS = (CheapShortWait, FastNoDelimiter, FastNoDoubling)


class Replayed:
    """The same agent program behind a factory the structural rule rejects.

    Not a :class:`~repro.core.base.RendezvousAlgorithm`, so
    :func:`compile_trajectory` replays its generator round by round.
    """

    def __init__(self, algorithm):
        self.algorithm = algorithm
        self.name = algorithm.name

    def schedule_length(self, label: int) -> int:
        return self.algorithm.schedule_length(label)

    def __call__(self, ctx: AgentContext):
        return self.algorithm(ctx)


class ObservantExploration(ExplorationProcedure):
    """Steers by the whole observation it sees: its exploration-local clock
    (0 when the segment starts), the degree and the entry port carried
    over from before the segment (no registered procedure reads all
    three)."""

    name = "observant"

    @property
    def budget(self) -> int:
        return 3

    def moves(self, ctx, obs):
        assert obs.clock == 0, "the clock starts with the exploration"
        obs = yield (obs.entry_port or 0) % obs.degree
        obs = yield (obs.clock + obs.entry_port) % obs.degree
        return obs


def segment_algorithms(graph, knowledge):
    """Every registered algorithm and the three ablations, on one exploration,
    plus the short-wait ablation on an observation-driven one."""
    algorithms = [
        AlgorithmSpec(name, label_space=LABEL_SPACE, knowledge=knowledge).build(graph)
        for name in ALGORITHMS.names()
    ]
    exploration = algorithms[0].exploration
    return (
        algorithms
        + [ablation(exploration, LABEL_SPACE) for ablation in ABLATIONS]
        + [CheapShortWait(ObservantExploration(), LABEL_SPACE)]
    )


def forbid(monkeypatch, route: str):
    """Make one compile route fail loudly if it is taken."""

    def taken(*args, **kwargs):
        raise AssertionError(f"{route} taken")

    monkeypatch.setattr(compiled, route, taken)


class TestSegmentRoute:
    @pytest.mark.parametrize("knowledge", KNOWLEDGE_MODELS.names())
    @pytest.mark.parametrize("family", sorted(SEGMENT_GRAPHS))
    def test_segments_equal_the_generator_replay(self, family, knowledge):
        graph = GRAPH_FAMILIES.entry(family).build(**SEGMENT_GRAPHS[family])
        provide = (knowledge != "size-bound-only", knowledge == "map-with-position")
        for algorithm in segment_algorithms(graph, knowledge):
            assert algorithm.is_oblivious, algorithm.name
            for label in range(1, LABEL_SPACE + 1):
                for start in range(graph.num_nodes):
                    segmented = compile_trajectory(graph, algorithm, label, start, *provide)
                    replayed = compile_trajectory(
                        graph, Replayed(algorithm), label, start, *provide
                    )
                    assert segmented == replayed, (algorithm.name, label, start)
                    assert segmented.length == algorithm.schedule_length(label)

    def test_schedule_driven_algorithms_never_replay(self, ring12, monkeypatch):
        forbid(monkeypatch, "_record_replay")
        for algorithm in segment_algorithms(ring12, "map-with-position"):
            compile_trajectory(ring12, algorithm, label=2, start=3)

    def test_a_hand_set_flag_keeps_the_replay_route(self, ring12, monkeypatch):
        class Reactive(CheapShortWait):
            def __call__(self, ctx):
                return super().__call__(ctx)

        Reactive.is_oblivious = True  # declared, not derived
        algorithm = Reactive(KnownMapDFS(ring12), LABEL_SPACE)
        forbid(monkeypatch, "_record_segments")
        replayed = compile_trajectory(ring12, algorithm, label=2, start=3)
        assert replayed.length == algorithm.schedule_length(2)

    def test_hand_declared_factories_keep_the_replay_route(self, ring12, monkeypatch):
        from tests.sim.test_cube import StartSensitiveFactory

        forbid(monkeypatch, "_record_segments")
        anchored = compile_trajectory(ring12, StartSensitiveFactory(), label=1, start=0)
        assert anchored.cost_through(anchored.length) == 6

    def test_a_short_declared_length_is_still_active(self, ring12):
        class Truncated(CheapShortWait):
            def schedule_length(self, label: int) -> int:
                return super().schedule_length(label) - 1

        algorithm = Truncated(KnownMapDFS(ring12), LABEL_SPACE)
        assert algorithm.is_oblivious
        for factory in (algorithm, Replayed(algorithm)):
            with pytest.raises(ValueError, match="still active"):
                compile_trajectory(ring12, factory, label=2, start=0)

    def test_a_long_declared_length_pads_with_waits(self, ring12):
        class Padded(CheapShortWait):
            def schedule_length(self, label: int) -> int:
                return super().schedule_length(label) + 5

        algorithm = Padded(KnownMapDFS(ring12), LABEL_SPACE)
        segmented = compile_trajectory(ring12, algorithm, label=2, start=4)
        assert segmented == compile_trajectory(
            ring12, Replayed(algorithm), label=2, start=4
        )
        assert segmented.length == CheapShortWait.schedule_length(algorithm, 2) + 5
        assert segmented.actions[-5:] == (None,) * 5
        assert len(set(segmented.positions[-6:])) == 1

    def test_out_of_range_labels_raise(self, ring12):
        algorithm = build_algorithm("fast", ring12)
        for label in (0, LABEL_SPACE + 1):
            with pytest.raises(ValueError, match="outside the label space"):
                compile_trajectory(ring12, algorithm, label=label, start=0)
