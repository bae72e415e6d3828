"""Tests for the worst-case adversary search."""

from collections import Counter

import pytest

from repro.core import CheapSimultaneous, Fast
from repro.core.ablations import CheapShortWait
from repro.exploration.dfs import KnownMapDFS
from repro.graphs.families import oriented_ring, star_graph
from repro.sim.adversary import (
    ConfigCube,
    Configuration,
    Reduction,
    Verdict,
    VerdictBlock,
    all_label_pairs,
    default_horizon,
    engine_table,
    first_max,
    reduce_space,
    worst_case_search,
)
from repro.sim.cube import numpy_available
from repro.sim.simulator import PresenceModel, default_max_rounds, simulate_rendezvous


class TestConfigurationEnumeration:
    def test_all_label_pairs_ordered(self):
        pairs = list(all_label_pairs(3))
        assert (1, 2) in pairs and (2, 1) in pairs
        assert len(pairs) == 6
        assert all(a != b for a, b in pairs)

    def test_full_start_enumeration(self, ring12):
        configs = list(ConfigCube.make(ring12, [(1, 2)], delays=(0,)))
        # 12 * 11 ordered start pairs.
        assert len(configs) == 132

    def test_fixed_first_start(self, ring12):
        configs = list(
            ConfigCube.make(ring12, [(1, 2)], delays=(0, 5), fix_first_start=True)
        )
        assert len(configs) == 11 * 2
        assert all(config.starts[0] == 0 for config in configs)

    def test_explicit_start_pairs(self, ring12):
        configs = list(
            ConfigCube.make(ring12, [(1, 2)], start_pairs=[(0, 3), (0, 9)])
        )
        assert [config.starts for config in configs] == [(0, 3), (0, 9)]


class TestWorstCaseSearch:
    def test_finds_worst_configuration(self, ring12, ring12_exploration):
        algorithm = CheapSimultaneous(ring12_exploration, label_space=4)
        report = worst_case_search(
            ring12,
            algorithm,
            ConfigCube.make(ring12, all_label_pairs(4), fix_first_start=True),
            max_rounds=lambda labels, delay: max(
                algorithm.schedule_length(labels[0]),
                algorithm.schedule_length(labels[1]),
            ),
        )
        assert not report.failures
        # Worst time is achieved when the smaller label is 3 (waits 2E
        # rounds) and must then walk nearly a full exploration.
        assert report.max_time == algorithm.time_bound(3)
        assert report.max_cost <= algorithm.cost_bound()

    def test_failures_are_reported_not_raised(self, ring12, ring12_exploration):
        algorithm = Fast(ring12_exploration, label_space=4)
        report = worst_case_search(
            ring12,
            algorithm,
            ConfigCube.make(ring12, [(1, 2)], fix_first_start=True),
            max_rounds=1,  # hopeless horizon
        )
        assert report.worst_time is None
        assert len(report.failures) == 11
        with pytest.raises(ValueError, match="no successful execution"):
            _ = report.max_time


#: Every engine that runs here: cube only when NumPy is importable.
ENGINES = ["reactive", "compiled"] + (["cube"] if numpy_available() else [])


class TestStreaming:
    """The reactive sweep walks its cube's indices lazily, and no engine
    ever builds the configuration population."""

    def test_reactive_path_streams_configurations(
        self, ring12, ring12_exploration, monkeypatch
    ):
        import repro.sim.adversary as adversary_module

        algorithm = CheapSimultaneous(ring12_exploration, label_space=3)
        cube = ConfigCube.make(ring12, [(1, 2)], fix_first_start=True)
        executed = []
        real_simulate = adversary_module.simulate_rendezvous
        real_config = ConfigCube.config
        decoded = []

        def spying(*args, **kwargs):
            result = real_simulate(*args, **kwargs)
            executed.append(kwargs["labels"])
            return result

        def interleaving(self, index):
            # An eager walk decodes every configuration before any
            # simulation, tripping the assertion -- so merely completing
            # the sweep proves the path streams.
            assert len(executed) == len(decoded), (
                "the sweep materialized the configuration stream"
            )
            decoded.append(index)
            return real_config(self, index)

        monkeypatch.setattr(adversary_module, "simulate_rendezvous", spying)
        monkeypatch.setattr(ConfigCube, "config", interleaving)
        report = worst_case_search(ring12, algorithm, cube, engine="reactive")
        assert report.executions == len(cube) == len(executed)

    @pytest.mark.parametrize("horizon", [60, None])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_search_never_builds_the_population(
        self, ring12, ring12_exploration, monkeypatch, engine, horizon
    ):
        algorithm = CheapSimultaneous(ring12_exploration, label_space=3)
        cube = ConfigCube.make(ring12, all_label_pairs(3), fix_first_start=True)
        expected = worst_case_search(
            ring12, algorithm, cube, horizon, engine="reactive"
        )

        def refuse(self):
            raise AssertionError("the search built the population")

        monkeypatch.setattr(ConfigCube, "__iter__", refuse)
        report = worst_case_search(ring12, algorithm, cube, horizon, engine=engine)
        assert report.executions == len(cube)
        assert report == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_foreign_graph_cube_is_refused(ring12, ring12_exploration, engine):
    """A cube over another graph would sweep the wrong start pairs."""
    algorithm = CheapSimultaneous(ring12_exploration, label_space=3)
    foreign = ConfigCube.make(oriented_ring(6), [(1, 2)], delays=(0,))
    with pytest.raises(ValueError, match="configuration cube is over"):
        worst_case_search(ring12, algorithm, foreign, 60, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_each_engine_calls_the_policy_once_per_label_pair_and_delay(
    ring12, ring12_exploration, engine
):
    """Every engine resolves a pass's horizons once per ``(label pair,
    delay)`` of the pairs it touches -- not per start pair, not twice."""
    algorithm = Fast(ring12_exploration, label_space=3)
    cube = ConfigCube.make(ring12, all_label_pairs(3), delays=(0, 4, 9))
    calls = Counter()

    def policy(labels, delay):
        calls[labels, delay] += 1
        return default_horizon(algorithm, labels, delay)

    def once_each(label_pairs):
        return Counter({(labels, d): 1 for labels in label_pairs for d in cube.delays})

    report = worst_case_search(ring12, algorithm, cube, policy, engine=engine)
    assert calls == once_each(cube.label_pairs)
    assert report == worst_case_search(ring12, algorithm, cube, engine="reactive")
    # Two abutting shards in one pass, from inside pair 1 to inside pair 3.
    calls.clear()
    per_pair = len(cube) // len(cube.label_pairs)
    reduce_space(
        engine,
        engine_table(engine, ring12, algorithm),
        ring12,
        algorithm,
        cube,
        [(per_pair + 5, 2 * per_pair), (2 * per_pair, 3 * per_pair + 1)],
        policy,
        PresenceModel.FROM_START,
    )
    assert calls == once_each(cube.label_pairs[1:4])


class TestDefaultHorizon:
    def test_one_formula_everywhere(self, ring12, ring12_exploration):
        """``default_horizon`` and ``simulate_rendezvous``'s implicit
        horizon are the same delegation to ``default_max_rounds``."""
        algorithm = Fast(ring12_exploration, label_space=4)
        config = Configuration(labels=(3, 1), starts=(0, 5), delay=7)
        expected = 7 + max(algorithm.schedule_length(3), algorithm.schedule_length(1))
        assert default_horizon(algorithm, config.labels, config.delay) == expected
        assert default_max_rounds(algorithm, config.labels, config.delay) == expected

    def test_simulate_rendezvous_defaults_to_the_shared_horizon(self):
        """With ``max_rounds`` omitted, a failing execution runs exactly
        ``delay + max(schedule lengths)`` rounds -- no hidden slack (the
        old docstring promised one exploration of slack the code never
        added)."""
        star = star_graph(6)
        algorithm = CheapShortWait(KnownMapDFS(star), label_space=4)
        config = Configuration(labels=(2, 1), starts=(0, 5), delay=2)
        result = simulate_rendezvous(
            star, algorithm, labels=config.labels, starts=config.starts, delay=2
        )
        assert not result.met  # the ablation's known failure mode
        assert result.rounds_executed == default_horizon(algorithm, config.labels, 2)

    def test_factories_without_schedule_length_require_explicit_horizon(self, ring12):
        def bare_factory(ctx):
            obs = yield

        with pytest.raises(ValueError, match="max_rounds"):
            simulate_rendezvous(ring12, bare_factory, labels=(1, 2), starts=(0, 3))


class TestConfigCubeConfig:
    @pytest.mark.parametrize("lo, hi", [(0, None), (0, 5), (7, 40), (130, 500)])
    def test_slices_match_enumeration(self, ring12, lo, hi):
        cube = ConfigCube.make(ring12, [(1, 2), (2, 1)], delays=(0, 3))
        flat = list(enumerate(cube))
        indices = range(len(cube))[lo:hi]
        assert [(index, cube.config(index)) for index in indices] == flat[lo:hi]


#: Verdicts with tied maxima and failures at known indices: the time
#: maximum 9 first appears at index 2, the cost maximum 7 at index 1.
VERDICTS = [(4, 3), (6, 7), (9, 1), (None, 8), (9, 7), (2, 2), (None, 0), (9, 5)]


def _config(index):
    return Configuration(labels=(1, 2), starts=(0, index + 1), delay=0)


def _single_reduction():
    reduction = Reduction()
    for index, (time, cost) in enumerate(VERDICTS):
        reduction.add(Verdict(index, _config(index), time, cost))
    return reduction


class TestReduction:
    def test_first_max_keeps_the_incumbent_on_ties(self):
        early = Verdict(0, _config(0), 5, 5)
        late = Verdict(1, _config(1), 5, 6)
        assert first_max(early, late, "time") is early
        assert first_max(early, late, "cost") is late
        assert first_max(None, late, "time") is late
        assert first_max(early, None, "time") is early

    def test_single_verdicts_keep_the_lowest_index_maximiser(self):
        reduction = _single_reduction()
        assert reduction.worst_time.index == 2
        assert reduction.worst_cost.index == 1
        assert reduction.failures == [(3, _config(3)), (6, _config(6))]
        assert reduction.executions == len(VERDICTS)

    @pytest.mark.skipif(not numpy_available(), reason="blocks are NumPy arrays")
    @pytest.mark.parametrize("split", [1, 3, 5, len(VERDICTS)])
    def test_blocks_reduce_exactly_like_single_verdicts(self, split):
        import numpy as np

        met = np.array([-1 if t is None else t for t, _ in VERDICTS], dtype=np.int64)
        cost = np.array([c for _, c in VERDICTS], dtype=np.int64)
        reduction = Reduction()
        for offset in range(0, len(VERDICTS), split):
            reduction.add_block(
                VerdictBlock(
                    met[offset : offset + split],
                    cost[offset : offset + split],
                    lambda position, offset=offset: (
                        offset + position,
                        _config(offset + position),
                    ),
                )
            )
        single = _single_reduction()
        assert reduction.worst_time == single.worst_time
        assert reduction.worst_cost == single.worst_cost
        assert reduction.failures == single.failures
        assert reduction.executions == single.executions
