"""Job specs: construction, serialization, hashing and shard algebra."""

from dataclasses import replace

import pytest

from repro.api import Scenario
from repro.core.fast import Fast, FastSimultaneous
from repro.core.fast_relabel import FastWithRelabeling
from repro.graphs.families import full_binary_tree, oriented_ring
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim.adversary import Configuration, all_label_pairs, default_start_pairs


def ring_job(**overrides):
    defaults = dict(
        algorithm=AlgorithmSpec("fast", 4),
        graph=GraphSpec.make("ring", n=8),
        delays=(0, 2),
        fix_first_start=True,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestGraphSpec:
    def test_build_matches_family_constructor(self):
        assert GraphSpec.make("ring", n=8).build() == oriented_ring(8)
        assert GraphSpec.make("tree", depth=2).build() == full_binary_tree(2)

    def test_params_order_is_canonical(self):
        a = GraphSpec.make("torus", rows=3, cols=4)
        b = GraphSpec.make("torus", cols=4, rows=3)
        assert a == b and hash(a) == hash(b)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            GraphSpec.make("moebius", n=8).build()

    def test_mapping_params_rejected_to_keep_specs_hashable(self):
        with pytest.raises(ValueError, match="not a mapping"):
            GraphSpec.make("ring", n={"a": 1})
        with pytest.raises(ValueError, match="not a mapping"):
            GraphSpec.make("ring", n=[{"a": 1}])  # nested inside a sequence


class TestAlgorithmSpec:
    def test_builds_the_named_algorithm(self, ring12):
        assert isinstance(AlgorithmSpec("fast", 8).build(ring12), Fast)
        assert isinstance(AlgorithmSpec("fast-sim", 8).build(ring12), FastSimultaneous)
        fwr = AlgorithmSpec("fwr", 8, weight=3).build(ring12)
        assert isinstance(fwr, FastWithRelabeling)
        assert fwr.label_space == 8

    def test_unknown_algorithm_raises(self, ring12):
        with pytest.raises(ValueError, match="unknown algorithm"):
            AlgorithmSpec("teleport", 8).build(ring12)

    def test_weight_is_canonical_for_unweighted_algorithms(self):
        # Only the fwr variants consume the weight, so specs that differ
        # solely in an ignored weight must share one cache key.
        assert AlgorithmSpec("cheap", 8, weight=5) == AlgorithmSpec("cheap", 8)
        assert AlgorithmSpec("fwr", 8, weight=5) != AlgorithmSpec("fwr", 8)


class TestJobSpec:
    def test_key_is_content_addressed(self):
        assert ring_job().key() == ring_job().key()
        assert ring_job().key() != ring_job(delays=(0,)).key()
        assert ring_job().key() != ring_job(presence="parachute").key()

    def test_shard_changes_key_but_not_sweep_key(self):
        whole = ring_job()
        shard = whole.shard_spec(0, 10)
        assert shard.key() != whole.key()
        assert shard.sweep_key() == whole.key()
        assert shard.sweep_spec() == whole

    def test_default_label_pairs_cover_all_ordered_pairs(self):
        spec = ring_job()
        assert spec.resolved_label_pairs() == tuple(all_label_pairs(4))

    def test_config_space_size_matches_enumeration(self):
        for fix in (True, False):
            spec = ring_job(fix_first_start=fix)
            graph = spec.graph.build()
            assert spec.config_space_size(graph) == len(list(spec.config_cube(graph)))

    def test_enumeration_matches_adversary_order(self):
        spec = ring_job()
        graph = spec.graph.build()
        # Label pairs outermost, then start pairs, then delays.
        expected = [
            Configuration(labels=labels, starts=starts, delay=delay)
            for labels in spec.resolved_label_pairs()
            for starts in default_start_pairs(graph, fix_first_start=True)
            for delay in spec.delays
        ]
        assert list(spec.config_cube(graph)) == expected

    def test_shards_partition_the_space_with_global_indices(self):
        spec = ring_job()
        graph = spec.graph.build()
        cube = spec.config_cube(graph)
        total = spec.config_space_size(graph)
        cut = total // 3
        pieces = [range(0, cut), range(cut, total)]
        rejoined = [cube.config(index) for piece in pieces for index in piece]
        assert rejoined == list(cube)

    def test_invalid_shard_bounds_raise(self):
        with pytest.raises(ValueError, match="invalid shard"):
            ring_job().shard_spec(5, 2)


class TestPinnedContentKeys:
    """The run-store content key, pinned to the bytes existing caches use.

    A change to :meth:`JobSpec.to_dict` (or to how a scenario builds its
    spec) orphans every stored run; these digests make it fail here
    instead of only in a cold-cache rerun.
    """

    @pytest.mark.parametrize(
        "engine, key",
        [
            ("reactive", "77cae088525e2f05e709ae85cfee55e9232bbc8376aaf531dd2d89e7d764077d"),
            ("cube", "5e390224ff95dd2b49cdc5a5898537a20296ad9009e47d47c286ae1a149799b3"),
            ("compiled", "07a70b125be1bbd517320045573e1f3d48f07af6f48c91624b6f8b39b186cee3"),
        ],
    )
    def test_sweep_key_is_pinned(self, engine, key):
        spec = Scenario(
            graph="ring",
            graph_params={"n": 8},
            algorithm="fast",
            label_space=4,
            delays=(0,),
        ).job_spec()
        assert replace(spec, engine=engine).sweep_key() == key
