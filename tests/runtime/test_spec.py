"""Job specs: construction, serialization, hashing and shard algebra."""

import pytest

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

    def test_round_trip(self):
        spec = GraphSpec.make("circulant", n=10, offsets=(1, 3))
        again = GraphSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.build() == spec.build()

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

    def test_round_trip(self):
        spec = AlgorithmSpec("fwr-sim", 16, weight=3)
        assert AlgorithmSpec.from_dict(spec.to_dict()) == spec

    def test_weight_is_canonical_for_unweighted_algorithms(self):
        # Only the fwr variants consume the weight, so specs that differ
        # solely in an ignored weight must share one cache key.
        assert AlgorithmSpec("cheap", 8, weight=5) == AlgorithmSpec("cheap", 8)
        assert AlgorithmSpec("fwr", 8, weight=5) != AlgorithmSpec("fwr", 8)


class TestJobSpec:
    def test_round_trip_preserves_equality_and_key(self):
        spec = ring_job(label_pairs=((1, 2), (2, 1)), horizon=100)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

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
            assert spec.config_space_size(graph) == len(list(spec.iter_configs(graph)))

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
        assert list(spec.iter_configs(graph)) == expected

    def test_shards_partition_the_space_with_global_indices(self):
        spec = ring_job()
        graph = spec.graph.build()
        total = spec.config_space_size(graph)
        cut = total // 3
        pieces = [
            list(spec.shard_spec(0, cut).iter_shard(graph)),
            list(spec.shard_spec(cut, total).iter_shard(graph)),
        ]
        rejoined = pieces[0] + pieces[1]
        assert [index for index, _ in rejoined] == list(range(total))
        assert [config for _, config in rejoined] == list(spec.iter_configs(graph))

    def test_invalid_shard_bounds_raise(self):
        with pytest.raises(ValueError, match="invalid shard"):
            ring_job().shard_spec(5, 2)
