"""The named registries and the typed SpecError they raise."""


import pytest

from repro.exploration.registry import KnowledgeModel
from repro.graphs.families import (
    complete_graph,
    full_binary_tree,
    oriented_ring,
    path_graph,
    petersen_graph,
    star_graph,
    torus_grid,
)
from repro.registry import (
    ALGORITHMS,
    EXPLORATIONS,
    GRAPH_FAMILIES,
    KNOWLEDGE_MODELS,
    PRESENCE_MODELS,
    Registry,
    SpecError,
)
from repro.runtime.spec import AlgorithmSpec, GraphSpec, JobSpec
from repro.runtime.worker import run_shard
from repro.sim.adversary import ConfigCube, all_label_pairs, worst_case_search
from repro.sim.simulator import PresenceModel


class TestRegistryMachinery:
    def test_register_and_get(self):
        reg = Registry("widget")

        @reg.register("square", sides=4)
        def make_square():
            return "square"

        assert reg.get("square") is make_square
        assert reg.entry("square").metadata == {"sides": 4}
        assert "square" in reg
        assert reg.names() == ["square"]

    def test_mapping_protocol_matches_old_builder_dicts(self):
        reg = Registry("widget")
        reg.register("b")(str)
        reg.register("a")(int)
        assert sorted(reg) == ["a", "b"]
        assert len(reg) == 2
        assert reg["a"] is int

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("x")(int)
        with pytest.raises(ValueError, match="duplicate widget registration"):
            reg.register("x")(str)

    def test_reexecuted_provider_may_replace_its_own_entry(self):
        # A provider module re-imported after a failed first import
        # re-registers the same definitions; that must not be fatal.
        reg = Registry("widget")
        reg.register("x")(int)
        assert reg.register("x")(int) is int
        assert reg.get("x") is int

    def test_reexecuted_enum_provider_may_replace_its_own_entry(self):
        # Enum members have no __qualname__; re-execution of an enum
        # provider (same module, class and member name) must still be
        # treated as the same origin, not a duplicate.
        import enum

        def make_color():
            class Color(enum.Enum):
                RED = "red"

            return Color

        reg = Registry("color")
        reg.register("red")(make_color().RED)
        second = make_color()
        reg.register("red")(second.RED)
        assert reg.get("red") is second.RED

    def test_unknown_name_raises_spec_error_with_choices(self):
        reg = Registry("widget")
        reg.register("a")(int)
        with pytest.raises(SpecError, match=r"unknown widget 'z'; choose from \['a'\]"):
            reg.get("z")
        try:
            reg.get("z")
        except SpecError as err:
            assert err.kind == "widget"
            assert err.name == "z"
            assert err.choices == ["a"]

    def test_spec_error_is_a_value_error(self):
        assert issubclass(SpecError, ValueError)

    def test_spec_error_pickles(self):
        # Workers raise SpecError across process boundaries, so the
        # exception must survive the executor's pickle round trip.
        import pickle

        err = pickle.loads(pickle.dumps(SpecError("widget", "z", ["a", "b"])))
        assert (err.kind, err.name, err.choices) == ("widget", "z", ["a", "b"])
        assert "unknown widget 'z'" in str(err)

    def test_lookup_returns_none_instead_of_raising(self):
        reg = Registry("widget")
        assert reg.lookup("missing") is None

    def test_failed_provider_import_is_retried_not_masked(self):
        reg = Registry("widget", providers=("repro.no_such_provider_module",))
        with pytest.raises(ModuleNotFoundError):
            reg.names()
        # The real error must surface again, not a misleading empty registry.
        with pytest.raises(ModuleNotFoundError):
            reg.get("anything")


class TestPopulatedRegistries:
    def test_graph_families_cover_the_deterministic_constructors(self):
        assert {
            "ring", "path", "star", "complete", "tree", "hypercube",
            "torus", "lollipop", "circulant", "complete-bipartite", "petersen",
        } == set(GRAPH_FAMILIES.names())
        assert GRAPH_FAMILIES.get("ring") is oriented_ring
        assert GRAPH_FAMILIES.get("path") is path_graph
        assert GRAPH_FAMILIES.get("star") is star_graph
        assert GRAPH_FAMILIES.get("complete") is complete_graph
        assert GRAPH_FAMILIES.get("tree") is full_binary_tree
        assert GRAPH_FAMILIES.get("torus") is torus_grid
        assert GRAPH_FAMILIES.get("petersen") is petersen_graph

    def test_vertex_transitive_metadata(self):
        # petersen is deliberately absent: its fixed port assignment is
        # not port-preservingly vertex-transitive, so pinning the first
        # start there would drop genuine worst cases.
        transitive = {
            name
            for name in GRAPH_FAMILIES
            if GRAPH_FAMILIES.entry(name).metadata.get("vertex_transitive")
        }
        assert transitive == {"ring", "complete", "hypercube", "torus", "circulant"}

    def test_pinning_is_sound_on_every_vertex_transitive_family(self):
        """Pinned and full sweeps agree wherever the metadata allows pinning."""
        params = {
            "ring": {"n": 6},
            "complete": {"n": 5},
            "hypercube": {"dimension": 2},
            "torus": {"rows": 3, "cols": 3},
            "circulant": {"n": 7, "offsets": [1, 2]},
        }
        for name, kwargs in params.items():
            assert GRAPH_FAMILIES.entry(name).metadata["vertex_transitive"]
            graph = GraphSpec.make(name, **kwargs).build()
            algorithm = AlgorithmSpec("fast-sim", 3).build(graph)
            pinned, full = (
                worst_case_search(
                    graph,
                    algorithm,
                    ConfigCube.make(graph, all_label_pairs(3), fix_first_start=pin),
                )
                for pin in (True, False)
            )
            assert (pinned.max_time, pinned.max_cost) == (
                full.max_time,
                full.max_cost,
            ), name

    def test_every_family_sizes_from_a_node_budget(self):
        for name in GRAPH_FAMILIES:
            from_size = GRAPH_FAMILIES.entry(name).metadata["from_size"]
            graph = GraphSpec.make(name, **from_size(9)).build()
            assert graph.num_nodes >= 2

    def test_algorithms_and_their_metadata(self):
        assert ALGORITHMS.names() == [
            "cheap", "cheap-sim", "fast", "fast-sim", "fwr", "fwr-sim"
        ]
        weighted = {
            n for n in ALGORITHMS if ALGORITHMS.entry(n).metadata.get("weighted")
        }
        # Simultaneous-start is read off the class itself -- the registry
        # deliberately does not duplicate it as metadata.
        simultaneous = {
            n for n in ALGORITHMS
            if ALGORITHMS.entry(n).target.requires_simultaneous_start
        }
        assert weighted == {"fwr", "fwr-sim"}
        assert simultaneous == {"cheap-sim", "fast-sim", "fwr-sim"}

    def test_presence_and_knowledge_models_mirror_the_enums(self):
        assert PRESENCE_MODELS.names() == sorted(m.value for m in PresenceModel)
        assert PRESENCE_MODELS.get("parachute") is PresenceModel.PARACHUTE
        assert KNOWLEDGE_MODELS.names() == sorted(m.value for m in KnowledgeModel)
        assert (
            KNOWLEDGE_MODELS.get("map-with-position")
            is KnowledgeModel.MAP_WITH_POSITION
        )

    def test_every_exploration_entry_builds_on_a_suitable_graph(self):
        suitable = {
            "ring-clockwise": oriented_ring(6),
            "dfs-open": star_graph(5),
            "dfs-closed": star_graph(5),
            "eulerian": torus_grid(3, 3),       # all degrees even
            "hamiltonian": complete_graph(4),
            "try-all-dfs": path_graph(4),
            "uxs": path_graph(3),
        }
        assert set(suitable) == set(EXPLORATIONS.names())
        for name, graph in suitable.items():
            procedure = EXPLORATIONS.entry(name).build(graph)
            assert procedure.budget >= 1
        for name in EXPLORATIONS:
            assert EXPLORATIONS.entry(name).metadata["knowledge"], name


class TestSpecErrorsFromJobSpecs:
    """The satellite fix: grid errors are one typed error, not KeyError soup."""

    def test_unknown_graph_family(self):
        with pytest.raises(SpecError, match="unknown graph family 'moebius'"):
            GraphSpec.make("moebius", n=8).build()

    def test_unknown_algorithm(self):
        with pytest.raises(SpecError, match="unknown algorithm 'teleport'"):
            AlgorithmSpec("teleport", 8).build(oriented_ring(6))

    def test_unknown_knowledge_model(self):
        with pytest.raises(SpecError, match="unknown knowledge model 'telepathy'"):
            AlgorithmSpec("fast", 4, knowledge="telepathy").build(oriented_ring(6))

    def test_unknown_presence_model_in_worker(self):
        spec = JobSpec(
            algorithm=AlgorithmSpec("fast-sim", 3),
            graph=GraphSpec.make("ring", n=4),
            presence="quantum",
        )
        with pytest.raises(SpecError, match="unknown presence model 'quantum'"):
            run_shard(spec)

    def test_error_names_the_valid_choices(self):
        try:
            GraphSpec.make("moebius").build()
        except SpecError as err:
            assert "ring" in err.choices and "petersen" in err.choices
        else:
            pytest.fail("expected SpecError")
