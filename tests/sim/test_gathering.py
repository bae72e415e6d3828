"""Tests for the k-agent gathering extension."""

import itertools

import pytest

from repro.core.cheap import CheapSimultaneous
from repro.core.fast import FastSimultaneous
from repro.exploration.dfs import KnownMapDFS
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring, star_graph
from repro.graphs.orientation import CLOCKWISE
from repro.graphs.port_graph import PortEdge, PortLabeledGraph
from repro.sim.compiled import TrajectoryTable
from repro.sim.gathering import gather
from repro.sim.simulator import simulate_rendezvous


class Scripted:
    """Each label runs its own action script (none: it sits still)."""

    def __init__(self, scripts=None):
        self.scripts = scripts or {}

    def schedule_length(self, label):
        return len(self.scripts.get(label, ()))

    def __call__(self, ctx):
        obs = yield
        for action in self.scripts.get(ctx.label, ()):
            obs = yield action


class TestMergeSemantics:
    def test_walker_collects_two_sitters(self, ring12):
        table = TrajectoryTable(ring12, Scripted({1: [CLOCKWISE] * 11}))
        result = gather(table, labels=(1, 2, 3), starts=(0, 3, 7), max_rounds=20)
        assert result.gathered
        assert result.time == 7  # second sitter collected at node 7
        assert result.merge_times == (3, 7)
        # Cost: 3 solo steps, then 4 steps as a pair: 3 + 8 = 11.
        assert result.cost == 11

    def test_leader_is_smallest_label(self, ring12):
        # The walker has the LARGER label; after merging with a sitter of
        # smaller label, the group must follow the sitter (i.e. stop).
        table = TrajectoryTable(ring12, Scripted({5: [CLOCKWISE] * 11}))
        result = gather(table, labels=(5, 1, 2), starts=(0, 3, 7), max_rounds=40)
        # Group {5,1} follows label 1's program (idle forever): the third
        # agent is never collected.
        assert not result.gathered
        assert result.final_group_count == 2
        assert result.merge_times == (3,)
        assert result.cost == 3

    def test_validation(self, ring12):
        table = TrajectoryTable(ring12, Scripted())
        with pytest.raises(ValueError, match="two agents"):
            gather(table, labels=(1,), starts=(0,), max_rounds=5)
        with pytest.raises(ValueError, match="distinct"):
            gather(table, labels=(1, 1), starts=(0, 3), max_rounds=5)
        with pytest.raises(ValueError, match="distinct"):
            gather(table, labels=(1, 2), starts=(3, 3), max_rounds=5)
        disconnected = PortLabeledGraph.from_edges(
            4, [PortEdge(0, 0, 1, 0), PortEdge(2, 0, 3, 0)]
        )
        with pytest.raises(ValueError, match="connected"):
            gather(
                TrajectoryTable(disconnected, Scripted()),
                labels=(1, 2),
                starts=(0, 2),
                max_rounds=5,
            )


@pytest.mark.parametrize("algorithm_class", [CheapSimultaneous, FastSimultaneous])
@pytest.mark.parametrize("graph_name", ["ring6", "star5"])
def test_two_agents_gather_as_they_rendezvous(algorithm_class, graph_name):
    """At k = 2 gathering is rendezvous: time and cost equal the reactive
    simulator's for every label pair and start pair."""
    if graph_name == "ring6":
        graph = oriented_ring(6)
        exploration = RingExploration(6)
    else:
        graph = star_graph(5)
        exploration = KnownMapDFS(graph)
    algorithm = algorithm_class(exploration, 4)
    table = TrajectoryTable(graph, algorithm)
    nodes = range(graph.num_nodes)
    for labels in itertools.permutations(range(1, 5), 2):
        for starts in itertools.permutations(nodes, 2):
            result = gather(table, labels, starts)
            oracle = simulate_rendezvous(graph, algorithm, labels=labels, starts=starts)
            assert result.gathered == oracle.met, (labels, starts)
            assert (result.time, result.cost) == (oracle.time, oracle.cost), (
                labels,
                starts,
            )


class TestGatheringWithPaperAlgorithms:
    def test_cheap_gathers_k_agents_on_ring(self, ring12, ring12_exploration):
        """CheapSimultaneous gathers any k agents: the smallest label's
        exploration pass collects everyone (all others still waiting)."""
        label_space = 8
        table = TrajectoryTable(
            ring12, CheapSimultaneous(ring12_exploration, label_space)
        )
        for labels in ((1, 2, 3), (2, 5, 7), (3, 4, 6, 8)):
            starts = tuple((3 * i) % 12 for i in range(len(labels)))
            result = gather(table, labels, starts)
            assert result.gathered, (labels, starts)
            smallest = min(labels)
            assert result.time <= smallest * 11  # within the 2-agent bound

    def test_fast_gathers_k_agents_within_two_agent_bound(
        self, ring12, ring12_exploration
    ):
        """Any two surviving leaders trace the two-agent execution, so a
        single group remains by Fast's two-agent bound."""
        label_space = 8
        algorithm = FastSimultaneous(ring12_exploration, label_space)
        table = TrajectoryTable(ring12, algorithm)
        bound = algorithm.time_bound()
        for labels in itertools.combinations(range(1, label_space + 1), 3):
            starts = (0, 4, 8)
            result = gather(table, labels, starts)
            assert result.gathered, labels
            assert result.time <= bound

    def test_gathering_on_star(self):
        star = star_graph(7)
        table = TrajectoryTable(star, CheapSimultaneous(KnownMapDFS(star), 6))
        result = gather(table, labels=(2, 4, 6), starts=(1, 3, 5))
        assert result.gathered
        assert result.node is not None

    def test_cost_counts_all_members(self, ring12, ring12_exploration):
        table = TrajectoryTable(ring12, CheapSimultaneous(ring12_exploration, 4))
        pair = gather(table, labels=(1, 2), starts=(0, 6))
        trio = gather(table, labels=(1, 2, 3), starts=(0, 6, 9))
        assert trio.gathered and pair.gathered
        # Collecting a third agent can only add traversals.
        assert trio.cost >= pair.cost

    def test_four_agents_worst_labels(self, ring12, ring12_exploration):
        table = TrajectoryTable(ring12, FastSimultaneous(ring12_exploration, 8))
        result = gather(table, labels=(5, 6, 7, 8), starts=(0, 3, 6, 9))
        assert result.gathered
        # A round may absorb several groups, so merge rounds number
        # between 1 and k - 1 (here the merges happen one at a time).
        assert 1 <= len(result.merge_times) <= 3
