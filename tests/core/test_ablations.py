"""Tests for the ablation variants: each removed detail must visibly break
(or visibly not break) the algorithm, as documented."""

import itertools

import pytest

from repro.core.ablations import CheapShortWait, FastNoDelimiter, FastNoDoubling
from repro.core.fast import Fast
from repro.experiments import catalog
from repro.exploration.dfs import KnownMapDFS
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring, star_graph
from repro.sim.adversary import ConfigCube, all_label_pairs, worst_case_search
from repro.sim.simulator import simulate_rendezvous


class TestFastNoDelimiter:
    def test_prefix_pair_never_meets(self, ring12, ring12_exploration):
        """Labels 2 (bits 10) and 4 (bits 100): without the delimiter the
        doubled strings are 1100 and 110000 -- a prefix pair whose suffix
        is all zeros.  Both agents move identically, then idle forever."""
        algorithm = FastNoDelimiter(ring12_exploration, 8)
        result = simulate_rendezvous(
            ring12, algorithm, labels=(2, 4), starts=(0, 5),
            max_rounds=10 * algorithm.schedule_length(4),
        )
        assert not result.met

    def test_non_prefix_pairs_still_meet(self, ring12, ring12_exploration):
        """The ablation is surgical: pairs whose strings differ at some
        position (with a 1 on one side) still meet."""
        algorithm = FastNoDelimiter(ring12_exploration, 8)
        result = simulate_rendezvous(ring12, algorithm, labels=(5, 6), starts=(0, 5))
        assert result.met


class TestCheapShortWait:
    def test_counterexample_on_the_star(self):
        """The adversary-found configuration: labels (1, 2) on the 6-star,
        starts (0, 5), delay 2 -- the halved waiting window lets both
        agents explore in lockstep and never coincide."""
        star = star_graph(6)
        algorithm = CheapShortWait(KnownMapDFS(star), 6)
        result = simulate_rendezvous(
            star, algorithm, labels=(2, 1), starts=(0, 5), delay=2,
            max_rounds=10 * algorithm.schedule_length(6),
        )
        assert not result.met

    def test_correct_with_simultaneous_start(self):
        """With no delay the shorter wait is still enough (the failure is
        specifically a delay interaction)."""
        star = star_graph(6)
        algorithm = CheapShortWait(KnownMapDFS(star), 6)
        for a, b in itertools.permutations(range(1, 5), 2):
            result = simulate_rendezvous(star, algorithm, labels=(a, b), starts=(0, 3))
            assert result.met


class TestFastNoDoubling:
    def test_no_counterexample_at_small_scale(self, ring12, ring12_exploration):
        """Documented negative result: removing the doubling has no found
        counterexample at simulation scale (the doubling is what makes the
        *proof* go through for all graphs/delays, at a 2x schedule cost)."""
        algorithm = FastNoDoubling(ring12_exploration, 6)
        for a, b in itertools.permutations(range(1, 7), 2):
            for delay in (0, 5, 11):
                result = simulate_rendezvous(
                    ring12, algorithm, labels=(a, b), starts=(0, 6), delay=delay
                )
                assert result.met

    def test_half_the_schedule_of_real_fast(self, ring12_exploration):
        real = Fast(ring12_exploration, 8)
        ablated = FastNoDoubling(ring12_exploration, 8)
        for label in (3, 8):
            assert ablated.schedule_length(label) < real.schedule_length(label)
            assert ablated.schedule_length(label) >= real.schedule_length(label) // 2 - 11


def quick_ablations():
    """The three quick-mode ablation runs: ``(graph, algorithm, delays)``."""
    ring = oriented_ring(catalog.RING_SIZE)
    ring_exploration = RingExploration(catalog.RING_SIZE)
    star = star_graph(6)
    label_space = catalog.ABLATIONS_LABEL_SPACE
    return {
        "no-delimiter": (ring, FastNoDelimiter(ring_exploration, label_space), (0,)),
        "short-wait": (
            star,
            CheapShortWait(KnownMapDFS(star), label_space),
            catalog.ABLATIONS_QUICK_SHORT_WAIT_DELAYS,
        ),
        "no-doubling": (
            ring,
            FastNoDoubling(ring_exploration, label_space),
            catalog.ABLATIONS_QUICK_NO_DOUBLING_DELAYS,
        ),
    }


@pytest.mark.parametrize("name", ["no-delimiter", "short-wait", "no-doubling"])
def test_ablation_counts_equal_the_reactive_search(name):
    """The campaign's failure counts (engine ``auto``) equal a reactive
    search over the same cube: failures, total and first counterexample."""
    graph, algorithm, delays = quick_ablations()[name]
    cube = ConfigCube.make(
        graph,
        all_label_pairs(catalog.ABLATIONS_LABEL_SPACE),
        delays=delays,
        start_pairs=[(0, b) for b in range(1, graph.num_nodes)],
    )

    def horizon(config):
        a, b = config.labels
        longer = max(algorithm.schedule_length(a), algorithm.schedule_length(b))
        return 6 * longer + config.delay

    reactive = worst_case_search(graph, algorithm, cube, horizon, engine="reactive")
    first = reactive.failures[0] if reactive.failures else None
    assert catalog._ablations_count_failures(graph, algorithm, delays) == {
        "failures": len(reactive.failures),
        "total": len(cube),
        "first_counterexample": (
            None if first is None else [*first.labels, first.starts[1], first.delay]
        ),
    }
