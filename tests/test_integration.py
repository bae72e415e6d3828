"""Cross-module integration tests: the full pipeline on diverse graphs.

These tests are the library-level statement of the paper's headline
claims, run end to end: graph construction -> exploration selection ->
algorithm -> adversary -> bound comparison -> certificates.
"""

import itertools

import pytest

from repro.core import (
    Cheap,
    CheapSimultaneous,
    Fast,
    FastSimultaneous,
    FastWithRelabeling,
    FastWithRelabelingSimultaneous,
)
from repro.exploration import best_exploration
from repro.exploration.ring import RingExploration
from repro.graphs.families import (
    complete_graph,
    full_binary_tree,
    hypercube,
    oriented_ring,
    petersen_graph,
    star_graph,
)
from repro.lower_bounds import certify_theorem_31, certify_theorem_32
from repro.lower_bounds.trim import trimmed_from_algorithm
from repro.sim.adversary import ConfigCube, all_label_pairs, worst_case_search

GRAPHS = [
    ("ring-9", oriented_ring(9), True),
    ("star-7", star_graph(7), False),
    ("tree-d2", full_binary_tree(2), False),
    ("complete-5", complete_graph(5), True),
    ("hypercube-3", hypercube(3), True),
    ("petersen", petersen_graph(), True),
]


def worst_case(algorithm, graph, label_pairs=None, delays=(0,), fix_first_start=False):
    """The adversary's worst case over live objects; no configuration may fail."""
    if label_pairs is None:
        label_pairs = all_label_pairs(algorithm.label_space)
    cube = ConfigCube.make(
        graph, label_pairs, delays=delays, fix_first_start=fix_first_start
    )
    report = worst_case_search(graph, algorithm, cube, engine="auto")
    assert not report.failures, (algorithm.name, report.failures[0])
    return report


@pytest.mark.parametrize("name,graph,transitive", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_all_algorithms_meet_bounds_on_all_graphs(name, graph, transitive):
    """Every algorithm variant, on every family, stays within its declared
    time and cost bounds under the adversary."""
    exploration = best_exploration(graph)
    label_space = 4
    algorithms = [
        Cheap(exploration, label_space),
        CheapSimultaneous(exploration, label_space),
        Fast(exploration, label_space),
        FastSimultaneous(exploration, label_space),
        FastWithRelabeling(exploration, label_space, 2),
        FastWithRelabelingSimultaneous(exploration, label_space, 2),
    ]
    for algorithm in algorithms:
        delays = (0,) if algorithm.requires_simultaneous_start else (0, 4)
        report = worst_case(
            algorithm, graph, delays=delays, fix_first_start=transitive
        )
        assert report.max_time <= algorithm.time_bound(), (name, algorithm.name)
        assert report.max_cost <= algorithm.cost_bound(), (name, algorithm.name)


def test_headline_tradeoff_on_the_ring():
    """The paper's abstract, in one test: Cheap costs Theta(E) but needs
    Theta(EL) time; Fast needs Theta(E log L) of both; the relabeled
    variant interpolates.  The asymptotic ordering (sqrt(L) between log L
    and L) needs a large label space, so adversarial pairs are selected
    rather than exhaustively enumerated."""
    n, label_space = 12, 1024
    ring = oriented_ring(n)
    exploration = RingExploration(n)
    pairs = [(1022, 1023), (1023, 1024), (511, 512), (1, 2), (1, 1024)]
    cheap, middle, fast = (
        worst_case(algorithm, ring, label_pairs=pairs, fix_first_start=True)
        for algorithm in (
            CheapSimultaneous(exploration, label_space),
            FastWithRelabelingSimultaneous(exploration, label_space, 2),
            FastSimultaneous(exploration, label_space),
        )
    )

    # Cost ordering: Cheap <= middle <= Fast (strictly at the ends).
    assert cheap.max_cost == n - 1  # exactly E
    assert cheap.max_cost < middle.max_cost < fast.max_cost
    # Time ordering: Fast <= middle <= Cheap.
    assert fast.max_time < middle.max_time < cheap.max_time


def test_time_scaling_matches_the_lower_bounds():
    """Measured growth rates: Cheap's worst time is linear in L (Theorem
    3.1 says it must be); Fast's cost grows with log L (Theorem 3.2)."""
    n = 12
    exploration = RingExploration(n)
    ring = oriented_ring(n)

    def cheap_worst_time(label_space):
        algorithm = CheapSimultaneous(exploration, label_space)
        worst = 0
        for pair in ((label_space - 1, label_space),):
            for start_b in (1, 11):
                from repro.sim import simulate_rendezvous

                result = simulate_rendezvous(
                    ring, algorithm, labels=pair, starts=(0, start_b)
                )
                worst = max(worst, result.time)
        return worst

    assert cheap_worst_time(16) / cheap_worst_time(4) >= 3.5  # ~linear in L

    def fast_worst_cost(label_space):
        algorithm = FastSimultaneous(exploration, label_space)
        worst = 0
        for pair in itertools.permutations(
            (label_space // 2, label_space - 1, label_space), 2
        ):
            for start_b in (1, 6, 11):
                from repro.sim import simulate_rendezvous

                result = simulate_rendezvous(
                    ring, algorithm, labels=pair, starts=(0, start_b)
                )
                worst = max(worst, result.cost)
        return worst

    # L: 4 -> 64 is a 16x increase but only ~3x in log L; Fast's measured
    # cost must grow sublinearly (well under 6x).
    assert fast_worst_cost(64) / fast_worst_cost(4) <= 6


def test_certificates_fit_their_hypotheses():
    """Theorem 3.1's machinery validates on the cost-E algorithm and
    Theorem 3.2's on the time-optimal one, at several sizes."""
    for n in (12, 18):
        cheap = trimmed_from_algorithm(
            CheapSimultaneous(RingExploration(n), 8), n
        )
        assert certify_theorem_31(cheap).all_facts_hold
        fast = trimmed_from_algorithm(FastSimultaneous(RingExploration(n), 8), n)
        assert certify_theorem_32(fast).all_facts_hold


def test_library_version_exposed():
    import repro

    assert repro.__version__ == "1.5.0"
