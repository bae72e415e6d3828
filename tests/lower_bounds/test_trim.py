"""Tests for the Trim procedure.

Trim reads its deadlines and worst cost off the adversary's engines, so
these tests hold it to the independent one-gap executor,
:func:`~repro.lower_bounds.ring_exec.meeting_round`, on every engine.
"""

import itertools

import pytest

from repro.core.cheap import CheapSimultaneous
from repro.core.fast import FastSimultaneous
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring
from repro.graphs.orientation import CLOCKWISE, COUNTERCLOCKWISE
from repro.lower_bounds import trim
from repro.lower_bounds.behaviour import behaviour_from_schedule
from repro.lower_bounds.ring_exec import meeting_round, solo_cost
from repro.lower_bounds.trim import (
    NonMeetingError,
    extract_trimmed_vectors,
    trimmed_from_algorithm,
)
from repro.sim.actions import WAIT
from repro.sim.adversary import resolve_substrate
from repro.sim.cube import numpy_available

STEP_PORTS = {1: CLOCKWISE, -1: COUNTERCLOCKWISE, 0: WAIT}


class VectorReplay:
    """A factory replaying a fixed behaviour vector per label on the ring.

    Its ``schedule_length`` is the vector's length, the horizon every
    engine reads; it is not ``is_oblivious``, so ``auto`` runs it on the
    reactive simulator.
    """

    def __init__(self, vectors):
        self.vectors = {label: list(vector) for label, vector in vectors.items()}

    def schedule_length(self, label):
        return len(self.vectors[label])

    def __call__(self, ctx):
        obs = yield
        for step in self.vectors[ctx.label]:
            obs = yield STEP_PORTS[step]


def trim_vectors(vectors, ring_size):
    """Trim hand-written behaviour vectors (replayed on the oriented ring)."""
    return extract_trimmed_vectors(
        oriented_ring(ring_size), VectorReplay(vectors), sorted(vectors)
    )


@pytest.fixture(
    params=[
        pytest.param(
            "cube",
            marks=pytest.mark.skipif(
                not numpy_available(), reason="the cube engine needs NumPy"
            ),
        ),
        "compiled",
        "reactive",
    ]
)
def engine(request, monkeypatch):
    """Run Trim on one named engine instead of the ``auto`` choice."""
    monkeypatch.setattr(
        trim,
        "resolve_substrate",
        lambda _auto, factory: resolve_substrate(request.param, factory),
    )
    return request.param


def oracle(algorithm, ring_size):
    """Deadlines and worst cost by :func:`meeting_round`, gap by gap."""
    labels = range(1, algorithm.label_space + 1)
    vectors = {
        label: behaviour_from_schedule(algorithm.schedule(label), ring_size - 1)
        for label in labels
    }
    deadlines = dict.fromkeys(labels, 0)
    max_cost = 0
    for x, y in itertools.permutations(labels, 2):
        for gap in range(1, ring_size):
            met = meeting_round(vectors[x], 0, vectors[y], gap, ring_size)
            assert met is not None
            deadlines[x] = max(deadlines[x], met)
            max_cost = max(
                max_cost, solo_cost(vectors[x], met) + solo_cost(vectors[y], met)
            )
    return deadlines, max_cost


class TestTrimAcrossEngines:
    @pytest.mark.parametrize("algorithm_class", [CheapSimultaneous, FastSimultaneous])
    @pytest.mark.parametrize("ring_size", [6, 12])
    @pytest.mark.parametrize("label_space", [2, 4, 6])
    def test_deadlines_and_max_cost_match_meeting_round(
        self, engine, algorithm_class, ring_size, label_space
    ):
        algorithm = algorithm_class(RingExploration(ring_size), label_space)
        trimmed = trimmed_from_algorithm(algorithm, ring_size)
        deadlines, max_cost = oracle(algorithm, ring_size)
        assert trimmed.meeting_deadlines == deadlines
        assert trimmed.max_cost == max_cost

    @pytest.mark.parametrize(
        "algorithm_class, label_space, max_cost",
        [
            (CheapSimultaneous, 8, 11),
            (CheapSimultaneous, 16, 11),
            (CheapSimultaneous, 32, 11),
            (FastSimultaneous, 8, 99),
            (FastSimultaneous, 16, 143),
            (FastSimultaneous, 32, 187),
        ],
    )
    def test_max_cost_is_pinned(self, algorithm_class, label_space, max_cost):
        algorithm = algorithm_class(RingExploration(12), label_space)
        trimmed = trimmed_from_algorithm(algorithm, 12)
        assert trimmed.max_cost == max_cost


class TestTrimVectors:
    def test_deadline_is_worst_meeting_time(self):
        # Label 1 walks immediately; label 2 waits E rounds then walks.
        n = 6
        vectors = {
            1: [1] * 5 + [0] * 20,
            2: [0] * 5 + [1] * 5 + [0] * 15,
        }
        trimmed = trim_vectors(vectors, n)
        # For label 1, the worst partner position is gap 5 (five steps).
        assert trimmed.deadline(1) == 5
        assert trimmed.vector(1) == (1, 1, 1, 1, 1)

    def test_trimming_preserves_all_meetings(self):
        """Trim must not change any pairwise execution: meeting times with
        trimmed vectors equal those with the raw vectors."""
        n = 12
        algorithm = FastSimultaneous(RingExploration(n), 5)
        trimmed = trimmed_from_algorithm(algorithm, n)
        raw = {
            label: behaviour_from_schedule(algorithm.schedule(label), n - 1)
            for label in range(1, 6)
        }
        for x in range(1, 6):
            for y in range(1, 6):
                if x == y:
                    continue
                for gap in range(1, n):
                    raw_time = meeting_round(raw[x], 0, raw[y], gap, n)
                    trimmed_time = meeting_round(
                        trimmed.vector(x), 0, trimmed.vector(y), gap, n
                    )
                    assert raw_time == trimmed_time

    def test_nonzero_entries_are_operational(self):
        """After trimming, every vector ends at its own deadline: the final
        round of the slowest execution involving that label."""
        n = 12
        algorithm = CheapSimultaneous(RingExploration(n), 4)
        trimmed = trimmed_from_algorithm(algorithm, n)
        for label in trimmed.labels:
            assert len(trimmed.vector(label)) == trimmed.deadline(label)

    def test_incorrect_algorithm_detected(self):
        # Two labels with identical all-zero vectors never meet.
        with pytest.raises(NonMeetingError):
            trim_vectors({1: [0] * 10, 2: [0] * 10}, 6)

    @pytest.mark.parametrize("padding", [0, 40])
    def test_non_meeting_error_names_the_first_failing_gap(self, padding):
        # Label 1 walks the whole ring and meets everyone; label 3 steps
        # back twice, so from label 2 it is met only from gaps 1 and 2.
        # The first failure in (x, y, gap) order is (2, 3, 3), however
        # long the idle tail.
        vectors = {
            1: [1] * 5 + [0] * (2 + padding),
            2: [0] * (7 + padding),
            3: [0] * 5 + [-1, -1] + [0] * padding,
        }
        with pytest.raises(
            NonMeetingError, match=r"^labels 2 and 3 never meet from gap 3:"
        ):
            trim_vectors(vectors, 6)

    def test_needs_two_labels(self):
        with pytest.raises(ValueError):
            trim_vectors({1: [1]}, 6)


class TestExtractTrimmed:
    def test_simulated_extraction_matches_analytic(self, ring12):
        algorithm = CheapSimultaneous(RingExploration(12), 4)
        analytic = trimmed_from_algorithm(algorithm, 12)
        simulated = extract_trimmed_vectors(ring12, algorithm, labels=range(1, 5))
        assert analytic == simulated

    def test_wrong_budget_rejected(self):
        algorithm = CheapSimultaneous(RingExploration(10), 4)
        with pytest.raises(ValueError, match="E = n - 1"):
            trimmed_from_algorithm(algorithm, 12)
