"""Tests for the Trim procedure."""

import pytest

from repro.core.cheap import CheapSimultaneous
from repro.core.fast import FastSimultaneous
from repro.exploration.ring import RingExploration
from repro.lower_bounds.ring_exec import meeting_round
from repro.lower_bounds.trim import (
    NonMeetingError,
    extract_trimmed_vectors,
    trim_vectors,
    trimmed_from_algorithm,
)


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
        from repro.lower_bounds.behaviour import behaviour_from_schedule

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
        # The first failure in (x, y, gap) order is (2, 3, 3), on both the
        # pure-Python (short) and NumPy (padded) paths.
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
        simulated = extract_trimmed_vectors(
            ring12,
            algorithm,
            labels=range(1, 5),
            horizon={label: algorithm.schedule_length(label) for label in range(1, 5)},
        )
        assert analytic.vectors == simulated.vectors
        assert analytic.meeting_deadlines == simulated.meeting_deadlines

    def test_wrong_budget_rejected(self):
        algorithm = CheapSimultaneous(RingExploration(10), 4)
        with pytest.raises(ValueError, match="E = n - 1"):
            trimmed_from_algorithm(algorithm, 12)
