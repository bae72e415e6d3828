"""The paper's ``Trim`` procedure (Section 3).

For each label ``x``, ``m_x`` is the latest round at which ``x`` can still
be involved in a meeting, over all partners ``y`` and all pairs of
starting positions; entries of the behaviour vector after ``m_x`` are
zeroed.  Trimming changes no non-solo execution, and it gives every
remaining non-zero entry an *operational* meaning: some execution of the
algorithm is still running at that round.  Both lower-bound proofs work
with trimmed vectors.

Because behaviour vectors are position-independent, only the initial gap
``(p_y - p_x) mod n`` matters, so the maximisation fixes ``p_x = 0`` and
sweeps the ``n - 1`` possible gaps -- an exact, not heuristic, reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.graphs.port_graph import PortLabeledGraph
from repro.graphs.validation import require_oriented_ring
from repro.lower_bounds.behaviour import behaviour_from_schedule, behaviour_from_solo_run
from repro.lower_bounds.ring_exec import meeting_rounds_by_gap
from repro.sim.program import ProgramFactory


class NonMeetingError(RuntimeError):
    """Raised when a supposedly correct algorithm fails to meet during Trim."""


@dataclass(frozen=True)
class TrimmedAlgorithm:
    """Result of trimming: per-label vectors, ``m_x`` values, metadata."""

    ring_size: int
    vectors: Mapping[int, tuple[int, ...]]
    meeting_deadlines: Mapping[int, int]  # the paper's m_x

    @property
    def labels(self) -> list[int]:
        return sorted(self.vectors)

    def vector(self, label: int) -> tuple[int, ...]:
        return self.vectors[label]

    def deadline(self, label: int) -> int:
        return self.meeting_deadlines[label]


def trim_vectors(
    raw_vectors: Mapping[int, Sequence[int]], ring_size: int
) -> TrimmedAlgorithm:
    """Apply ``Trim`` to the given per-label behaviour vectors.

    Raises :class:`NonMeetingError` if some pair of labels never meets from
    some starting gap -- i.e. if the vectors do not come from a correct
    rendezvous algorithm (or were recorded over too short a horizon).
    """
    labels = sorted(raw_vectors)
    if len(labels) < 2:
        raise ValueError("trimming needs at least two labels")

    deadlines: dict[int, int] = {}
    for x in labels:
        worst = 0
        for y in labels:
            if y == x:
                continue
            rounds = meeting_rounds_by_gap(raw_vectors[x], raw_vectors[y], ring_size)
            for gap, met in enumerate(rounds):
                if met is None:
                    raise NonMeetingError(
                        f"labels {x} and {y} never meet from gap {gap}: "
                        "not a correct algorithm (or truncated vectors)"
                    )
                worst = max(worst, met)
        deadlines[x] = worst

    trimmed = {
        x: tuple(raw_vectors[x][: deadlines[x]])
        for x in labels
    }
    return TrimmedAlgorithm(
        ring_size=ring_size, vectors=trimmed, meeting_deadlines=deadlines
    )


def extract_trimmed_vectors(
    ring: PortLabeledGraph,
    factory: ProgramFactory,
    labels: Sequence[int],
    horizon: int | Mapping[int, int],
) -> TrimmedAlgorithm:
    """Record solo behaviour vectors by simulation, then trim them.

    ``horizon`` bounds the recorded solo executions; pass the algorithm's
    ``schedule_length`` per label (or a single sufficient constant).
    """
    ring_size = require_oriented_ring(ring)
    raw: dict[int, list[int]] = {}
    for label in labels:
        rounds = horizon[label] if isinstance(horizon, Mapping) else horizon
        raw[label] = behaviour_from_solo_run(ring, factory, label, rounds)
    return trim_vectors(raw, ring_size)


def trimmed_from_algorithm(algorithm, ring_size: int) -> TrimmedAlgorithm:
    """Trim a schedule-based algorithm analytically (no simulation).

    ``algorithm`` must be a :class:`~repro.core.base.RendezvousAlgorithm`
    whose exploration is the clockwise ring walk with budget
    ``ring_size - 1`` (the Section 3 setting).
    """
    if algorithm.exploration_budget != ring_size - 1:
        raise ValueError(
            "Section 3 requires E = n - 1 (the clockwise ring exploration); "
            f"got E={algorithm.exploration_budget} for n={ring_size}"
        )
    raw = {
        label: behaviour_from_schedule(
            algorithm.schedule(label), algorithm.exploration_budget
        )
        for label in range(1, algorithm.label_space + 1)
    }
    return trim_vectors(raw, ring_size)
