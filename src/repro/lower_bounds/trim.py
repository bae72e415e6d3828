"""The paper's ``Trim`` procedure (Section 3).

For each label ``x``, ``m_x`` is the latest round at which ``x`` can still
be involved in a meeting, over all partners ``y`` and all pairs of
starting positions; entries of the behaviour vector after ``m_x`` are
zeroed.  Trimming changes no non-solo execution, and it gives every
remaining non-zero entry an *operational* meaning: some execution of the
algorithm is still running at that round.  Both lower-bound proofs work
with trimmed vectors.

The deadlines are the adversary's own numbers, so they are read off the
engine ladder (:func:`~repro.sim.adversary.resolve_substrate` with
``"auto"``) rather than re-derived: one :func:`~repro.sim.adversary.reduce_space`
pass over the cube of all ordered label pairs at delay 0, with the first
agent pinned to node 0 (sound on the vertex-transitive oriented ring, so
only the gap ``(p_y - p_x) mod n`` varies).  Pairs ``(x, .)`` are
contiguous in the cube's order, so the pass keeps one reduction per first
label: its ``worst_time`` is ``m_x``.  The same pass yields the worst
execution cost over all pairs and gaps, which the Theorem 3.1 certificate
needs for its slack ``phi``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.graphs.families import oriented_ring
from repro.graphs.port_graph import PortLabeledGraph
from repro.graphs.validation import require_oriented_ring
from repro.lower_bounds.behaviour import behaviour_from_schedule, behaviour_from_solo_run
from repro.sim.adversary import (
    ConfigCube,
    engine_table,
    reduce_space,
    resolve_substrate,
)
from repro.sim.program import ProgramFactory
from repro.sim.simulator import PresenceModel


class NonMeetingError(RuntimeError):
    """Raised when a supposedly correct algorithm fails to meet during Trim."""


@dataclass(frozen=True)
class TrimmedAlgorithm:
    """Result of trimming: per-label vectors, ``m_x`` values, metadata."""

    ring_size: int
    vectors: Mapping[int, tuple[int, ...]]
    meeting_deadlines: Mapping[int, int]  # the paper's m_x
    max_cost: int  # worst combined cost over all label pairs and gaps

    @property
    def labels(self) -> list[int]:
        return sorted(self.vectors)

    def vector(self, label: int) -> tuple[int, ...]:
        return self.vectors[label]

    def deadline(self, label: int) -> int:
        return self.meeting_deadlines[label]


def _trim(
    ring: PortLabeledGraph,
    factory: ProgramFactory,
    raw_vectors: Mapping[int, Sequence[int]],
) -> TrimmedAlgorithm:
    """Cut ``factory``'s raw behaviour vectors at its meeting deadlines.

    Raises :class:`NonMeetingError`, naming the first failing ``(x, y,
    gap)``, if some pair of labels never meets from some starting gap
    within the default horizon -- i.e. if ``factory`` is not a correct
    rendezvous algorithm (or declares too short a ``schedule_length``).
    """
    ring_size = require_oriented_ring(ring)
    labels = sorted(raw_vectors)
    if len(labels) < 2:
        raise ValueError("trimming needs at least two labels")
    cube = ConfigCube.make(
        ring, itertools.permutations(labels, 2), fix_first_start=True
    )
    block = (len(labels) - 1) * (ring_size - 1)
    engine = resolve_substrate("auto", factory)
    reductions = reduce_space(
        engine,
        engine_table(engine, ring, factory),
        ring,
        factory,
        cube,
        [(index * block, (index + 1) * block) for index in range(len(labels))],
        None,
        PresenceModel.FROM_START,
    )
    for reduction in reductions:
        if reduction.failures:
            _, config = reduction.failures[0]
            x, y = config.labels
            raise NonMeetingError(
                f"labels {x} and {y} never meet from gap {config.starts[1]}: "
                "not a correct algorithm (or truncated vectors)"
            )
    deadlines = {
        x: reduction.worst_time.time for x, reduction in zip(labels, reductions)
    }
    return TrimmedAlgorithm(
        ring_size=ring_size,
        vectors={x: tuple(raw_vectors[x][: deadlines[x]]) for x in labels},
        meeting_deadlines=deadlines,
        max_cost=max(reduction.worst_cost.cost for reduction in reductions),
    )


def extract_trimmed_vectors(
    ring: PortLabeledGraph, factory: ProgramFactory, labels: Sequence[int]
) -> TrimmedAlgorithm:
    """Record solo behaviour vectors by simulation, then trim them.

    Each label's solo execution runs for ``factory.schedule_length(label)``
    rounds, the horizon every engine reads too.
    """
    raw = {
        label: behaviour_from_solo_run(
            ring, factory, label, factory.schedule_length(label)
        )
        for label in labels
    }
    return _trim(ring, factory, raw)


def trimmed_from_algorithm(algorithm, ring_size: int) -> TrimmedAlgorithm:
    """Trim a schedule-based algorithm, its vectors read off the schedules.

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
    return _trim(oriented_ring(ring_size), algorithm, raw)
