"""Rendezvous without a known bound ``E`` (paper, Conclusion).

If the agents know no upper bound on the size of the graph, each of the
paper's algorithms is iterated: in iteration ``i`` it runs with
``EXPLORE_i``, an exploration procedure valid for all graphs of size at
most ``2^i`` (with budget ``E_i``), until rendezvous happens -- which is
guaranteed once ``2^i`` reaches the actual size.  The budgets grow
geometrically, so the total time and cost telescope to a constant factor
of the final iteration's: complexities are preserved up to constants.
:class:`IteratedDoublingRendezvous` is that construction as one schedule,
the concatenation of the per-level schedules, so every engine runs it.

Two level factories are provided:

* :func:`ring_level_factory` -- on oriented rings, "explore assuming size
  ``<= 2^i``" is simply a clockwise walk of ``2^i - 1`` steps, so the
  telescoping is exactly measurable;
* :func:`uxs_level_factory` -- the paper's UXS-based general construction,
  with verified sequences standing in for Reingold's (see DESIGN.md).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.core.base import RendezvousAlgorithm
from repro.core.schedule import Schedule, Segment
from repro.exploration.base import ExplorationProcedure
from repro.exploration.ring import RingExploration
from repro.exploration.uxs import UXSExploration, build_verified_uxs
from repro.graphs.port_graph import PortLabeledGraph

#: ``(exploration, label_space) -> algorithm`` -- e.g. ``Cheap`` or ``Fast``.
AlgorithmFactory = Callable[[ExplorationProcedure, int], RendezvousAlgorithm]

#: ``level -> EXPLORE_level`` valid for graphs of size at most ``2**level``.
LevelFactory = Callable[[int], ExplorationProcedure]


def ring_level_factory() -> LevelFactory:
    """Level factory for oriented rings: level ``i`` walks ``2^i - 1`` steps."""

    def factory(level: int) -> ExplorationProcedure:
        return RingExploration(max(3, 2**level))

    return factory


def uxs_level_factory(
    corpus_factory: Callable[[int], Sequence[PortLabeledGraph]],
    rng: random.Random | None = None,
) -> LevelFactory:
    """Level factory using verified UXS over a per-level graph corpus.

    ``corpus_factory(i)`` must return the graphs of size at most ``2^i``
    that the sequence has to cover; sequences are cached per level.
    """
    rng = rng or random.Random(0x5EC5EC)
    cache: dict[int, ExplorationProcedure] = {}

    def factory(level: int) -> ExplorationProcedure:
        if level not in cache:
            corpus = list(corpus_factory(level))
            sequence = build_verified_uxs(corpus, rng=rng)
            cache[level] = UXSExploration(sequence)
        return cache[level]

    return factory


class IteratedDoublingRendezvous(RendezvousAlgorithm):
    """One algorithm instance per size estimate, chained into one schedule.

    Schedule-driven: ``schedule(label)`` is the concatenation of the
    per-level schedules for levels ``start_level..max_level``, each
    EXPLORE naming its level's exploration (the Conclusion's
    construction).  Instances are :data:`~repro.sim.program.ProgramFactory`
    values and run on every engine; ``schedule_length`` is the total
    horizon through ``max_level``, so ``simulate_rendezvous`` works
    unchanged.  Its own ``exploration`` is the first level's.  The paper
    states the overhead only up to constants, so there is no
    ``time_bound``/``cost_bound``.
    """

    name = "iterated-doubling"

    def __init__(
        self,
        algorithm_factory: AlgorithmFactory,
        level_factory: LevelFactory,
        label_space: int,
        start_level: int = 2,
        max_level: int = 16,
    ):
        if start_level < 1 or max_level < start_level:
            raise ValueError(
                f"need 1 <= start_level <= max_level, got {start_level}..{max_level}"
            )
        self.algorithm_factory = algorithm_factory
        self.level_factory = level_factory
        self.start_level = start_level
        self.max_level = max_level
        self._levels: dict[int, RendezvousAlgorithm] = {}
        self._schedules: dict[int, Schedule] = {}
        self.label_space = label_space
        super().__init__(self.algorithm_at(start_level).exploration, label_space)

    def algorithm_at(self, level: int) -> RendezvousAlgorithm:
        """The inner algorithm instance used in iteration ``level``."""
        algorithm = self._levels.get(level)
        if algorithm is None:
            algorithm = self._levels[level] = self.algorithm_factory(
                self.level_factory(level), self.label_space
            )
        return algorithm

    def levels(self) -> range:
        return range(self.start_level, self.max_level + 1)

    def schedule(self, label: int) -> Schedule:
        """The per-level schedules of ``label``, concatenated (memoised:
        each is as long as all levels together)."""
        schedule = self._schedules.get(label)
        if schedule is None:
            self._check_label(label)
            segments: list[Segment] = []
            for level in self.levels():
                algorithm = self.algorithm_at(level)
                segments.extend(
                    algorithm.schedule(label).bound_to(algorithm.exploration)
                )
            schedule = self._schedules[label] = Schedule(segments)
        return schedule

    def level_needed(self, graph_size: int) -> int:
        """The first iteration whose exploration covers ``graph_size`` nodes."""
        level = self.start_level
        while 2**level < graph_size and level < self.max_level:
            level += 1
        return level

    def horizon_through(self, label: int, level: int) -> int:
        """Rounds consumed by iterations ``start_level..level`` (telescoping)."""
        return sum(
            self.algorithm_at(lvl).schedule_length(label)
            for lvl in range(self.start_level, level + 1)
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        raise NotImplementedError(
            "iterated doubling keeps the inner bounds only up to constants"
        )

    def cost_bound(self, smaller_label: int | None = None) -> int:
        raise NotImplementedError(
            "iterated doubling keeps the inner bounds only up to constants"
        )
