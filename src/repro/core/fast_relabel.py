"""Algorithm FastWithRelabeling (paper Section 2, Proposition 2.3).

Each agent replaces its label by the characteristic string of the
lexicographically ``l``-th smallest ``w``-subset of ``{1..t}`` (with ``t``
the least integer such that ``C(t, w) >= L``), then runs Algorithm Fast on
the new, fixed-length, weight-``w`` label.  Because every new label has
exactly ``w`` ones, the number of explorations -- hence the cost -- no
longer grows with ``log L``:

* Proposition 2.3: cost at most ``2 w E`` (simultaneous-start schedule)
  and time at most ``(4t + 5) E``;
* Corollary 2.1: for constant ``w = c``, cost ``O(E)`` and time
  ``O(L^{1/c} E)`` -- strictly between Cheap and Fast on the tradeoff
  curve, and the separation witness for cost ``Theta(E)`` vs ``E + o(E)``.

Since the relabeled strings have fixed length ``t``, distinct strings are
never prefixes of each other; applying ``M``'s bit-doubling on top (as the
delay-tolerant variant does, matching the ``(4t + 5) E`` accounting) keeps
Fast's proof intact.
"""

from __future__ import annotations

from repro.core import bounds
from repro.core.base import RendezvousAlgorithm
from repro.core.fast import delay_tolerant_bits
from repro.core.labels import transform_bits
from repro.core.relabeling import relabel_bits, smallest_t
from repro.core.schedule import Schedule
from repro.exploration.base import ExplorationProcedure
from repro.registry import ALGORITHMS


@ALGORITHMS.register("fwr", weighted=True)
class FastWithRelabeling(RendezvousAlgorithm):
    """Delay-tolerant FastWithRelabeling(w)."""

    name = "fast-relabel"

    def __init__(
        self, exploration: ExplorationProcedure, label_space: int, weight: int
    ):
        super().__init__(exploration, label_space)
        if weight < 1:
            raise ValueError(f"weight must be a positive integer, got {weight}")
        self.weight = weight
        self.label_length = smallest_t(label_space, weight)
        self.name = f"fast-relabel(w={weight})"

    def new_label(self, label: int) -> tuple[int, ...]:
        """The weight-``w`` relabeled bit string of agent ``label``."""
        return relabel_bits(label, self.label_space, self.weight)

    def transformed_bits(self, label: int) -> tuple[int, ...]:
        """Schedule bits: leading 1, then ``M(new label)`` with bits doubled."""
        self._check_label(label)
        return delay_tolerant_bits(transform_bits(self.new_label(label)))

    def schedule(self, label: int) -> Schedule:
        return Schedule.from_bits(
            self.transformed_bits(label), wait_rounds=self.exploration_budget
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        return bounds.fwr_time(self.label_space, self.weight, self.exploration_budget)

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return bounds.fwr_cost(self.weight, self.exploration_budget)


@ALGORITHMS.register("fwr-sim", weighted=True)
class FastWithRelabelingSimultaneous(RendezvousAlgorithm):
    """Simultaneous-start FastWithRelabeling: schedule = the new label itself.

    This is the variant whose cost accounting matches the paper's ``2 w E``
    exactly: each agent explores once per 1-bit of its weight-``w`` label.
    """

    name = "fast-relabel-simultaneous"
    requires_simultaneous_start = True

    def __init__(
        self, exploration: ExplorationProcedure, label_space: int, weight: int
    ):
        super().__init__(exploration, label_space)
        if weight < 1:
            raise ValueError(f"weight must be a positive integer, got {weight}")
        self.weight = weight
        self.label_length = smallest_t(label_space, weight)
        self.name = f"fast-relabel-simultaneous(w={weight})"

    def new_label(self, label: int) -> tuple[int, ...]:
        return relabel_bits(label, self.label_space, self.weight)

    def transformed_bits(self, label: int) -> tuple[int, ...]:
        self._check_label(label)
        return self.new_label(label)

    def schedule(self, label: int) -> Schedule:
        return Schedule.from_bits(
            self.transformed_bits(label), wait_rounds=self.exploration_budget
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        return (self.label_length) * self.exploration_budget

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return bounds.fwr_cost_simultaneous(self.weight, self.exploration_budget)
