"""Algorithm Fast (paper Section 2, Algorithm 2).

General version, tolerant of arbitrary wake-up delays::

    1: S[1..m]      <- M(l)                       (the modified label)
    2: T[1..2m+1]   <- (1, S[1], S[1], ..., S[m], S[m])
    3: for i = 1 to 2m + 1:
    4:     if T[i] = 1 then execute EXPLORE once else wait E rounds

Proposition 2.2: time at most ``(4 log(L - 1) + 9) E`` and cost at most
twice that.  Correctness rests on ``M`` being prefix-free: at the first
index where the modified labels differ, one agent explores a full ``E``
window inside which the other is provably idle.

Simultaneous-start version: the schedule is driven by ``M(l)`` directly
(segment ``i`` explores iff bit ``i`` is 1), giving time
``(2 floor(log(L-1)) + 4) E``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import bounds
from repro.core.base import RendezvousAlgorithm
from repro.core.labels import modified_label
from repro.core.schedule import Schedule
from repro.registry import ALGORITHMS


def delay_tolerant_bits(modified: Sequence[int]) -> tuple[int, ...]:
    """The vector ``T``: a leading 1, then every bit of ``M(l)`` doubled."""
    doubled: list[int] = [1]
    for bit in modified:
        doubled.append(bit)
        doubled.append(bit)
    return tuple(doubled)


@ALGORITHMS.register("fast")
class Fast(RendezvousAlgorithm):
    """Delay-tolerant Fast, driven by ``T = (1, S1, S1, ..., Sm, Sm)``."""

    name = "fast"

    def transformed_bits(self, label: int) -> tuple[int, ...]:
        """The schedule bits ``T`` for agent ``label`` (exposed for analysis)."""
        self._check_label(label)
        return delay_tolerant_bits(modified_label(label))

    def schedule(self, label: int) -> Schedule:
        return Schedule.from_bits(
            self.transformed_bits(label), wait_rounds=self.exploration_budget
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        return bounds.fast_time(self.label_space, self.exploration_budget)

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return bounds.fast_cost(self.label_space, self.exploration_budget)


@ALGORITHMS.register("fast-sim")
class FastSimultaneous(RendezvousAlgorithm):
    """Simultaneous-start Fast: the schedule is ``M(l)`` itself."""

    name = "fast-simultaneous"
    requires_simultaneous_start = True

    def transformed_bits(self, label: int) -> tuple[int, ...]:
        self._check_label(label)
        return modified_label(label)

    def schedule(self, label: int) -> Schedule:
        return Schedule.from_bits(
            self.transformed_bits(label), wait_rounds=self.exploration_budget
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        return bounds.fast_simultaneous_time(self.label_space, self.exploration_budget)

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return bounds.fast_simultaneous_cost(self.label_space, self.exploration_budget)
