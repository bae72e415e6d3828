"""Algorithm Cheap (paper Section 2, Algorithm 1).

General version, tolerant of arbitrary wake-up delays::

    1: Execute EXPLORE once
    2: Wait 2 l E rounds
    3: Execute EXPLORE once

Proposition 2.1: cost at most ``3E`` and time at most ``(2l + 3) E``
(worst case ``(2L + 1) E``), where ``l`` is the smaller label.

Simultaneous-start version: agent ``l`` waits ``(l - 1) E`` rounds and then
explores once.  With both agents starting together, the smaller-labelled
agent's exploration falls entirely inside the larger one's waiting period,
so rendezvous costs exactly one exploration -- the paper's "cost exactly E"
claim (exact when the exploration procedure uses all of its budget, as the
clockwise ring walk does).
"""

from __future__ import annotations

from repro.core import bounds
from repro.core.base import RendezvousAlgorithm
from repro.core.schedule import Schedule, explore, wait
from repro.registry import ALGORITHMS


@ALGORITHMS.register("cheap")
class Cheap(RendezvousAlgorithm):
    """Delay-tolerant Cheap: explore, wait ``2 l E``, explore."""

    name = "cheap"

    def schedule(self, label: int) -> Schedule:
        self._check_label(label)
        return Schedule(
            [
                explore(),
                wait(2 * label * self.exploration_budget),
                explore(),
            ]
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        if smaller_label is None:
            return bounds.cheap_time_worst(self.label_space, self.exploration_budget)
        return bounds.cheap_time(smaller_label, self.exploration_budget)

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return bounds.cheap_cost(self.exploration_budget)


@ALGORITHMS.register("cheap-sim")
class CheapSimultaneous(RendezvousAlgorithm):
    """Simultaneous-start Cheap: wait ``(l - 1) E``, explore once."""

    name = "cheap-simultaneous"
    requires_simultaneous_start = True

    def schedule(self, label: int) -> Schedule:
        self._check_label(label)
        return Schedule(
            [
                wait((label - 1) * self.exploration_budget),
                explore(),
            ]
        )

    def time_bound(self, smaller_label: int | None = None) -> int:
        label = smaller_label if smaller_label is not None else self.label_space - 1
        return bounds.cheap_simultaneous_time(label, self.exploration_budget)

    def cost_bound(self, smaller_label: int | None = None) -> int:
        return bounds.cheap_simultaneous_cost(self.exploration_budget)
