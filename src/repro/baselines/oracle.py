"""The oracle baseline: rendezvous with shared label knowledge.

The paper motivates label-driven symmetry breaking by observing that *if*
agents knew each other's labels, the smaller-labelled agent could simply
stay idle while the other explores -- rendezvous would reduce to graph
exploration (Section 1.2).  Agents do not have that knowledge in the
model; this baseline grants it anyway to provide the unbeatable reference
point (time = cost = one exploration with simultaneous start) against
which the tradeoff curve is plotted.
"""

from __future__ import annotations

from repro.core.base import RendezvousAlgorithm
from repro.core.schedule import Schedule, explore
from repro.exploration.base import ExplorationProcedure


class OracleBaseline(RendezvousAlgorithm):
    """Both labels are known: the smaller waits, the larger explores.

    Schedule-driven: the larger label's schedule is one EXPLORE, the
    smaller label's is empty (it idles at its start from round 0).
    Construct one per agent pair.  With simultaneous start: time exactly
    ``E`` (one exploration) and cost at most ``E``.  With delay ``d`` on
    the larger-labelled agent: time at most ``d + E``.
    """

    name = "oracle"

    def __init__(self, exploration: ExplorationProcedure, pair: tuple[int, int]):
        if pair[0] == pair[1]:
            raise ValueError("the two labels must be distinct")
        self.pair = pair
        super().__init__(exploration, max(pair))

    def _check_label(self, label: int) -> None:
        if label not in self.pair:
            raise ValueError(f"label {label} is not part of the pair {self.pair}")

    def schedule(self, label: int) -> Schedule:
        self._check_label(label)
        return Schedule([explore()] if label == max(self.pair) else [])

    def time_bound(self, smaller_label: int | None = None) -> int:
        raise NotImplementedError("the oracle baseline has no bound from the paper")

    def cost_bound(self, smaller_label: int | None = None) -> int:
        raise NotImplementedError("the oracle baseline has no bound from the paper")
