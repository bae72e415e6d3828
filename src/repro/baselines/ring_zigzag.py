"""A distance-sensitive rendezvous baseline for oriented rings.

The paper's algorithms are driven by ``E``: their time is (at least) one
full exploration even when the agents start next to each other.  On rings,
Dessmark et al. [26] achieve time ``Theta(D log l)`` with simultaneous
start, where ``D`` is the initial distance.  This baseline reproduces that
*shape* with a standard doubling construction:

* every agent uses a fixed-length bit string: the binary representation of
  its label padded to ``ceil(log2(L + 1))`` bits, each bit doubled, plus
  the ``01`` delimiter -- distinct and of equal length ``m`` for all
  labels, so the agents' phases stay aligned;
* in *stage* ``s = 0, 1, 2, ...`` (distance hypothesis ``2^s``), the agent
  plays its ``m`` bits; for bit 1 it sweeps clockwise ``2^s``, back
  counterclockwise ``2 * 2^s`` and returns (covering all nodes within
  ``2^s`` in both directions), for bit 0 it waits the same ``4 * 2^s``
  rounds.

At the first stage with ``2^s >= D`` the first differing bit makes one
agent sweep over the other, which is provably idle for the whole aligned
phase.  Time is ``O(2^s m) = O(D log L)``; stages stop once ``2^s`` covers
the whole ring, so the schedule is finite.

This is a baseline for EXP-12, not a claim from the paper under test; it
exists to show that the complexity of the paper's algorithms is
``E``-driven, not ``D``-driven.
"""

from __future__ import annotations

from math import ceil, log2

from repro.core.base import RendezvousAlgorithm
from repro.core.schedule import Schedule, SegmentKind, explore, wait
from repro.exploration.base import ExplorationProcedure
from repro.graphs.orientation import CLOCKWISE, COUNTERCLOCKWISE
from repro.sim.actions import WAIT, Action
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, SubBehaviour


def fixed_length_bits(label: int, label_space: int) -> tuple[int, ...]:
    """Doubled fixed-width binary representation plus the ``01`` delimiter.

    All labels in ``1..L`` produce distinct strings of identical length
    ``2 * ceil(log2(L + 1)) + 2``.
    """
    if not 1 <= label <= label_space:
        raise ValueError(f"label {label} outside 1..{label_space}")
    width = max(1, ceil(log2(label_space + 1)))
    bits = [(label >> (width - 1 - i)) & 1 for i in range(width)]
    doubled: list[int] = []
    for bit in bits:
        doubled.extend((bit, bit))
    return tuple(doubled) + (0, 1)


class RingSweep(ExplorationProcedure):
    """Clockwise ``r``, counterclockwise ``2r``, clockwise ``r``: budget ``4r``.

    Visits every node within distance ``r`` of the start in both
    directions and returns to it.  A fixed port sequence.
    """

    name = "ring-sweep"

    def __init__(self, radius: int):
        self.radius = radius
        self.route: tuple[Action, ...] = (
            (CLOCKWISE,) * radius
            + (COUNTERCLOCKWISE,) * (2 * radius)
            + (CLOCKWISE,) * radius
        )

    @property
    def budget(self) -> int:
        return 4 * self.radius

    def moves(self, ctx: AgentContext, obs: Observation) -> SubBehaviour:
        for port in self.route:
            obs = yield port
        return obs


class RingZigzag(RendezvousAlgorithm):
    """Doubling zigzag rendezvous on an oriented ring (simultaneous start).

    Schedule-driven: per stage ``s`` and bit, an EXPLORE of the stage's
    :class:`RingSweep` (radius ``r = min(2^s, n)``) for a 1-bit or
    ``WAIT(4r)`` for a 0-bit.  Its own ``exploration`` is the last
    stage's sweep, which covers the whole ring.
    """

    name = "ring-zigzag"
    requires_simultaneous_start = True

    def __init__(self, ring_size: int, label_space: int):
        if ring_size < 3:
            raise ValueError(f"a ring needs n >= 3, got {ring_size}")
        if label_space < 2:
            raise ValueError(f"need L >= 2, got {label_space}")
        self.ring_size = ring_size
        # Stages stop once the sweep radius covers half the ring in both
        # directions (the hypothesis 2^s >= D is then certainly true).
        self.num_stages = max(1, ceil(log2(ring_size))) + 1
        self.sweeps = tuple(
            RingSweep(min(2**stage, ring_size)) for stage in range(self.num_stages)
        )
        super().__init__(self.sweeps[-1], label_space)

    def schedule(self, label: int) -> Schedule:
        bits = fixed_length_bits(label, self.label_space)
        segments = []
        for sweep in self.sweeps:
            sweeping, waiting = explore(sweep), wait(sweep.budget)
            segments.extend(sweeping if bit else waiting for bit in bits)
        return Schedule(segments)

    def movement_plan(self, label: int) -> list[Action]:
        """The agent's entire action sequence (it is non-adaptive)."""
        plan: list[Action] = []
        for segment in self.schedule(label):
            if segment.kind is SegmentKind.WAIT:
                plan.extend([WAIT] * segment.rounds)
            else:
                plan.extend(segment.exploration.route)
        return plan

    def time_bound(self, smaller_label: int | None = None) -> int:
        raise NotImplementedError("the zigzag baseline has no bound from the paper")

    def cost_bound(self, smaller_label: int | None = None) -> int:
        raise NotImplementedError("the zigzag baseline has no bound from the paper")
