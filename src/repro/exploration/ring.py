"""Exploration of an oriented ring: walk clockwise ``n - 1`` steps.

This is the optimal exploration on rings and the procedure the paper fixes
for its lower-bound setting (Section 3): ``E = n - 1``.  No map or position
knowledge is needed beyond the ring's size -- orientation makes port 0
"clockwise" at every node.
"""

from __future__ import annotations

from repro.exploration.base import ExplorationProcedure
from repro.graphs.orientation import CLOCKWISE
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, SubBehaviour


class RingExploration(ExplorationProcedure):
    """Clockwise walk of length ``n - 1`` on an oriented ring of known size."""

    name = "ring-clockwise"

    def __init__(self, ring_size: int):
        if ring_size < 3:
            raise ValueError(f"a ring has at least 3 nodes, got {ring_size}")
        self.ring_size = ring_size

    @property
    def budget(self) -> int:
        return self.ring_size - 1

    def moves(self, ctx: AgentContext, obs: Observation) -> SubBehaviour:
        for _ in range(self.ring_size - 1):
            if obs.degree != 2:
                raise ValueError(
                    "RingExploration used on a non-ring: node of degree "
                    f"{obs.degree} encountered"
                )
            obs = yield CLOCKWISE
        return obs
