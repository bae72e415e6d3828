"""Synchronous-round simulator for mobile agents on port-labeled graphs.

The simulator implements the paper's execution model exactly:

* rounds are synchronous; in each round every awake agent waits or moves
  through a port of its current node;
* an agent observes only the degree of its node, its entry port and its own
  clock -- never a node identity;
* agents crossing the same edge in opposite directions do not meet;
* rendezvous is both agents at the same node at the same time point;
* **time** is counted from the wake-up round of the earlier agent, **cost**
  is the total number of edge traversals of both agents until the meeting.
"""

from repro.sim.actions import WAIT, Action, is_move
from repro.sim.adversary import WorstCaseReport, worst_case_search
from repro.sim.compiled import CompiledTrajectory, TrajectoryTable, compile_trajectory
from repro.sim.cube import BatchUnavailableError
from repro.sim.gathering import GatheringResult, GatheringSimulator, GatheringSpec, gather
from repro.sim.metrics import RendezvousResult
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, ProgramFactory, ReactiveProgram, idle
from repro.sim.simulator import (
    AgentSpec,
    PresenceModel,
    Simulator,
    default_max_rounds,
    simulate_rendezvous,
)
from repro.sim.trace import AgentTrace

__all__ = [
    "WAIT",
    "Action",
    "AgentContext",
    "AgentSpec",
    "AgentTrace",
    "BatchUnavailableError",
    "CompiledTrajectory",
    "GatheringResult",
    "GatheringSimulator",
    "GatheringSpec",
    "gather",
    "Observation",
    "PresenceModel",
    "ProgramFactory",
    "ReactiveProgram",
    "RendezvousResult",
    "Simulator",
    "TrajectoryTable",
    "WorstCaseReport",
    "compile_trajectory",
    "default_max_rounds",
    "idle",
    "is_move",
    "simulate_rendezvous",
    "worst_case_search",
]
