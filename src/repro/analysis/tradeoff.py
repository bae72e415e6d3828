"""Assembling the time/cost tradeoff curve (EXP-08).

The paper's headline picture: Cheap sits at (cost ``Theta(E)``, time
``Theta(EL)``), Fast at (cost and time ``Theta(E log L)``), and
FastWithRelabeling(w) interpolates at (cost ``Theta(wE)``, time
``Theta(L^{1/w} E)``).  A :class:`TradeoffPoint` is one measured point of
that curve; :func:`tradeoff_points` sweeps a family of algorithms at a
fixed ``L`` on a fixed graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api import sweep_objects
from repro.core.base import RendezvousAlgorithm
from repro.graphs.port_graph import PortLabeledGraph


@dataclass(frozen=True)
class TradeoffPoint:
    """One algorithm's measured worst-case position in the (cost, time) plane."""

    algorithm: str
    label_space: int
    exploration_budget: int
    max_cost: int
    max_time: int

    @property
    def cost_per_e(self) -> float:
        return self.max_cost / self.exploration_budget

    @property
    def time_per_e(self) -> float:
        return self.max_time / self.exploration_budget

    def to_dict(self) -> dict:
        """Canonical JSON form (the CLI's ``tradeoff --json`` rows)."""
        return {
            "algorithm": self.algorithm,
            "label_space": self.label_space,
            "exploration_budget": self.exploration_budget,
            "max_cost": self.max_cost,
            "max_time": self.max_time,
            "cost_per_e": self.cost_per_e,
            "time_per_e": self.time_per_e,
        }


def tradeoff_points(
    algorithms: Sequence[RendezvousAlgorithm],
    graph: PortLabeledGraph,
    graph_name: str,
    delays: Sequence[int] = (0,),
    fix_first_start: bool = True,
    sample: int | None = None,
    label_pairs: Sequence[tuple[int, int]] | None = None,
    engine: str = "auto",
) -> list[TradeoffPoint]:
    """Worst-case (cost, time) for each algorithm on the same instance.

    Simultaneous-start-only algorithms are swept with delay 0 regardless
    of ``delays`` (their schedules are only meaningful there).  At large
    ``L`` the exhaustive pair sweep is infeasible; pass ``label_pairs``
    with the adversarial pairs of interest instead.  ``engine`` is
    forwarded to :func:`repro.api.sweep_objects`; the default ``"auto"``
    runs each schedule-driven algorithm on the fastest available engine
    (cube, then compiled) instead of the reactive simulator, with
    identical points -- curve assembly over many algorithms is exactly
    the dense workload the cube engine accelerates.
    """
    points = []
    for algorithm in algorithms:
        algo_delays = (0,) if algorithm.requires_simultaneous_start else delays
        row = sweep_objects(
            algorithm,
            graph,
            graph_name,
            delays=algo_delays,
            fix_first_start=fix_first_start,
            sample=sample,
            label_pairs=label_pairs,
            engine=engine,
        )
        points.append(
            TradeoffPoint(
                algorithm=algorithm.name,
                label_space=algorithm.label_space,
                exploration_budget=algorithm.exploration_budget,
                max_cost=row.max_cost,
                max_time=row.max_time,
            )
        )
    return points
