"""Exploration with a map but *no* marked position (paper Section 1.2).

The agent identifies, on its map, the closed DFS walk from every one of the
``n`` possible starting nodes, each a sequence of ``2n - 2`` exit ports.
From its physical position it tries the sequences one after another.  An
attempt aborts as soon as a prescribed port does not exist at the current
node (the only observable evidence of a wrong hypothesis); the agent then
retraces its actual path -- reversing through its recorded entry ports --
back to its physical starting node and tries the next hypothesis.  The
attempt matching the true starting node follows the genuine DFS and visits
every node.

Budget.  An attempt costs at most ``2n - 2`` forward moves plus at most the
same number of moves to retrace, so the procedure is safe within
``2n(2n - 2)`` rounds.  The paper quotes ``n(2n - 2)``, which does not
account for retracing after an attempt that consumes its whole sequence
without an unavailable port yet ends away from the start; we use the safe
budget and record the factor-2 discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.exploration.base import ExplorationProcedure
from repro.exploration.dfs import dfs_walk_ports
from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, SubBehaviour


class TryAllDFS(ExplorationProcedure):
    """Try the closed DFS of every hypothetical start; abort and retrace."""

    name = "try-all-dfs"

    def __init__(self, graph: PortLabeledGraph):
        if graph.num_nodes < 2:
            raise ValueError("exploration needs at least 2 nodes")
        self.graph = graph
        self._sequences = [
            dfs_walk_ports(graph, root, closed=True) for root in range(graph.num_nodes)
        ]

    @property
    def budget(self) -> int:
        n = self.graph.num_nodes
        return 2 * n * (2 * n - 2)

    def moves(self, ctx: AgentContext, obs: Observation) -> SubBehaviour:
        graph = ctx.require_map()
        if graph.num_nodes != self.graph.num_nodes:
            raise ValueError("agent map does not match the procedure's graph")

        for sequence in self._sequences:
            # Forward phase: follow the hypothesis until a port is missing.
            entry_ports: list[int] = []
            for port in sequence:
                if port >= obs.degree:
                    break  # hypothesis refuted: this port does not exist here
                obs = yield port
                if obs.entry_port is None:
                    raise RuntimeError("moved but observed no entry port")
                entry_ports.append(obs.entry_port)
            # Retrace phase: walk the recorded path backwards to the start.
            while entry_ports:
                obs = yield entry_ports.pop()
        return obs
