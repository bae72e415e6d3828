"""Universal exploration sequences (UXS).

A UXS for a class of port-labeled graphs is a sequence of integers
``a_1, ..., a_k`` such that the walk it induces -- an agent that entered
its current node through port ``p`` leaves through port
``(p + a_i) mod degree`` (with the convention ``p = 0`` before the first
move) -- visits all nodes of every graph in the class, from every starting
node.  Reingold [44] constructs polynomial-length UXS in logarithmic
space; that construction is a deep derandomization result far outside the
scope of a simulation library, so here a UXS is *generated randomly and
verified exhaustively* against an explicit corpus of graphs
(:func:`build_verified_uxs`).  For simulation purposes the two are
interchangeable: agents only consume the sequence, and the verifier proves
the exploration property for every graph the experiments use.  See
DESIGN.md, "Substitutions".
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.exploration.base import ExplorationProcedure
from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, SubBehaviour


def uxs_walk(
    graph: PortLabeledGraph, start: int, sequence: Sequence[int]
) -> list[int]:
    """The node sequence of the walk induced by ``sequence`` from ``start``."""
    position = start
    entry = 0  # convention: virtual entry port 0 before the first move
    walk = [position]
    for term in sequence:
        degree = graph.degree(position)
        exit_port = (entry + term) % degree
        position, entry = graph.neighbor_via(position, exit_port)
        walk.append(position)
    return walk


def is_uxs_for(
    sequence: Sequence[int], graphs: Iterable[PortLabeledGraph]
) -> bool:
    """True iff ``sequence`` explores every graph from every start node."""
    for graph in graphs:
        target = set(range(graph.num_nodes))
        for start in range(graph.num_nodes):
            if set(uxs_walk(graph, start, sequence)) != target:
                return False
    return True


def build_verified_uxs(
    graphs: Sequence[PortLabeledGraph],
    rng: random.Random | None = None,
    initial_length: int | None = None,
    max_length: int = 1 << 20,
) -> list[int]:
    """Search for a sequence that provably explores every given graph.

    Random sequences of geometrically growing length are drawn until one
    passes :func:`is_uxs_for`.  A random walk of length ``O(e * n * log n)``
    covers a connected graph with high probability (Aleliunas et al. [2]),
    so the search terminates quickly in practice; ``max_length`` bounds the
    search deterministically.
    """
    if not graphs:
        raise ValueError("need at least one graph to verify against")
    rng = rng or random.Random(0xBADC0DE)
    max_degree = max(graph.max_degree() for graph in graphs)
    if initial_length is None:
        worst = max(
            graph.num_edges * graph.num_nodes for graph in graphs
        )
        initial_length = max(8, worst)
    length = initial_length
    while length <= max_length:
        for _ in range(8):  # several attempts per length tier
            candidate = [rng.randrange(max_degree) for _ in range(length)]
            if is_uxs_for(candidate, graphs):
                return candidate
        length *= 2
    raise RuntimeError(
        f"no verified UXS of length <= {max_length} found; "
        "enlarge max_length or shrink the graph corpus"
    )


class UXSExploration(ExplorationProcedure):
    """Map-free exploration driven by a (verified) UXS.

    The procedure needs neither a map nor a position oracle: it reads only
    the degree and entry port from its observations.  Its budget is the
    sequence length.
    """

    name = "uxs"

    def __init__(self, sequence: Sequence[int]):
        if not sequence:
            raise ValueError("a UXS must be non-empty")
        self._sequence = list(sequence)

    @property
    def sequence(self) -> list[int]:
        return list(self._sequence)

    @property
    def budget(self) -> int:
        return len(self._sequence)

    def moves(self, ctx: AgentContext, obs: Observation) -> SubBehaviour:
        # The first step uses the virtual entry port 0 -- the same convention
        # the verifier uses -- even if the agent moved before this
        # exploration began (e.g., in an earlier EXPLORE segment).
        entry = 0
        for term in self._sequence:
            obs = yield (entry + term) % obs.degree
            if obs.entry_port is None:
                raise RuntimeError("moved but observed no entry port")
            entry = obs.entry_port
        return obs
