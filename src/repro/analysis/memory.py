"""Agent memory accounting (paper Section 1.2, final paragraph).

The paper sizes the agents' memory by scenario: the rendezvous logic
itself needs only counters of ``O(log E + log L)`` bits, while the
dominant term is how the exploration is represented --

* a UXS-driven agent needs ``O(log m)`` bits in Reingold's construction
  (our verified sequences are *stored*, costing ``len * ceil(log2 d_max)``
  bits -- the substitution trades memory for constructibility, see
  DESIGN.md);
* an agent given a DFS walk as a port sequence needs ``O(n log n)`` bits;
* an agent that must derive the walk from a port-labeled map needs up to
  ``O(n^2 log n)`` bits for the map itself;
* on a ring, ``ceil(log2 n)`` bits suffice to know ``n``.

These functions compute the exact bit counts for concrete instances so
the memory table of the paper can be regenerated (``python -m repro
experiments run memory``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from repro.graphs.port_graph import PortLabeledGraph


def bits_for(value: int) -> int:
    """Bits needed to store one integer in ``0..value`` (at least 1)."""
    if value < 0:
        raise ValueError(f"cannot size a negative range: {value}")
    return max(1, ceil(log2(value + 1)))


def counter_bits(schedule_length: int, label_space: int) -> int:
    """The paper's ``O(log E + log L)`` term, concretely.

    One round counter up to the schedule length plus the agent's label.
    """
    return bits_for(schedule_length) + bits_for(label_space)


def dfs_walk_bits(graph: PortLabeledGraph) -> int:
    """Bits to store a closed DFS walk as a port sequence: ``O(n log n)``.

    ``2(n-1)`` ports, each up to the maximum degree.
    """
    ports = 2 * (graph.num_nodes - 1)
    return ports * bits_for(graph.max_degree() - 1)


def map_bits(graph: PortLabeledGraph) -> int:
    """Bits to store the port-labeled map: up to ``O(n^2 log n)``.

    Each directed port slot stores its target node and the entry port.
    """
    total = 0
    node_bits = bits_for(graph.num_nodes - 1)
    for node in range(graph.num_nodes):
        degree = graph.degree(node)
        if degree:
            total += degree * (node_bits + bits_for(degree - 1))
    return total


def uxs_bits(sequence_length: int, max_degree: int) -> int:
    """Bits to store a verified UXS verbatim.

    Reingold's log-space agent would instead recompute terms in
    ``O(log m)`` working memory; storing is our documented substitution.
    """
    return sequence_length * bits_for(max(0, max_degree - 1))


def ring_size_bits(ring_size: int) -> int:
    """On a ring, knowing ``n`` is the entire map: ``ceil(log2 n)`` bits."""
    return bits_for(ring_size - 1)


@dataclass(frozen=True)
class MemoryProfile:
    """Memory footprint of one agent under one knowledge scenario."""

    scenario: str
    exploration_bits: int
    counter_bits: int

    @property
    def total_bits(self) -> int:
        return self.exploration_bits + self.counter_bits


def profile(
    scenario: str,
    exploration_bits: int,
    schedule_length: int,
    label_space: int,
) -> MemoryProfile:
    """Assemble a :class:`MemoryProfile` for reporting."""
    return MemoryProfile(
        scenario=scenario,
        exploration_bits=exploration_bits,
        counter_bits=counter_bits(schedule_length, label_space),
    )
