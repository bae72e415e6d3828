"""The port-labeled anonymous graph used by every component of the library.

The paper (Section 1.2) models the network as an undirected connected graph
in which nodes carry no identifiers visible to the agents, but each edge
endpoint has a local port number: at a node of degree ``d`` the incident
edges are numbered ``0..d-1``, with no relation between the numbers at the
two endpoints of an edge.

Internally nodes are integers ``0..n-1``.  These integers exist only for the
simulator and the analysis tooling; agents never observe them (the simulator
only ever reveals degrees and entry ports, see :mod:`repro.sim.observation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class PortEdge:
    """One undirected edge together with its two port labels.

    ``u`` and ``v`` are endpoint node ids; ``port_u`` is the port of the edge
    at ``u`` and ``port_v`` its port at ``v``.
    """

    u: int
    port_u: int
    v: int
    port_v: int

    def reversed(self) -> "PortEdge":
        """The same edge described from the other endpoint."""
        return PortEdge(self.v, self.port_v, self.u, self.port_u)


class PortLabeledGraph:
    """An undirected connected graph with local port numbers.

    The adjacency structure is ``adj[u][p] = (v, q)``: taking port ``p`` at
    node ``u`` traverses an edge to node ``v``, entering ``v`` through port
    ``q``.  The structure must be symmetric: ``adj[v][q] == (u, p)``.

    Instances are immutable once constructed and validate themselves.
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, adjacency: Sequence[Sequence[tuple[int, int]]]):
        adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((int(v), int(q)) for v, q in row) for row in adjacency
        )
        self._adj = adj
        self._num_edges = sum(len(row) for row in adj) // 2
        self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[PortEdge]) -> "PortLabeledGraph":
        """Build a graph from explicit :class:`PortEdge` records.

        Raises :class:`ValueError` on clashing ports or dangling node ids.
        """
        slots: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
        for edge in edges:
            for half in (edge, edge.reversed()):
                if not 0 <= half.u < n or not 0 <= half.v < n:
                    raise ValueError(f"edge {edge} references a node outside 0..{n - 1}")
                if half.port_u in slots[half.u]:
                    raise ValueError(f"port {half.port_u} at node {half.u} assigned twice")
                slots[half.u][half.port_u] = (half.v, half.port_v)
        adjacency: list[list[tuple[int, int]]] = []
        for u, ports in enumerate(slots):
            degree = len(ports)
            if sorted(ports) != list(range(degree)):
                raise ValueError(
                    f"ports at node {u} are {sorted(ports)}, expected 0..{degree - 1}"
                )
            adjacency.append([ports[p] for p in range(degree)])
        return cls(adjacency)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``e``."""
        return self._num_edges

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return len(self._adj[node])

    def neighbor_via(self, node: int, port: int) -> tuple[int, int]:
        """Follow ``port`` out of ``node``.

        Returns ``(next_node, entry_port)`` where ``entry_port`` is the port
        of the traversed edge at ``next_node``.
        """
        row = self._adj[node]
        if not 0 <= port < len(row):
            raise ValueError(
                f"node {node} has degree {len(row)}; port {port} does not exist"
            )
        return row[port]

    def port_to(self, node: int, neighbor: int) -> int:
        """The (smallest) port at ``node`` leading to ``neighbor``.

        Raises :class:`ValueError` if the nodes are not adjacent.  With
        parallel edges the smallest such port is returned.
        """
        for port, (other, _) in enumerate(self._adj[node]):
            if other == neighbor:
                return port
        raise ValueError(f"nodes {node} and {neighbor} are not adjacent")

    def neighbors(self, node: int) -> Iterator[int]:
        """All neighbors of ``node`` in port order (repeats under multi-edges)."""
        return (v for v, _ in self._adj[node])

    def edges(self) -> Iterator[PortEdge]:
        """Each undirected edge exactly once (from its smaller endpoint/port)."""
        seen: set[tuple[int, int]] = set()
        for u, row in enumerate(self._adj):
            for p, (v, q) in enumerate(row):
                if (v, q) in seen:
                    continue
                seen.add((u, p))
                yield PortEdge(u, p, v, q)

    def is_connected(self) -> bool:
        """True iff the graph is connected (every graph we build must be)."""
        if self.num_nodes == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v, _ in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == self.num_nodes

    def max_degree(self) -> int:
        """The maximum degree over all nodes."""
        return max(len(row) for row in self._adj)

    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The raw (immutable) adjacency structure."""
        return self._adj

    # ------------------------------------------------------------------
    # Comparisons / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"PortLabeledGraph(n={self.num_nodes}, e={self.num_edges})"

    # ------------------------------------------------------------------
    # Internal validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        n = self.num_nodes
        for u, row in enumerate(self._adj):
            for p, (v, q) in enumerate(row):
                if not 0 <= v < n:
                    raise ValueError(f"adj[{u}][{p}] points to invalid node {v}")
                if v == u:
                    raise ValueError(f"self-loop at node {u} (port {p}); not allowed")
                back_row = self._adj[v]
                if not 0 <= q < len(back_row):
                    raise ValueError(
                        f"adj[{u}][{p}] claims entry port {q} at node {v}, "
                        f"but {v} has degree {len(back_row)}"
                    )
                if back_row[q] != (u, p):
                    raise ValueError(
                        f"port symmetry broken: adj[{u}][{p}] = ({v}, {q}) but "
                        f"adj[{v}][{q}] = {back_row[q]}"
                    )
