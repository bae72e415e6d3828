"""Constructors for the graph families used throughout the experiments.

All constructors return :class:`~repro.graphs.port_graph.PortLabeledGraph`
instances.  Port assignments are deterministic unless a random generator is
passed, so that experiments are reproducible.

The oriented ring (:func:`oriented_ring`) is the central family: both lower
bounds of the paper are proved on it, and ``E = n - 1`` there is achieved by
walking clockwise.

Deterministic constructors register themselves in
:data:`repro.registry.GRAPH_FAMILIES` so specs and scenarios can name them
as data.  Metadata carried per entry: ``vertex_transitive`` (worst-case
sweeps may pin the first agent's start without losing a worst case) and
``from_size`` (how the CLI maps a single node budget to parameters).
Port-preserving symmetry is not declared: the cube engine derives it
from the built graph with an exact check
(:func:`repro.sim.prune.rotation_automorphism`).  The randomized
constructors stay unregistered -- a registry entry must be rebuildable
by value, and an ``rng`` is not a value.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.graphs.port_graph import PortEdge, PortLabeledGraph
from repro.registry import GRAPH_FAMILIES


@GRAPH_FAMILIES.register(
    "ring",
    vertex_transitive=True,
    from_size=lambda size: {"n": size},
)
def oriented_ring(n: int) -> PortLabeledGraph:
    """The oriented ring of size ``n``: port 0 clockwise, port 1 counterclockwise.

    Nodes ``0..n-1`` are placed clockwise; ``E = n - 1``.
    Requires ``n >= 3`` (a ring needs at least three nodes).
    """
    if n < 3:
        raise ValueError(f"a ring needs n >= 3 nodes, got {n}")
    edges = [PortEdge(u, 0, (u + 1) % n, 1) for u in range(n)]
    return PortLabeledGraph.from_edges(n, edges)


def ring_with_random_ports(n: int, rng: random.Random) -> PortLabeledGraph:
    """A ring of size ``n`` with ports assigned at random (not oriented).

    Used to stress exploration procedures that cannot rely on orientation.
    """
    if n < 3:
        raise ValueError(f"a ring needs n >= 3 nodes, got {n}")
    port_of_cw: list[int] = [rng.randrange(2) for _ in range(n)]
    edges = []
    for u in range(n):
        v = (u + 1) % n
        edges.append(PortEdge(u, port_of_cw[u], v, 1 - port_of_cw[v]))
    return PortLabeledGraph.from_edges(n, edges)


@GRAPH_FAMILIES.register("path", from_size=lambda size: {"n": size})
def path_graph(n: int) -> PortLabeledGraph:
    """The path on ``n`` nodes; inner nodes use port 0 toward the smaller end."""
    if n < 2:
        raise ValueError(f"a path needs n >= 2 nodes, got {n}")
    edges = []
    for u in range(n - 1):
        port_u = 0 if u == 0 else 1
        edges.append(PortEdge(u, port_u, u + 1, 0))
    return PortLabeledGraph.from_edges(n, edges)


@GRAPH_FAMILIES.register("star", from_size=lambda size: {"n": size})
def star_graph(n: int) -> PortLabeledGraph:
    """The star with one center (node 0) and ``n - 1`` leaves.

    The paper singles out the star as the graph where ``E = 2n - 3`` is the
    optimal exploration time.
    """
    if n < 2:
        raise ValueError(f"a star needs n >= 2 nodes, got {n}")
    edges = [PortEdge(0, leaf - 1, leaf, 0) for leaf in range(1, n)]
    return PortLabeledGraph.from_edges(n, edges)


@GRAPH_FAMILIES.register(
    "complete", vertex_transitive=True, from_size=lambda size: {"n": size}
)
def complete_graph(n: int) -> PortLabeledGraph:
    """The complete graph ``K_n`` with a deterministic port assignment.

    At node ``u``, the neighbours appear in increasing node order, so the
    port from ``u`` to ``v`` is ``v`` if ``v < u`` else ``v - 1``.
    """
    if n < 2:
        raise ValueError(f"a complete graph needs n >= 2 nodes, got {n}")

    def port(u: int, v: int) -> int:
        return v if v < u else v - 1

    edges = [
        PortEdge(u, port(u, v), v, port(v, u))
        for u in range(n)
        for v in range(u + 1, n)
    ]
    return PortLabeledGraph.from_edges(n, edges)


@GRAPH_FAMILIES.register(
    "tree", from_size=lambda size: {"depth": max(1, size.bit_length() - 1)}
)
def full_binary_tree(depth: int) -> PortLabeledGraph:
    """The complete binary tree of the given ``depth`` (depth 0 = one node...).

    Node 0 is the root; node ``i`` has children ``2i + 1`` and ``2i + 2``.
    Port convention: at the root, ports 0/1 lead to the children; at inner
    nodes port 0 leads to the parent and ports 1/2 to the children; at a
    leaf, port 0 leads to the parent.
    """
    if depth < 1:
        raise ValueError(f"need depth >= 1 for a tree with edges, got {depth}")
    n = 2 ** (depth + 1) - 1
    edges = []
    for child in range(1, n):
        parent = (child - 1) // 2
        child_index = (child - 1) % 2  # 0 for left child, 1 for right child
        parent_port = child_index if parent == 0 else child_index + 1
        edges.append(PortEdge(parent, parent_port, child, 0))
    return PortLabeledGraph.from_edges(n, edges)


def random_tree(n: int, rng: random.Random) -> PortLabeledGraph:
    """A uniformly random labeled tree on ``n`` nodes (random attachment).

    Ports are assigned in order of edge insertion at each endpoint.
    """
    if n < 2:
        raise ValueError(f"a tree needs n >= 2 nodes, got {n}")
    next_port = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append(PortEdge(u, next_port[u], v, next_port[v]))
        next_port[u] += 1
        next_port[v] += 1
    return PortLabeledGraph.from_edges(n, edges)


@GRAPH_FAMILIES.register(
    "hypercube",
    vertex_transitive=True,
    from_size=lambda size: {"dimension": max(1, size.bit_length() - 1)},
)
def hypercube(dimension: int) -> PortLabeledGraph:
    """The ``dimension``-dimensional hypercube; port ``i`` flips bit ``i``.

    This port labeling is the natural one and is symmetric at both endpoints.
    """
    if dimension < 1:
        raise ValueError(f"need dimension >= 1, got {dimension}")
    n = 1 << dimension
    edges = []
    for u in range(n):
        for bit in range(dimension):
            v = u ^ (1 << bit)
            if u < v:
                edges.append(PortEdge(u, bit, v, bit))
    return PortLabeledGraph.from_edges(n, edges)


@GRAPH_FAMILIES.register(
    "torus",
    vertex_transitive=True,
    from_size=lambda size: {"rows": 3, "cols": max(3, size // 3)},
)
def torus_grid(rows: int, cols: int) -> PortLabeledGraph:
    """The ``rows x cols`` torus; ports 0/1 = east/west, 2/3 = south/north.

    Both dimensions must be at least 3 so that no duplicate edges appear.
    """
    if rows < 3 or cols < 3:
        raise ValueError(f"torus dimensions must be >= 3, got {rows}x{cols}")

    def node(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append(PortEdge(node(r, c), 0, node(r, c + 1), 1))
            edges.append(PortEdge(node(r, c), 2, node(r + 1, c), 3))
    return PortLabeledGraph.from_edges(rows * cols, edges)


@GRAPH_FAMILIES.register(
    "lollipop",
    from_size=lambda size: {
        "clique_size": max(3, size // 2),
        "tail_length": max(1, size - max(3, size // 2)),
    },
)
def lollipop(clique_size: int, tail_length: int) -> PortLabeledGraph:
    """A clique on ``clique_size`` nodes with a path of ``tail_length`` hanging off.

    A classical stress case for exploration (cover-time extremes).  Node
    ``clique_size - 1`` is the junction; tail nodes follow.
    """
    if clique_size < 3 or tail_length < 1:
        raise ValueError("need clique_size >= 3 and tail_length >= 1")

    def clique_port(u: int, v: int) -> int:
        return v if v < u else v - 1

    n = clique_size + tail_length
    edges = [
        PortEdge(u, clique_port(u, v), v, clique_port(v, u))
        for u in range(clique_size)
        for v in range(u + 1, clique_size)
    ]
    junction = clique_size - 1
    # The junction's clique edges use ports 0..clique_size-2; the tail edge
    # takes the next free port.
    edges.append(PortEdge(junction, clique_size - 1, clique_size, 0))
    for i in range(1, tail_length):
        u = clique_size + i - 1
        edges.append(PortEdge(u, 1, u + 1, 0))
    return PortLabeledGraph.from_edges(n, edges)


@GRAPH_FAMILIES.register(
    "circulant",
    vertex_transitive=True,
    from_size=lambda size: {"n": max(5, size), "offsets": [1, 2]},
)
def circulant_graph(n: int, offsets: Sequence[int]) -> PortLabeledGraph:
    """The circulant graph ``C_n(offsets)``: node ``u`` adjacent to ``u +- s``.

    Vertex-transitive (like rings, hypercubes and tori), so worst-case
    sweeps may fix the first agent's start.  Ports: for the ``i``-th offset
    ``s``, port ``2i`` leads to ``u + s`` and port ``2i + 1`` to ``u - s``.
    Offsets must be distinct, in ``1 .. (n-1)/2`` (strictly below ``n/2``
    so no offset is self-paired).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    offsets = list(offsets)
    if len(set(offsets)) != len(offsets):
        raise ValueError(f"offsets must be distinct, got {offsets}")
    for s in offsets:
        if not 1 <= s < (n + 1) // 2 or (n % 2 == 0 and s == n // 2):
            raise ValueError(
                f"offset {s} outside 1..{(n - 1) // 2} for n={n}"
            )
    edges = []
    for i, s in enumerate(offsets):
        for u in range(n):
            edges.append(PortEdge(u, 2 * i, (u + s) % n, 2 * i + 1))
    return PortLabeledGraph.from_edges(n, edges)


@GRAPH_FAMILIES.register(
    "complete-bipartite",
    from_size=lambda size: {"a": max(1, size // 2), "b": max(1, size - size // 2)},
)
def complete_bipartite(a: int, b: int) -> PortLabeledGraph:
    """The complete bipartite graph ``K_{a,b}``; left nodes first.

    Left node ``u``'s port ``j`` leads to right node ``a + j``; right node
    ``a + v``'s port ``i`` leads to left node ``i``.
    """
    if a < 1 or b < 1:
        raise ValueError(f"both sides need at least one node, got {a}, {b}")
    edges = [
        PortEdge(u, j, a + j, u)
        for u in range(a)
        for j in range(b)
    ]
    return PortLabeledGraph.from_edges(a + b, edges)


# Deliberately NOT vertex_transitive: the Petersen graph is transitive as
# an abstract graph, but pinning soundness needs *port-preserving*
# transitivity, and this fixed port assignment has no automorphisms
# mapping outer to inner nodes (a pinned sweep measurably misses worst
# cases; see tests/test_registry.py).
@GRAPH_FAMILIES.register("petersen", sized=False, from_size=lambda size: {})
def petersen_graph() -> PortLabeledGraph:
    """The Petersen graph (10 nodes, 3-regular) with a fixed port assignment.

    A useful non-trivial, non-Hamiltonian-cycle-free test graph (it is
    hypo-Hamiltonian: no Hamiltonian cycle but Hamiltonian paths exist).
    """
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pairs = [(u, v) for u, v in outer + spokes + inner]
    next_port = [0] * 10
    edges = []
    for u, v in pairs:
        edges.append(PortEdge(u, next_port[u], v, next_port[v]))
        next_port[u] += 1
        next_port[v] += 1
    return PortLabeledGraph.from_edges(10, edges)


def random_connected_graph(n: int, extra_edges: int, rng: random.Random) -> PortLabeledGraph:
    """A random connected graph: a random tree plus ``extra_edges`` chords.

    Chords are sampled without replacement from the non-tree pairs; if fewer
    than ``extra_edges`` pairs exist, all of them are used.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    parent_pairs = set()
    tree_edges: list[tuple[int, int]] = []
    for v in range(1, n):
        u = rng.randrange(v)
        tree_edges.append((u, v))
        parent_pairs.add((u, v))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in parent_pairs
    ]
    rng.shuffle(candidates)
    chosen = tree_edges + candidates[:extra_edges]
    next_port = [0] * n
    edges = []
    for u, v in chosen:
        edges.append(PortEdge(u, next_port[u], v, next_port[v]))
        next_port[u] += 1
        next_port[v] += 1
    return PortLabeledGraph.from_edges(n, edges)


def standard_test_suite(rng: random.Random | None = None) -> Sequence[tuple[str, PortLabeledGraph]]:
    """A fixed, named collection of small graphs used by tests and benches.

    The collection deliberately mixes symmetric graphs (rings, hypercubes,
    tori) where labels are the only symmetry breaker with irregular ones
    (trees, lollipops, random graphs).
    """
    rng = rng or random.Random(0x5EED)
    return (
        ("oriented-ring-12", oriented_ring(12)),
        ("random-port-ring-9", ring_with_random_ports(9, rng)),
        ("path-8", path_graph(8)),
        ("star-9", star_graph(9)),
        ("complete-6", complete_graph(6)),
        ("binary-tree-d3", full_binary_tree(3)),
        ("random-tree-10", random_tree(10, rng)),
        ("hypercube-3", hypercube(3)),
        ("torus-3x4", torus_grid(3, 4)),
        ("lollipop-5+4", lollipop(5, 4)),
        ("petersen", petersen_graph()),
        ("random-sparse-11", random_connected_graph(11, 4, rng)),
    )
