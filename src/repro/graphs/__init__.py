"""Port-labeled anonymous graph substrate.

The paper's network model is an undirected connected graph whose nodes are
anonymous but whose edge endpoints carry local port numbers ``0..d-1``.
:class:`~repro.graphs.port_graph.PortLabeledGraph` is the core data
structure; :mod:`repro.graphs.families` builds the standard families used
throughout the experiments, and :mod:`repro.graphs.conversion` bridges to
``networkx``.  ``networkx`` is an optional dependency, so the bridge loads
on first use of :func:`from_networkx`/:func:`to_networkx`: the package
imports without it.
"""

from typing import Any

from repro.graphs.families import (
    circulant_graph,
    complete_bipartite,
    complete_graph,
    full_binary_tree,
    hypercube,
    lollipop,
    oriented_ring,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_tree,
    ring_with_random_ports,
    star_graph,
    torus_grid,
)
from repro.graphs.orientation import CLOCKWISE, COUNTERCLOCKWISE
from repro.graphs.port_graph import PortLabeledGraph
from repro.graphs.validation import check_port_graph

__all__ = [
    "PortLabeledGraph",
    "CLOCKWISE",
    "COUNTERCLOCKWISE",
    "check_port_graph",
    "circulant_graph",
    "complete_bipartite",
    "complete_graph",
    "from_networkx",
    "full_binary_tree",
    "hypercube",
    "lollipop",
    "oriented_ring",
    "path_graph",
    "petersen_graph",
    "random_connected_graph",
    "random_tree",
    "ring_with_random_ports",
    "star_graph",
    "to_networkx",
    "torus_grid",
]


def __getattr__(name: str) -> Any:
    # The networkx bridge, loaded lazily (PEP 562).
    if name in ("from_networkx", "to_networkx"):
        from repro.graphs import conversion

        return getattr(conversion, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
