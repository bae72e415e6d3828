"""Adversary-space pruning: symmetry orbits, delay dominance, early exit.

The cube engine (:mod:`repro.sim.cube`) answers the whole
``L(L-1) x n(n-1) x D`` adversarial cube per sweep.  Most of that cube is
redundant: on a graph whose rotation is a *port-preserving* automorphism,
an agent whose walks never read their position traces rotated copies of
one route, so every start pair with the same ``delta = (s2 - s1) mod n``
shares one verdict; and once the second agent's wake-up delay exceeds the
first agent's schedule, further delay merely translates the tail of the
execution, so whole delay slices are exact translates of a pivot slice.
This module holds the *soundness machinery* for those reductions --
certification and dominance planning -- so the engine itself stays a
tensor pipeline.

Pruning soundness contract
--------------------------

Every reduction here is *exact reconstruction*, never approximation: a
pruned verdict is recomputed from its representative by a closed-form
rule proven from the simulator's semantics, so reports stay byte-identical
to the reactive engine (the cross-engine suite in ``tests/sim`` asserts
this for every registered algorithm x family x presence model).  There
is no switch: the cube engine applies every reduction whose checks pass
and falls back exactly where one fails.  The rotation rule rests on two
observed facts, nothing declared:

* **Rotation check** -- :func:`rotation_automorphism` verifies, in
  ``O(E)``, that ``v -> v + 1 (mod n)`` preserves every port label of
  the built graph; a graph that fails the check is scanned start by
  start.  Reflection (``v -> -v (mod n)``) is *not* port-preserving on
  oriented rings (it swaps the clockwise/counterclockwise ports 0 and
  1), so the engine never merges reflection orbits.  The factory must
  also be schedule-driven (:func:`~repro.core.base.schedule_driven`), so
  that every round it runs is a wait or a recorded exploration walk.
* **Position-free walks** -- each exploration walk spliced into a
  start-0 row notes whether it read its position
  (:attr:`~repro.exploration.base.Route.reads_position`).  A walk that
  did not is the rotated walk from every other start (the lemma in
  :func:`~repro.exploration.base.record_route`).  The first walk that
  did voids the certificate for the whole table as its row is built,
  and every label falls back to per-start rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.graphs.port_graph import PortLabeledGraph

# ----------------------------------------------------------------------
# Symmetry certification
# ----------------------------------------------------------------------


def rotation_automorphism(graph: PortLabeledGraph) -> bool:
    """Whether ``v -> v + 1 (mod n)`` preserves every port label.

    The exact ``O(E)`` check behind the orbit certificate: for every
    node ``u`` and port ``p`` with ``neighbor_via(u, p) == (v, q)``, the
    rotated node must satisfy ``neighbor_via(u + 1, p) == (v + 1, q)``
    (all mod ``n``), and degrees must match.  When this holds,
    relabeling every node by ``+ s`` maps walks to walks with identical
    port decisions, which is what makes rotation-derived trajectories
    exact.
    """
    n = graph.num_nodes
    for u in range(n):
        rotated = (u + 1) % n
        degree = graph.degree(u)
        if graph.degree(rotated) != degree:
            return False
        for port in range(degree):
            v, q = graph.neighbor_via(u, port)
            if graph.neighbor_via(rotated, port) != ((v + 1) % n, q):
                return False
    return True


@dataclass(frozen=True)
class SymmetryCertificate:
    """The outcome of :func:`certify_symmetry` -- may orbits be used?

    ``orbit`` is True only when every check passed; ``reason`` names the
    first check that failed (or confirms the pass) for telemetry and
    debugging.
    """

    orbit: bool
    reason: str


def certify_symmetry(graph: PortLabeledGraph, factory: Any) -> SymmetryCertificate:
    """Decide whether rotation-orbit reduction may start for this sweep.

    The exact structural check of the graph, then the factory's
    structure: only a schedule-driven factory splices recorded walks,
    which is what lets the engine observe that none read its position
    (a replay-route program has nothing to vouch for it).  Any failure
    yields ``orbit=False`` -- the engine scans every start row instead,
    identical output.
    """
    from repro.core.base import schedule_driven  # deferred: core imports sim

    if not rotation_automorphism(graph):
        return SymmetryCertificate(
            False, "rotation v -> v + 1 (mod n) does not preserve every port"
        )
    if not schedule_driven(type(factory)):
        return SymmetryCertificate(
            False, "factory is not schedule-driven: its walks are not recorded"
        )
    return SymmetryCertificate(
        True, "cyclic rotation verified and factory is schedule-driven"
    )


# ----------------------------------------------------------------------
# Delay-grid dominance
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DominancePlan:
    """Which ``(delay, horizon)`` slices to scan, which to derive.

    ``scan`` indexes the slices that need a real tensor pass; ``derived``
    maps a slice index to ``(pivot_index, shift)`` where the pivot is in
    ``scan`` and ``shift = delay - pivot_delay``.  Exactness argument
    (per ordered start pair, from the simulator's timeline semantics):
    once ``delay >= T1`` (the first agent's schedule length), agent 1 is
    parked at its final position for every time point ``t >= delay``, so
    two slices whose post-wake windows agree -- equal
    ``K = horizon - delay`` -- see literally the same sequence of
    colocation tests, translated by ``shift``.  Meetings while agent 2 is
    still at its start (``met <= pivot_delay``, from-start presence only)
    happen against the same parked agent 1 and do not translate; later
    meetings and never-meets translate verbatim (:func:`derive_met`).
    Total costs are *identical* to the pivot's in every case: agent 1 has
    already paid its full schedule, and agent 2's traversal count depends
    only on ``met - delay`` (or ``K`` on a miss), which dominance holds
    fixed.
    """

    scan: tuple[int, ...]
    derived: dict[int, tuple[int, int]] = field(default_factory=dict)


def dominance_plan(
    delay_horizons: Sequence[tuple[int, int]], first_length: int
) -> DominancePlan:
    """Partition a label pair's ``(delay, horizon)`` slices for pruning.

    Slices with ``delay >= first_length`` are grouped by
    ``K = horizon - delay``; each group's smallest delay becomes the
    pivot (scanned), the rest are derived.  Slices below the threshold
    are always scanned.  The input order is preserved in ``scan`` so the
    engine's cache keys stay deterministic.
    """
    groups: dict[int, int] = {}  # K -> pivot slice index
    scan: list[int] = []
    derived: dict[int, tuple[int, int]] = {}
    for index, (delay, horizon) in enumerate(delay_horizons):
        if delay < first_length:
            scan.append(index)
            continue
        window = horizon - delay
        pivot = groups.get(window)
        if pivot is None:
            groups[window] = index
            scan.append(index)
        else:
            derived[index] = (pivot, delay - delay_horizons[pivot][0])
    return DominancePlan(scan=tuple(scan), derived=derived)


def derive_met(
    np: Any, met_pivot: Any, pivot_delay: int, shift: int, parachute: bool
) -> Any:
    """A derived slice's meeting times from its pivot's (exact translate).

    Under the parachute presence model no meeting can precede the wake,
    so every meeting translates (misses stay ``-1``).  Under from-start
    presence, meetings at ``t <= pivot_delay`` happen while agent 2 still
    sits at its start against a parked agent 1 -- the identical situation
    at the derived delay -- so they keep their time; only meetings after
    the pivot wake translate.  ``-1`` misses satisfy ``met <= pivot_delay``
    and are preserved by the same branch.
    """
    if parachute:
        return np.where(met_pivot >= 0, met_pivot + shift, met_pivot)
    return np.where(met_pivot > pivot_delay, met_pivot + shift, met_pivot)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------


@dataclass
class PruneStats:
    """Counters of work the pruner avoided, for telemetry gauges.

    ``orbit_cells`` counts start-pair cells answered by rotation instead
    of a direct scan; ``dominated_slices`` counts delay slices derived
    from a pivot; ``early_exit_rounds`` counts time points the meeting
    scan skipped because every tracked cell had already met.
    ``rounds_built`` counts the rounds of label timelines built and
    ``rounds_declared`` the schedule rounds of the labels opened: their
    gap is what on-demand builds left unbuilt.  Pure observability:
    nothing reads these back into the computation.
    """

    orbit_cells: int = 0
    dominated_slices: int = 0
    early_exit_rounds: int = 0
    rounds_built: int = 0
    rounds_declared: int = 0

