"""Pure-Python execution of behaviour-vector pairs on an oriented ring.

An agent's position on the ring is its start plus the prefix sum of its
behaviour vector, so the gap between two agents after ``t`` rounds is
the starting gap plus the drift of the two prefixes.
:func:`meeting_round` walks that drift from one starting gap: the
certificates run it on single executions (the tournament's eager agents,
the Hamiltonian chain), and the tests hold the engines to it -- the Trim
deadlines and the worst execution cost are read off the engines (see
:mod:`repro.lower_bounds.trim`), so this is their independent oracle.

All executions here use simultaneous start -- the setting of Section 3.
"""

from __future__ import annotations

from typing import Sequence


def displacement(vector: Sequence[int], upto: int | None = None) -> int:
    """Net clockwise displacement after ``upto`` rounds (all, if omitted).

    This is the paper's ``disp``: the sum of the behaviour vector's prefix.
    """
    if upto is None:
        upto = len(vector)
    return sum(vector[:upto])


def positions_over_time(
    vector: Sequence[int], start: int, ring_size: int, rounds: int
) -> list[int]:
    """Node occupied at each time point ``0..rounds`` (vector exhausted => idle)."""
    positions = [start % ring_size]
    node = start
    for t in range(rounds):
        if t < len(vector):
            node += vector[t]
        positions.append(node % ring_size)
    return positions


def meeting_round(
    vector_a: Sequence[int],
    start_a: int,
    vector_b: Sequence[int],
    start_b: int,
    ring_size: int,
    max_rounds: int | None = None,
) -> int | None:
    """First time point at which the two agents are colocated, or ``None``.

    This is ``|alpha(a, start_a, b, start_b)|`` of the paper for
    simultaneous start.  After both vectors are exhausted the positions are
    frozen, so if the agents have not met by then they never will;
    ``max_rounds`` defaults to that natural horizon.

    Note the engine checks colocation at time points only: two agents
    exchanging positions in one round cross on the edge and do *not* meet,
    exactly as in the full simulator.
    """
    horizon = max(len(vector_a), len(vector_b))
    if max_rounds is not None:
        horizon = min(horizon, max_rounds)
    gap = (start_b - start_a) % ring_size
    if gap == 0:
        return 0
    for t in range(horizon):
        step_a = vector_a[t] if t < len(vector_a) else 0
        step_b = vector_b[t] if t < len(vector_b) else 0
        gap = (gap + step_b - step_a) % ring_size
        if gap == 0:
            return t + 1
    return None


def solo_cost(vector: Sequence[int], upto: int | None = None) -> int:
    """Edge traversals in a solo execution (non-zero entries of the prefix)."""
    if upto is None:
        upto = len(vector)
    return sum(1 for step in vector[:upto] if step != 0)
