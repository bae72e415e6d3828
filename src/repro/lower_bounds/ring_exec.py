"""Fast execution of behaviour-vector pairs on an oriented ring.

The lower-bound analyses need many pairwise executions (the ``Trim``
procedure alone runs ``Theta(L^2 n)`` of them), so this module executes
them directly over the vectors by prefix sums instead of driving the full
simulator.  When numpy is available, :func:`meeting_round` additionally
uses a vectorised gap computation (the gap sequence is one cumulative
sum); tests cross-validate all three paths -- numpy, pure Python and the
full simulator -- on random inputs.

:func:`meeting_rounds_by_gap` answers every starting gap of one ordered
pair in a single pass.  From gap ``g`` the gap after ``t`` rounds is
``g + D_t mod n``, where the *drift* ``D_t`` is the prefix sum of
``step_b - step_a``, so the first meeting from ``g`` is the first ``t``
whose drift is ``-g mod n``: one prefix-sum pass records the first round
of each residue, and every gap reads its answer off that table.
:func:`meeting_round` stays the one-gap reference the tests hold it to.

All executions here use simultaneous start -- the setting of Section 3.
"""

from __future__ import annotations

from typing import Sequence

try:  # numpy accelerates the Trim sweeps; everything works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the dev env
    _np = None


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
    if _np is not None and horizon > 32:
        return _meeting_round_numpy(vector_a, vector_b, gap, ring_size, horizon)
    for t in range(horizon):
        step_a = vector_a[t] if t < len(vector_a) else 0
        step_b = vector_b[t] if t < len(vector_b) else 0
        gap = (gap + step_b - step_a) % ring_size
        if gap == 0:
            return t + 1
    return None


def _drift_numpy(vector_a: Sequence[int], vector_b: Sequence[int], horizon: int):
    """``D_t`` for ``t = 1..horizon``: one cumsum over zero-padded steps."""
    steps_a = _np.zeros(horizon, dtype=_np.int64)
    steps_b = _np.zeros(horizon, dtype=_np.int64)
    steps_a[: min(horizon, len(vector_a))] = vector_a[:horizon]
    steps_b[: min(horizon, len(vector_b))] = vector_b[:horizon]
    return _np.cumsum(steps_b - steps_a)


def _meeting_round_numpy(
    vector_a: Sequence[int],
    vector_b: Sequence[int],
    initial_gap: int,
    ring_size: int,
    horizon: int,
) -> int | None:
    """Vectorised gap evolution: one cumsum, one argmax."""
    gaps = (initial_gap + _drift_numpy(vector_a, vector_b, horizon)) % ring_size
    hits = _np.nonzero(gaps == 0)[0]
    if hits.size == 0:
        return None
    return int(hits[0]) + 1


def meeting_rounds_by_gap(
    vector_a: Sequence[int], vector_b: Sequence[int], ring_size: int
) -> list[int | None]:
    """:func:`meeting_round` from every starting gap, in one pass.

    Entry ``gap`` (``0..ring_size - 1``) equals
    ``meeting_round(vector_a, 0, vector_b, gap, ring_size)``: ``0`` for gap
    ``0``, ``None`` where the agents never meet.  NumPy takes the same
    horizons :func:`meeting_round` hands it; the pure-Python pass stops
    once every residue has been seen.
    """
    horizon = max(len(vector_a), len(vector_b))
    first: dict[int, int] = {}
    if _np is not None and horizon > 32:
        drifts = _drift_numpy(vector_a, vector_b, horizon) % ring_size
        residues, indices = _np.unique(drifts, return_index=True)
        first = dict(zip(residues.tolist(), (indices + 1).tolist()))
    else:
        drift = 0
        for t in range(horizon):
            step_a = vector_a[t] if t < len(vector_a) else 0
            step_b = vector_b[t] if t < len(vector_b) else 0
            drift = (drift + step_b - step_a) % ring_size
            if drift not in first:
                first[drift] = t + 1
                if len(first) == ring_size:
                    break
    return [0] + [first.get(-gap % ring_size) for gap in range(1, ring_size)]


def solo_cost(vector: Sequence[int], upto: int | None = None) -> int:
    """Edge traversals in a solo execution (non-zero entries of the prefix)."""
    if upto is None:
        upto = len(vector)
    return sum(1 for step in vector[:upto] if step != 0)
