"""Schedules: the wait/explore structure shared by all three algorithms.

Every algorithm in the paper is, per agent, a fixed sequence of two kinds
of segments: *explore* (run ``EXPLORE`` for exactly ``E`` rounds) and
*wait* (idle for a given number of rounds).  An explore segment runs the
algorithm's own procedure unless it names one: the Conclusion's
unknown-``E`` construction concatenates schedules whose explorations
grow level by level.  Expressing algorithms as
:class:`Schedule` values keeps the algorithm classes declarative, gives
the analysis code (behaviour-vector extraction, bound accounting) an exact
description to work from, and makes program generation a single shared
routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from repro.exploration.base import ExplorationProcedure
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, AgentGenerator, SubBehaviour, idle


class SegmentKind(Enum):
    """The two actions a schedule can prescribe for a block of rounds."""

    EXPLORE = "explore"
    WAIT = "wait"


@dataclass(frozen=True)
class Segment:
    """One schedule segment.

    ``rounds`` is the wait length for WAIT segments and must be ``None``
    for EXPLORE segments (an exploration always takes exactly ``E`` rounds,
    determined by the procedure, not the schedule).  ``exploration`` is
    the procedure an EXPLORE segment runs, with its own budget; ``None``
    means the executing algorithm's own procedure.
    """

    kind: SegmentKind
    rounds: int | None = None
    exploration: ExplorationProcedure | None = None

    def __post_init__(self) -> None:
        if self.kind is SegmentKind.WAIT:
            if self.rounds is None or self.rounds < 0:
                raise ValueError(f"WAIT segment needs a non-negative length, got {self.rounds}")
            if self.exploration is not None:
                raise ValueError("WAIT segments run no exploration")
        elif self.rounds is not None:
            raise ValueError("EXPLORE segments take exactly E rounds; do not set rounds")


def explore(exploration: ExplorationProcedure | None = None) -> Segment:
    """An EXPLORE segment, of the given procedure or the algorithm's own."""
    return Segment(SegmentKind.EXPLORE, exploration=exploration)


def wait(rounds: int) -> Segment:
    """A WAIT segment of the given length."""
    return Segment(SegmentKind.WAIT, rounds)


class Schedule:
    """An immutable sequence of segments with accounting helpers."""

    def __init__(self, segments: Iterable[Segment]):
        self._segments = tuple(segments)

    @classmethod
    def from_bits(cls, bits: Sequence[int], wait_rounds: int) -> "Schedule":
        """EXPLORE for 1-bits, WAIT(``wait_rounds``) for 0-bits.

        This is how Fast turns a (transformed) label into a schedule; the
        wait length is always ``E`` there.  Segments are frozen, so one
        EXPLORE and one WAIT segment serve every bit.
        """
        one, zero = explore(), wait(wait_rounds)
        return cls(one if bit else zero for bit in bits)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._segments == other._segments

    def __repr__(self) -> str:
        parts = [
            "E" if seg.kind is SegmentKind.EXPLORE else f"W{seg.rounds}"
            for seg in self._segments
        ]
        return f"Schedule[{' '.join(parts)}]"

    def num_explorations(self) -> int:
        """How many EXPLORE segments the schedule contains."""
        return sum(1 for seg in self._segments if seg.kind is SegmentKind.EXPLORE)

    def bound_to(self, exploration: ExplorationProcedure) -> "Schedule":
        """This schedule with every unnamed EXPLORE naming ``exploration``.

        How a schedule keeps its meaning inside another algorithm's
        schedule (see :class:`~repro.core.unknown_e.IteratedDoublingRendezvous`).
        """
        named = explore(exploration)
        return Schedule(
            named
            if seg.kind is SegmentKind.EXPLORE and seg.exploration is None
            else seg
            for seg in self._segments
        )

    def total_rounds(self, exploration_budget: int) -> int:
        """Exact length of the schedule in rounds, given ``E``.

        An EXPLORE segment that names its procedure takes that
        procedure's budget; the others take ``exploration_budget``.
        """
        total = 0
        for seg in self._segments:
            if seg.kind is SegmentKind.WAIT:
                total += seg.rounds
            elif seg.exploration is not None:
                total += seg.exploration.budget
            else:
                total += exploration_budget
        return total

    def max_cost(self, exploration_budget: int) -> int:
        """Upper bound on one agent's traversals if it runs to completion."""
        return sum(
            exploration_budget if seg.exploration is None else seg.exploration.budget
            for seg in self._segments
            if seg.kind is SegmentKind.EXPLORE
        )


def schedule_body(
    schedule: Schedule,
    exploration: ExplorationProcedure,
    ctx: AgentContext,
    obs: Observation,
) -> SubBehaviour:
    """Run a schedule as a sub-behaviour (composable via ``yield from``).

    ``exploration`` runs every EXPLORE segment that names no procedure.
    """
    for segment in schedule:
        if segment.kind is SegmentKind.EXPLORE:
            procedure = segment.exploration or exploration
            obs = yield from procedure.execute(ctx, obs)
        else:
            assert segment.rounds is not None
            obs = yield from idle(segment.rounds, obs)
    return obs


def schedule_program(
    schedule: Schedule,
    exploration: ExplorationProcedure,
    ctx: AgentContext,
) -> AgentGenerator:
    """A complete agent program executing ``schedule`` once, then idling.

    The trailing idle is implicit: the generator returns and the simulator
    keeps the agent in place (a correct algorithm meets before that; the
    trimming analysis of Section 3 relies on nothing happening after).
    """
    obs = yield
    yield from schedule_body(schedule, exploration, ctx, obs)
