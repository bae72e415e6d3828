"""Tests for schedules and schedule-driven agent programs."""

import pytest

from repro.core.schedule import (
    Schedule,
    Segment,
    SegmentKind,
    explore,
    schedule_program,
    wait,
)
from repro.sim.simulator import AgentSpec, Simulator


class TestSegment:
    def test_wait_needs_length(self):
        with pytest.raises(ValueError):
            Segment(SegmentKind.WAIT)
        with pytest.raises(ValueError):
            Segment(SegmentKind.WAIT, -1)

    def test_explore_rejects_length(self):
        with pytest.raises(ValueError):
            Segment(SegmentKind.EXPLORE, 5)

    def test_helpers(self):
        assert explore().kind is SegmentKind.EXPLORE
        assert wait(7).rounds == 7


class TestSchedule:
    def test_from_bits(self):
        schedule = Schedule.from_bits((1, 0, 1), wait_rounds=9)
        kinds = [seg.kind for seg in schedule]
        assert kinds == [SegmentKind.EXPLORE, SegmentKind.WAIT, SegmentKind.EXPLORE]
        assert schedule.segments[1].rounds == 9
        # Equal bits give equal segments (one shared segment per bit value).
        assert schedule.segments[0] == schedule.segments[2]
        long_bits = [(i * 7) % 3 == 0 for i in range(1000)]
        long = Schedule.from_bits(long_bits, wait_rounds=9)
        assert long.segments[0] == long.segments[3]
        assert long.segments[1] == long.segments[2]
        fresh = Schedule(explore() if bit else wait(9) for bit in long_bits)
        assert long == fresh
        ones = sum(long_bits)
        assert long.total_rounds(exploration_budget=11) == ones * 11 + (1000 - ones) * 9

    def test_accounting(self):
        schedule = Schedule([explore(), wait(5), explore()])
        assert len(schedule) == 3
        assert schedule.num_explorations() == 2
        assert schedule.total_rounds(exploration_budget=11) == 27
        assert schedule.max_cost(exploration_budget=11) == 22

    def test_equality_and_repr(self):
        first = Schedule([explore(), wait(3)])
        second = Schedule([explore(), wait(3)])
        assert first == second
        assert repr(first) == "Schedule[E W3]"

    def test_empty_schedule(self):
        schedule = Schedule([])
        assert schedule.total_rounds(10) == 0
        assert schedule.num_explorations() == 0


class TestScheduleProgram:
    def test_wait_then_explore_meets_midway(self, ring12, ring12_exploration):
        schedule = Schedule([wait(4), explore()])

        def factory(ctx):
            return schedule_program(schedule, ring12_exploration, ctx)

        def still(ctx):
            obs = yield

        specs = [
            AgentSpec(label=1, start_node=0, factory=factory),
            AgentSpec(label=2, start_node=5, factory=still),
        ]
        result = Simulator(ring12).run(specs, max_rounds=30)
        assert result.met
        assert result.time == 4 + 5  # 4 waiting rounds plus 5 clockwise steps
        assert result.cost == 5

    def test_program_is_exactly_schedule_long(self, ring12, ring12_exploration):
        schedule = Schedule([wait(2), explore(), wait(3)])

        def factory(ctx):
            return schedule_program(schedule, ring12_exploration, ctx)

        specs = [
            AgentSpec(label=1, start_node=0, factory=factory),
            AgentSpec(label=2, start_node=6, factory=factory),
        ]
        # Same schedule for both: they move in lockstep and never meet.
        horizon = schedule.total_rounds(11) + 5
        result = Simulator(ring12).run(specs, max_rounds=horizon)
        assert not result.met
        trace = result.traces[0]
        moves = [a for a in trace.actions if a is not None]
        assert len(moves) == 11  # exactly one exploration's worth of moves
        # After the schedule ends the agent only waits (exhausted program).
        active = schedule.total_rounds(11)
        assert all(action is None for action in trace.actions[active:])
        # The moves all happen inside the EXPLORE segment: rounds 3..13.
        assert trace.actions[:2] == [None, None]
        assert all(action == 0 for action in trace.actions[2:13])
