"""Tests for behaviour-vector extraction and the fast ring executor."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cheap import CheapSimultaneous
from repro.core.fast import FastSimultaneous
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring
from repro.graphs.orientation import CLOCKWISE, COUNTERCLOCKWISE
from repro.lower_bounds.behaviour import (
    behaviour_from_schedule,
    behaviour_from_solo_run,
    forward_and_back,
    is_clockwise_heavy,
    mirror,
)
from repro.lower_bounds.ring_exec import (
    displacement,
    meeting_round,
    positions_over_time,
    solo_cost,
)
from repro.sim.actions import WAIT
from repro.sim.simulator import AgentSpec, Simulator


class TestExtraction:
    def test_schedule_and_solo_run_agree(self):
        """The two extraction paths must produce identical vectors."""
        n = 12
        ring = oriented_ring(n)
        exploration = RingExploration(n)
        for algorithm in (
            CheapSimultaneous(exploration, 6),
            FastSimultaneous(exploration, 6),
        ):
            for label in range(1, 7):
                analytic = behaviour_from_schedule(
                    algorithm.schedule(label), algorithm.exploration_budget
                )
                simulated = behaviour_from_solo_run(
                    ring, algorithm, label, rounds=len(analytic)
                )
                assert analytic == simulated, (algorithm.name, label)

    def test_solo_run_pads_with_idle(self, ring12):
        def short_walker(ctx):
            obs = yield
            obs = yield CLOCKWISE

        vector = behaviour_from_solo_run(ring12, short_walker, 1, rounds=5)
        assert vector == [1, 0, 0, 0, 0]

    def test_extraction_requires_oriented_ring(self):
        from repro.graphs.families import star_graph
        import pytest

        with pytest.raises(Exception, match="oriented ring"):
            behaviour_from_solo_run(star_graph(5), lambda ctx: iter(()), 1, rounds=3)


class TestForwardBack:
    def test_examples(self):
        assert forward_and_back([1, 1, -1]) == (2, 0)
        assert forward_and_back([-1, -1, 1, 1, 1]) == (1, 2)
        assert forward_and_back([0, 0]) == (0, 0)

    def test_heaviness_and_mirror(self):
        vector = [1, 1, -1]
        assert is_clockwise_heavy(vector)
        assert not is_clockwise_heavy(mirror(vector))
        assert mirror(mirror(vector)) == vector

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=60))
    def test_forward_back_bound_displacement(self, vector):
        forward, back = forward_and_back(vector)
        assert -back <= displacement(vector) <= forward


class TestRingExecutor:
    def test_positions_over_time(self):
        assert positions_over_time([1, 1, 0, -1], start=0, ring_size=5, rounds=6) == [
            0, 1, 2, 2, 1, 1, 1,
        ]

    def test_meeting_round_simple_chase(self):
        # Agent A walks clockwise; B stands still 3 nodes away.
        assert meeting_round([1] * 10, 0, [0] * 10, 3, ring_size=8) == 3

    def test_crossing_does_not_meet(self):
        # Two agents adjacent, walking toward each other, swap forever.
        a = [1] * 6
        b = [-1] * 6
        assert meeting_round(a, 0, b, 1, ring_size=6) is None

    def test_zero_gap_meets_immediately(self):
        assert meeting_round([0], 2, [0], 2, ring_size=5) == 0

    @given(
        st.lists(st.sampled_from([-1, 0, 1]), max_size=40),
        st.lists(st.sampled_from([-1, 0, 1]), max_size=40),
        st.integers(min_value=1, max_value=11),
    )
    @settings(max_examples=50, deadline=None)
    def test_executor_agrees_with_full_simulator(self, vec_a, vec_b, gap):
        """The vector executor and the round simulator must agree on
        the meeting time for arbitrary vector pairs."""
        n = 12
        ring = oriented_ring(n)

        def scripted(vector):
            def factory(ctx):
                obs = yield
                for step in vector:
                    if step == 0:
                        obs = yield WAIT
                    elif step == 1:
                        obs = yield CLOCKWISE
                    else:
                        obs = yield COUNTERCLOCKWISE

            return factory

        horizon = max(len(vec_a), len(vec_b))
        fast_result = meeting_round(vec_a, 0, vec_b, gap, n)
        specs = [
            AgentSpec(label=1, start_node=0, factory=scripted(vec_a)),
            AgentSpec(label=2, start_node=gap, factory=scripted(vec_b)),
        ]
        sim_result = Simulator(ring).run(specs, max_rounds=horizon)
        if fast_result is None:
            assert not sim_result.met
        else:
            assert sim_result.met
            assert sim_result.time == fast_result

    def test_solo_cost_counts_moves(self):
        assert solo_cost([1, 0, -1, 0, 1]) == 3
        assert solo_cost([1, 0, -1, 0, 1], upto=2) == 1
