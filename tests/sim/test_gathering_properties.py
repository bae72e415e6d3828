"""Property-based tests for the gathering extension."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cheap import CheapSimultaneous
from repro.core.fast import FastSimultaneous
from repro.exploration.ring import RingExploration
from repro.graphs.families import oriented_ring
from repro.sim.compiled import TrajectoryTable
from repro.sim.gathering import gather

RING_SIZE = 12
LABEL_SPACE = 8


@st.composite
def gathering_instances(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    labels = tuple(
        sorted(
            draw(
                st.sets(
                    st.integers(min_value=1, max_value=LABEL_SPACE),
                    min_size=k,
                    max_size=k,
                )
            )
        )
    )
    starts = tuple(
        sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=RING_SIZE - 1),
                    min_size=k,
                    max_size=k,
                )
            )
        )
    )
    return labels, starts


@given(gathering_instances())
@settings(max_examples=40, deadline=None)
def test_fast_gathers_within_two_agent_bound(instance):
    """The extension's headline invariant, over random subsets and spreads."""
    labels, starts = instance
    ring = oriented_ring(RING_SIZE)
    algorithm = FastSimultaneous(RingExploration(RING_SIZE), LABEL_SPACE)
    result = gather(TrajectoryTable(ring, algorithm), labels, starts)
    assert result.gathered
    assert result.time <= algorithm.time_bound()
    # One round can absorb several groups at a node, so there are between
    # 1 and k - 1 merge rounds.
    assert 1 <= len(result.merge_times) <= len(labels) - 1


@given(gathering_instances())
@settings(max_examples=40, deadline=None)
def test_cheap_gathers_by_smallest_label_block(instance):
    """Cheap's k-agent guarantee: the smallest label's exploration pass
    collects everyone, so gathering completes by round l_min * E."""
    labels, starts = instance
    ring = oriented_ring(RING_SIZE)
    algorithm = CheapSimultaneous(RingExploration(RING_SIZE), LABEL_SPACE)
    result = gather(TrajectoryTable(ring, algorithm), labels, starts)
    assert result.gathered
    assert result.time <= min(labels) * (RING_SIZE - 1)
