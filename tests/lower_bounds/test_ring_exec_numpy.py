"""Cross-validation of the numpy and pure-Python meeting_round paths."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lower_bounds import ring_exec
from repro.lower_bounds.ring_exec import meeting_round, meeting_rounds_by_gap

long_vectors = st.lists(st.sampled_from([-1, 0, 1]), min_size=40, max_size=120)
#: Both sides of the 32-round threshold, so both paths run unpatched too.
any_vectors = st.one_of(
    st.lists(st.sampled_from([-1, 0, 1]), max_size=32), long_vectors
)


def pure_python_meeting_round(vector_a, vector_b, gap, ring_size):
    """Reference implementation (the scalar loop, inlined)."""
    if gap % ring_size == 0:
        return 0
    current = gap % ring_size
    for t in range(max(len(vector_a), len(vector_b))):
        step_a = vector_a[t] if t < len(vector_a) else 0
        step_b = vector_b[t] if t < len(vector_b) else 0
        current = (current + step_b - step_a) % ring_size
        if current == 0:
            return t + 1
    return None


@given(long_vectors, long_vectors, st.integers(min_value=1, max_value=17))
@settings(max_examples=120, deadline=None)
def test_numpy_path_matches_reference(vec_a, vec_b, gap):
    n = 18
    expected = pure_python_meeting_round(vec_a, vec_b, gap, n)
    # Vectors longer than 32 rounds take the numpy path.
    assert meeting_round(vec_a, 0, vec_b, gap, n) == expected


def test_numpy_module_present():
    """The dev environment ships numpy; the accelerated path must be live."""
    assert ring_exec._np is not None


def test_short_vectors_use_scalar_path():
    # Below the length threshold the scalar loop runs; same answers.
    assert meeting_round([1, 1], 0, [0, 0], 2, 6) == 2
    assert meeting_round([1], 0, [0], 3, 6) is None


@given(any_vectors, any_vectors, st.integers(min_value=2, max_value=19))
@settings(max_examples=150, deadline=None)
def test_all_gaps_pass_matches_meeting_round(vec_a, vec_b, n):
    """Entry ``gap`` of the one-pass table is ``meeting_round`` from that gap,
    on the NumPy path and with NumPy blocked."""
    expected = [meeting_round(vec_a, 0, vec_b, gap, n) for gap in range(n)]
    assert meeting_rounds_by_gap(vec_a, vec_b, n) == expected
    with mock.patch.object(ring_exec, "_np", None):
        assert meeting_rounds_by_gap(vec_a, vec_b, n) == expected
