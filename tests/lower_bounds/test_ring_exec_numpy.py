"""The pure-Python meeting_round on short vectors, NumPy or not."""

from repro.lower_bounds.ring_exec import meeting_round


def test_short_vectors_use_scalar_path():
    assert meeting_round([1, 1], 0, [0, 0], 2, 6) == 2
    assert meeting_round([1], 0, [0], 3, 6) is None
