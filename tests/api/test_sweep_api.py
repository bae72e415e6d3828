"""Sweep: scenario grids, their expansion order, and execution."""

import itertools

import pytest

from repro.api import Scenario, Sweep

BASE = Scenario(
    graph="ring", graph_params={"n": 5}, algorithm="fast-sim", label_space=3
)


class TestGridExpansion:
    def test_empty_grid_is_the_base_alone(self):
        sweep = Sweep(BASE)
        assert len(sweep) == 1
        assert list(sweep.scenarios()) == [BASE]

    def test_cartesian_product_in_axis_order(self):
        sweep = Sweep.over(BASE, label_space=[3, 4], algorithm=["fast-sim", "cheap-sim"])
        assert len(sweep) == 4
        got = [(s.label_space, s.algorithm) for s in sweep.scenarios()]
        assert got == list(itertools.product([3, 4], ["fast-sim", "cheap-sim"]))

    def test_graph_axis_crosses_families(self):
        sweep = Sweep.over(
            BASE,
            graph=[
                {"family": "ring", "params": {"n": 5}},
                {"family": "star", "params": {"n": 4}},
            ],
        )
        families = [s.graph for s in sweep.scenarios()]
        assert families == ["ring", "star"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            Sweep.over(BASE, frobnicate=[1, 2])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            Sweep.over(BASE, label_space=[])

    def test_bare_string_axis_value_rejected(self):
        with pytest.raises(ValueError, match="bare string"):
            Sweep.over(BASE, graph="ring")

    def test_unknown_sweep_fields_rejected(self):
        # A typo'd "grid" key must not silently load as a 1-point sweep.
        with pytest.raises(ValueError, match="unknown sweep fields"):
            Sweep.from_dict({"base": BASE.to_dict(), "gird": [["label_space", [4]]]})

    def test_duplicate_axis_rejected(self):
        # The pair form (what to_dict emits) could otherwise list one
        # axis twice, and the later values would silently win.
        with pytest.raises(ValueError, match="listed twice"):
            Sweep(BASE, [["label_space", [4, 8]], ["label_space", [16]]])


class TestSerialization:
    def test_round_trip(self):
        sweep = Sweep.over(
            BASE,
            label_space=[3, 4],
            graph=[
                {"family": "ring", "params": {"n": 5}},
                {"family": "complete", "params": {"n": 4}},
            ],
        )
        assert Sweep.from_dict(sweep.to_dict()) == sweep
        assert Sweep.from_json(sweep.to_json()) == sweep

    def test_round_trip_preserves_expansion(self):
        sweep = Sweep.over(BASE, delays=[[0], [0, 2]], algorithm=["cheap", "fast"])
        again = Sweep.from_json(sweep.to_json())
        assert list(again.scenarios()) == list(sweep.scenarios())


class TestExecution:
    def test_run_covers_the_grid_in_order(self):
        sweep = Sweep.over(BASE, label_space=[3, 4])
        outcome = sweep.run(engine="reactive", workers=1, shard_count=2)
        assert [r.scenario.label_space for r in outcome.runs] == [3, 4]
        assert all(r.row.time_within_bound for r in outcome.runs)
        assert len(outcome.rows) == 2

    def test_serial_equals_parallel_byte_for_byte(self):
        sweep = Sweep.over(
            BASE,
            algorithm=["fast-sim", "cheap-sim"],
            graph=[
                {"family": "ring", "params": {"n": 5}},
                {"family": "star", "params": {"n": 4}},
            ],
        )
        serial = sweep.run(engine="reactive", workers=1, shard_count=3)
        parallel = sweep.run(engine="reactive", workers=2, shard_count=3)
        assert serial.to_json() == parallel.to_json()

    def test_sweep_run_report_shape(self):
        outcome = Sweep(BASE).run(engine="reactive", workers=1, shard_count=2)
        payload = outcome.to_dict()
        assert payload["sweep"] == Sweep(BASE).to_dict()
        assert len(payload["runs"]) == 1
        assert payload["runs"][0]["scenario"] == BASE.to_dict()
