"""Tests for tables, sweep rows and ASCII plots."""

import pytest

from repro.analysis.ascii_plot import scatter_plot
from repro.analysis.tables import Table, format_ratio
from repro.api import Scenario


class TestTable:
    def test_render_aligns_columns(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("short", 1)
        table.add_row("a-much-longer-name", 123.456)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "a-much-longer-name" in text
        assert "123.46" in text  # floats rendered with 2 decimals

    def test_row_arity_checked(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError, match="columns"):
            table.add_row(1)

    def test_format_ratio(self):
        assert format_ratio(50, 100) == "50%"
        assert format_ratio(1, 0) == "n/a"


class TestSweep:
    def test_sweep_row_contents(self):
        row = Scenario(
            graph="ring",
            graph_params={"n": 12},
            algorithm="cheap",
            label_space=4,
            delays=(0, 5),
        ).run().row
        assert row.algorithm == "cheap"
        assert row.exploration_budget == 11
        assert row.time_within_bound
        assert row.cost_within_bound
        assert row.executions == 4 * 3 * 11 * 2  # pairs * starts * delays

    def test_simultaneous_algorithms_reject_delays(self):
        with pytest.raises(ValueError, match="simultaneous"):
            Scenario(
                graph="ring",
                graph_params={"n": 12},
                algorithm="cheap-sim",
                delays=(0, 3),
            )


class TestTradeoff:
    """Curve points: the rows of simultaneous-start scenarios on one ring."""

    def rows(self, label_space, label_pairs=None, engine="auto"):
        return {
            algorithm: Scenario(
                graph="ring",
                graph_params={"n": 12},
                algorithm=algorithm,
                label_space=label_space,
                label_pairs=label_pairs,
            ).run(engine=engine).row
            for algorithm in ("cheap-sim", "fast-sim")
        }

    def test_points_reflect_the_separation(self):
        # L = 16 is past the crossover: Cheap's (L-1)E worst time exceeds
        # Fast's (2 floor(log(L-1)) + 4)E.
        rows = self.rows(16, label_pairs=[(15, 16), (14, 15), (1, 2), (1, 16)])
        cheap, fast = rows["cheap-sim"], rows["fast-sim"]
        assert cheap.max_cost < fast.max_cost  # Cheap is cheaper
        assert fast.max_time < cheap.max_time  # Fast is faster
        assert cheap.max_cost / cheap.exploration_budget == pytest.approx(1.0)

    def test_points_are_engine_invariant(self):
        assert self.rows(4) == self.rows(4, engine="reactive")


class TestScatterPlot:
    def test_renders_markers(self):
        text = scatter_plot(
            [(0, 0, "a"), (1, 1, "b"), (0.5, 0.2, "c")],
            width=20,
            height=5,
            x_label="cost",
            y_label="time",
        )
        assert "a" in text and "b" in text and "c" in text
        assert "cost" in text and "time" in text

    def test_single_point(self):
        assert "x" in scatter_plot([(3, 3, "x")], width=10, height=3)

    def test_empty(self):
        assert scatter_plot([]) == "(no points)"

    def test_multichar_marker_rejected(self):
        with pytest.raises(ValueError):
            scatter_plot([(0, 0, "ab")])
