"""Small gap-fill tests for interfaces not covered elsewhere."""

import pytest

from repro.analysis.tables import Table, print_lines
from repro.sim.adversary import Configuration
from repro.sim.program import AgentContext


class TestAgentContextCapabilities:
    def test_require_map_message(self):
        ctx = AgentContext(label=1)
        with pytest.raises(ValueError, match="requires a map"):
            ctx.require_map()

    def test_require_position_message(self):
        ctx = AgentContext(label=1)
        with pytest.raises(ValueError, match="marked current position"):
            ctx.require_position()

    def test_position_oracle_is_live(self):
        state = {"position": 3}
        ctx = AgentContext(label=1, position_oracle=lambda: state["position"])
        assert ctx.require_position() == 3
        state["position"] = 7
        assert ctx.require_position() == 7


class TestAdversaryRecords:
    def test_configuration_is_frozen(self):
        config = Configuration(labels=(1, 2), starts=(0, 3), delay=2)
        with pytest.raises(AttributeError):
            config.delay = 5  # type: ignore[misc]


class TestTablePrinting:
    def test_table_print_goes_to_stdout(self, capsys):
        table = Table("T", ["a"])
        table.add_row(1)
        table.print()
        out = capsys.readouterr().out
        assert "T" in out and "1" in out

    def test_print_lines(self, capsys):
        print_lines(["alpha", "beta"])
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out


class TestDunderMain:
    def test_cli_module_entry(self):
        import repro.cli as cli

        with pytest.raises(SystemExit):
            cli.main(["--help"])
