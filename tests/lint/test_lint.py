"""The invariant linter: engine, rules, fixtures, cache and CLI.

The fixture convention under ``tests/lint/fixtures/`` is load-bearing:
every registered rule ``REPxxx`` owns a ``repxxx/trigger/`` tree that
must produce at least one finding of exactly that rule and a
``repxxx/clean/`` tree that must lint clean under the full rule set --
the meta-test below enforces the convention for every rule the registry
will ever grow, so a rule cannot ship without a demonstration of both
directions.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    Finding,
    LintCache,
    SYNTAX_RULE,
    lint_paths,
    lint_source,
    resolve_rules,
)
from repro.registry import LINT_RULES, SpecError

FIXTURES = Path(__file__).parent / "fixtures"


def rules_hit(report):
    return sorted({finding.rule for finding in report.findings})


class TestEveryRuleHasFixtures:
    """The meta-test: each registered rule demonstrates both directions."""

    @pytest.mark.parametrize("rule", sorted(LINT_RULES.names()))
    def test_trigger_fires_exactly_this_rule(self, rule):
        report = lint_paths([FIXTURES / rule.lower() / "trigger"])
        assert report.findings, f"{rule} trigger fixture produced no findings"
        assert rules_hit(report) == [rule]

    @pytest.mark.parametrize("rule", sorted(LINT_RULES.names()))
    def test_clean_passes_the_full_rule_set(self, rule):
        report = lint_paths([FIXTURES / rule.lower() / "clean"])
        assert report.ok, [f.render() for f in report.findings]

    @pytest.mark.parametrize("rule", sorted(LINT_RULES.names()))
    def test_registry_metadata_names_family_and_mirror(self, rule):
        entry = LINT_RULES.entry(rule)
        assert entry.metadata["family"] in {
            "determinism", "atomicity", "inertness",
        }
        assert entry.metadata["mirrors"]

    def test_findings_carry_rule_file_and_line(self):
        report = lint_paths([FIXTURES / "rep001" / "trigger"])
        finding = report.findings[0]
        assert finding.rule == "REP001"
        assert finding.path.endswith("rep001/trigger/mod.py")
        assert finding.line > 0 and finding.col > 0
        rendered = finding.render()
        assert "REP001" in rendered and f":{finding.line}:" in rendered


class TestRuleSelection:
    def test_unknown_select_raises_spec_error_naming_choices(self):
        with pytest.raises(SpecError) as excinfo:
            resolve_rules(select=["REP01"])
        assert "REP01" in str(excinfo.value)
        assert "REP001" in str(excinfo.value)

    def test_unknown_ignore_raises_spec_error(self):
        with pytest.raises(SpecError):
            resolve_rules(ignore=["nope"])

    def test_select_narrows_and_ignore_drops(self):
        assert resolve_rules(select=["REP003", "REP001"]) == ["REP003", "REP001"]
        remaining = resolve_rules(ignore=["REP001"])
        assert "REP001" not in remaining
        assert set(remaining) < set(LINT_RULES.names())

    def test_selection_scopes_lint_paths(self):
        trigger = FIXTURES / "rep001" / "trigger"
        assert lint_paths([trigger], select=["REP002"]).ok
        assert not lint_paths([trigger], select=["REP001"]).ok
        assert lint_paths([trigger], ignore=["REP001"]).ok


class TestSuppressions:
    def test_same_line_allow_silences_one_rule(self):
        text = "import time\nnow = time.time()  # repro: allow(REP001)\n"
        assert lint_source(text, "mod.py", ["REP001"]) == []

    def test_comment_line_above_covers_the_next_code_line(self):
        text = (
            "import time\n"
            "# repro: allow(REP001): provenance-only timing, stripped\n"
            "# from every canonical report by strip_timing().\n"
            "now = time.time()\n"
        )
        assert lint_source(text, "mod.py", ["REP001"]) == []

    def test_allow_file_covers_the_whole_module(self):
        text = (
            "# repro: allow-file(REP001)\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        assert lint_source(text, "mod.py", ["REP001"]) == []

    def test_allow_only_silences_the_named_rule(self):
        text = "import time\nnow = time.time()  # repro: allow(REP003)\n"
        findings = lint_source(text, "mod.py", ["REP001"])
        assert [f.rule for f in findings] == ["REP001"]

    def test_comma_list_allows_several_rules(self):
        text = (
            "import os, time\n"
            "x = [time.time() for _ in os.listdir('.')]"
            "  # repro: allow(REP001, REP003)\n"
        )
        assert lint_source(text, "mod.py", ["REP001", "REP003"]) == []

    def test_syntax_errors_cannot_be_suppressed(self):
        text = "# repro: allow-file(REP000)\ndef broken(:\n"
        findings = lint_source(text, "mod.py", list(LINT_RULES.names()))
        assert [f.rule for f in findings] == [SYNTAX_RULE]


class TestReportShape:
    def test_finding_json_round_trip(self):
        finding = Finding(
            path="src/x.py", line=3, col=7, rule="REP001", message="m"
        )
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_report_dict_has_config_result_and_runtime_blocks(self):
        report = lint_paths([FIXTURES / "rep003" / "trigger"])
        payload = report.to_dict()
        assert sorted(payload) == ["lint", "result", "runtime"]
        assert payload["lint"]["rules"] == list(LINT_RULES.names())
        assert payload["result"]["ok"] is False
        assert payload["result"]["count"] == len(payload["result"]["findings"])
        assert payload["runtime"] == {"cached": 0, "linted": report.files}
        for item in payload["result"]["findings"]:
            assert Finding.from_dict(item) in report.findings

    def test_report_json_is_canonical(self):
        report = lint_paths([FIXTURES / "rep003" / "clean"])
        text = report.to_json()
        assert json.loads(text) == report.to_dict()
        assert text == json.dumps(
            report.to_dict(), sort_keys=True, separators=(",", ":")
        )


class TestCache:
    def test_second_run_is_pure_cache_hits(self, tmp_path):
        cache_dir = tmp_path / "lint-cache"
        first = lint_paths(
            [FIXTURES / "rep001" / "trigger"], cache=LintCache(cache_dir)
        )
        assert first.cached == 0
        second = lint_paths(
            [FIXTURES / "rep001" / "trigger"], cache=LintCache(cache_dir)
        )
        assert second.cached == second.files == first.files
        assert second.findings == first.findings

    def test_content_change_invalidates_one_file(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        good = tree / "good.py"
        good.write_text("import time\n")
        bad = tree / "bad.py"
        bad.write_text("import os\n")
        cache_dir = tmp_path / "cache"
        assert lint_paths([tree], cache=LintCache(cache_dir)).ok
        bad.write_text("import time\nnow = time.time()\n")
        report = lint_paths([tree], cache=LintCache(cache_dir))
        assert report.cached == 1  # good.py replays, bad.py re-lints
        assert [f.rule for f in report.findings] == ["REP001"]

    def test_rule_selection_keys_the_cache(self, tmp_path):
        trigger = FIXTURES / "rep001" / "trigger"
        cache_dir = tmp_path / "cache"
        lint_paths([trigger], cache=LintCache(cache_dir))
        narrowed = lint_paths(
            [trigger], select=["REP002"], cache=LintCache(cache_dir)
        )
        assert narrowed.cached == 0  # different ruleset, no stale replay
        assert narrowed.ok

    def test_torn_cache_document_is_ignored(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "findings.json").write_text("{ torn")
        report = lint_paths(
            [FIXTURES / "rep001" / "trigger"], cache=LintCache(cache_dir)
        )
        assert report.cached == 0
        assert not report.ok


class TestMissingPaths:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([FIXTURES / "no-such-dir"])


class TestCli:
    def test_shipped_tree_lints_clean(self, capsys):
        assert main(["lint", "--check", "--no-cache", "src"]) == 0
        assert "lint --check: ok" in capsys.readouterr().out

    def test_broken_invariant_exits_nonzero_naming_the_site(self, capsys):
        trigger = FIXTURES / "rep003" / "trigger"
        assert main(["lint", "--no-cache", str(trigger)]) == 1
        out = capsys.readouterr().out
        assert "REP003" in out
        assert "rep003/trigger/mod.py" in out
        assert "sorted()" in out

    def test_json_report_round_trips(self, capsys):
        trigger = FIXTURES / "rep011" / "trigger"
        assert main(["lint", "--json", "--no-cache", str(trigger)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["ok"] is False
        assert {f["rule"] for f in payload["result"]["findings"]} == {"REP011"}

    def test_select_and_ignore_route_through_spec_error(self, capsys):
        trigger = FIXTURES / "rep001" / "trigger"
        assert main(
            ["lint", str(trigger), "--no-cache", "--select", "REP002"]
        ) == 0
        assert main(
            ["lint", str(trigger), "--no-cache", "--ignore", "REP001"]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(trigger), "--no-cache", "--select", "REP999"])
        assert "REP999" in str(excinfo.value)
        assert "REP001" in str(excinfo.value)  # the choices are listed

    def test_missing_path_is_a_clean_cli_error(self):
        with pytest.raises(SystemExit):
            main(["lint", "--no-cache", "definitely/not/here"])

    def test_cache_dir_with_no_cache_contradiction(self):
        with pytest.raises(SystemExit):
            main(["lint", "--no-cache", "--cache-dir", "x", "src"])

    def test_cli_cache_round_trip(self, tmp_path, capsys):
        trigger = FIXTURES / "rep002" / "trigger"
        cache_dir = tmp_path / "cli-cache"
        assert main(["lint", "--cache-dir", str(cache_dir), str(trigger)]) == 1
        first = capsys.readouterr().out
        assert main(["lint", "--cache-dir", str(cache_dir), str(trigger)]) == 1
        second = capsys.readouterr().out
        assert "[7 rules, 0 cached]" in first
        assert "[7 rules, 1 cached]" in second

        def findings(output):
            return [line for line in output.splitlines() if "REP002" in line]

        assert findings(first) == findings(second) != []
