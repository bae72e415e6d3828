"""repro lint: AST-based static enforcement of the repro invariants.

The dynamic suites prove that canonical reports are byte-identical
across engines, worker counts and kill/restart schedules; this package
proves the *source* never acquires one of the known ways to break that
-- wall-clock reads, unseeded randomness, unsorted directory scans, set
iteration in canonical modules, run-store writes outside the store,
non-inert telemetry.  Dependency-free (stdlib ``ast``), with
rules registered in :data:`repro.registry.LINT_RULES` and a CLI
subcommand::

    python -m repro lint [paths] [--json | --check]
                         [--select REP001 ...] [--ignore REP003 ...]

Exit status is non-zero whenever findings remain after suppressions
(``# repro: allow(REP0xx)`` inline, ``# repro: allow-file(REP0xx)`` per
module), so the lint gate composes with CI exactly like the test suite.
"""

from repro.lint.engine import (
    DEFAULT_LINT_CACHE_DIR,
    SYNTAX_RULE,
    Finding,
    LintCache,
    LintReport,
    SourceModule,
    lint_paths,
    lint_source,
    resolve_rules,
)
from repro.lint.rules import Rule
from repro.registry import LINT_RULES

__all__ = [
    "DEFAULT_LINT_CACHE_DIR",
    "Finding",
    "LINT_RULES",
    "LintCache",
    "LintReport",
    "Rule",
    "SYNTAX_RULE",
    "SourceModule",
    "lint_paths",
    "lint_source",
    "resolve_rules",
]
