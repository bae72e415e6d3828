"""The lint engine: source loading, suppressions, caching, reports.

The linter turns the repository's crown-jewel invariant -- canonical
reports are byte-identical across engines, worker counts and kill
schedules -- from a test-time property into a source-level contract.
Each rule in :mod:`repro.lint.rules` statically rejects one way that
invariant has been (or could be) broken; this module supplies everything
around the rules:

* **source modules** (:class:`SourceModule`): a parsed file plus the
  parent map rules use to ask "is this call wrapped in ``sorted()``?";
* **suppressions**: ``# repro: allow(REP001)`` on a finding's line
  silences that rule there; ``# repro: allow-file(REP001)`` anywhere in
  the file silences it for the whole module.  Both take a comma list.
  Every suppression in ``src/`` is expected to carry a justification in
  the surrounding comment -- the linter cannot check prose, review can;
* **per-file caching** keyed on content (sha256 of the path identity
  plus the bytes, plus the rule selection and library version), so
  re-linting an unchanged tree is pure cache reads.  The cache rewrites
  itself to exactly the entries the current run used, so it never grows
  beyond the tree and never needs invalidation logic;
* the :class:`LintReport` the CLI prints -- same canonical-JSON shape
  as the ``experiments``/``telemetry`` subcommands: a config block, a
  canonical ``result`` block, and a non-canonical ``runtime`` block
  (cache hit counts legitimately vary between reruns).

A file that does not parse yields the pseudo-finding ``REP000`` (syntax
error); it is not a registered rule -- it cannot be selected, ignored or
suppressed, because none of the invariants can be checked past it.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.registry import LINT_RULES
from repro.runtime.spec import canonical_json

#: Where lint results are cached, under the shared cache root.
DEFAULT_LINT_CACHE_DIR = ".repro_cache/lint"

#: The pseudo rule id for files the parser rejects.
SYNTAX_RULE = "REP000"

_ALLOW = re.compile(r"#\s*repro:\s*allow\(([A-Za-z0-9_,\s]+)\)")
_ALLOW_FILE = re.compile(r"#\s*repro:\s*allow-file\(([A-Za-z0-9_,\s]+)\)")


def _library_version() -> str:
    # Imported lazily: repro/__init__ transitively imports this package.
    from repro import __version__

    return __version__


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Finding":
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload["col"]),
            rule=str(payload["rule"]),
            message=str(payload["message"]),
        )


@dataclass
class SourceModule:
    """One parsed source file, as rules see it.

    ``ident`` is the path string findings report and rules scope on (its
    parts decide whether the module counts as ``runtime/store/`` code,
    ``obs/`` code, and so on); ``parents`` maps every AST node to its parent so
    rules can walk outward (e.g. to find an enclosing ``sorted()`` call).
    """

    ident: str
    text: str
    tree: ast.Module
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @property
    def parts(self) -> tuple[str, ...]:
        return Path(self.ident).parts

    @property
    def name(self) -> str:
        return Path(self.ident).name

    def in_dir(self, directory: str) -> bool:
        """Whether any directory component of the path is ``directory``."""
        return directory in self.parts[:-1]

    def parent(self, node: ast.AST) -> "ast.AST | None":
        return self.parents.get(node)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.ident,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )

    @classmethod
    def parse(cls, ident: str, text: str) -> "SourceModule":
        tree = ast.parse(text)
        module = cls(ident=ident, text=text, tree=tree)
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                module.parents[child] = parent
        return module


def _rule_list(match: "re.Match[str]") -> set[str]:
    return {part.strip() for part in match.group(1).split(",") if part.strip()}


def _suppressions(text: str) -> tuple[set[str], dict[int, set[str]]]:
    """The file-level and per-line rule-id suppression sets of a source.

    An ``allow(...)`` on a code line covers that line; on a comment-only
    line it covers the next code line (so a justification block can sit
    above the site it blesses).  ``allow-file(...)`` covers the module
    wherever it appears.
    """
    file_rules: set[str] = set()
    line_rules: dict[int, set[str]] = {}
    pending: set[str] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        match = _ALLOW_FILE.search(line)
        if match is not None:
            file_rules.update(_rule_list(match))
        stripped = line.strip()
        match = _ALLOW.search(line)
        if match is not None and stripped.startswith("#"):
            pending.update(_rule_list(match))
            continue
        rules = _rule_list(match) if match is not None else set()
        if stripped and not stripped.startswith("#"):
            rules |= pending
            pending = set()
        if rules:
            line_rules.setdefault(number, set()).update(rules)
    return file_rules, line_rules


def resolve_rules(
    select: "Sequence[str] | None" = None,
    ignore: "Sequence[str] | None" = None,
) -> list[str]:
    """The rule ids a selection describes, every name registry-checked.

    Unknown ids in either list raise :class:`~repro.registry.SpecError`
    naming the registered rules -- ``--select REP01`` (a typo) must not
    silently lint nothing.
    """
    for name in list(select or ()) + list(ignore or ()):
        LINT_RULES.entry(name)
    chosen = list(select) if select else LINT_RULES.names()
    dropped = set(ignore or ())
    return [name for name in chosen if name not in dropped]


def lint_source(text: str, ident: str, rules: Sequence[str]) -> list[Finding]:
    """All findings of the given rules in one source text.

    Suppression comments are honoured here, so callers (and the cache)
    only ever see reportable findings.
    """
    try:
        module = SourceModule.parse(ident, text)
    except SyntaxError as err:
        return [
            Finding(
                path=ident,
                line=err.lineno or 1,
                col=(err.offset or 0) + 1,
                rule=SYNTAX_RULE,
                message=f"file does not parse: {err.msg}",
            )
        ]
    file_rules, line_rules = _suppressions(text)
    findings: list[Finding] = []
    for name in rules:
        if name in file_rules:
            continue
        rule = LINT_RULES.get(name)()
        for finding in rule.check(module):
            if finding.rule in line_rules.get(finding.line, ()):
                continue
            findings.append(finding)
    return sorted(findings)


# ----------------------------------------------------------------------
# The file cache
# ----------------------------------------------------------------------


class LintCache:
    """Per-file finding cache keyed on content, identity and rule set.

    One JSON document holds every entry.  A key is
    ``sha256(ident + content)`` -- the identity participates because
    rules scope on the path (the same bytes are clean inside
    ``runtime/store/`` and findings outside it) -- and the whole document is
    versioned by the library version plus the rule selection, so a rule
    edit or a different ``--select`` never serves stale results.  Writes
    go through the usual tmp-then-``os.replace`` so a killed lint run
    cannot tear the document, and each write keeps only the entries the
    run just used: the cache tracks the tree instead of growing forever.
    """

    def __init__(self, root: "str | os.PathLike[str]" = DEFAULT_LINT_CACHE_DIR):
        self.root = Path(root)
        self.path = self.root / "findings.json"
        self._entries: dict[str, list[dict[str, Any]]] = {}
        self._used: dict[str, list[dict[str, Any]]] = {}
        self._ruleset = ""

    def open(self, rules: Sequence[str]) -> None:
        self._ruleset = hashlib.sha256(
            canonical_json([_library_version(), sorted(rules)]).encode("utf-8")
        ).hexdigest()
        self._entries = {}
        self._used = {}
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return
        if payload.get("ruleset") == self._ruleset:
            entries = payload.get("entries")
            if isinstance(entries, dict):
                self._entries = entries

    @staticmethod
    def key(ident: str, text: str) -> str:
        digest = hashlib.sha256()
        digest.update(ident.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(text.encode("utf-8"))
        return digest.hexdigest()

    def get(self, key: str) -> "list[Finding] | None":
        entry = self._entries.get(key)
        if entry is None:
            return None
        try:
            findings = [Finding.from_dict(item) for item in entry]
        except (KeyError, TypeError, ValueError):
            return None
        self._used[key] = entry
        return findings

    def put(self, key: str, findings: Sequence[Finding]) -> None:
        self._used[key] = [finding.to_dict() for finding in findings]

    def write(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(
            canonical_json({"ruleset": self._ruleset, "entries": self._used}) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------
# Walking and the report
# ----------------------------------------------------------------------


def _collect(paths: Iterable["str | os.PathLike[str]"]) -> list[Path]:
    """Every ``.py`` file the paths name, sorted and de-duplicated.

    Sorted traversal is not just tidiness: finding order (and therefore
    the canonical JSON report) must not depend on directory enumeration
    order -- the linter holds itself to its own REP003.
    """
    files: dict[str, Path] = {}
    for item in paths:
        path = Path(item)
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                files[found.as_posix()] = found
        elif path.suffix == ".py" and path.exists():
            files[path.as_posix()] = path
        else:
            raise FileNotFoundError(f"no python file or directory at {path}")
    return [files[name] for name in sorted(files)]


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run, CLI- and JSON-renderable."""

    findings: tuple[Finding, ...]
    rules: tuple[str, ...]
    files: int
    cached: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        """The canonical report: config under ``lint``, outcome under
        ``result``, cache provenance under non-canonical ``runtime``."""
        return {
            "lint": {"rules": list(self.rules)},
            "result": {
                "findings": [finding.to_dict() for finding in self.findings],
                "count": len(self.findings),
                "files": self.files,
                "ok": self.ok,
            },
            "runtime": {"cached": self.cached, "linted": self.files - self.cached},
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def render_lines(self) -> list[str]:
        lines = [finding.render() for finding in self.findings]
        verdict = "ok" if self.ok else f"{len(self.findings)} finding(s)"
        lines.append(
            f"lint: {verdict} in {self.files} file(s) "
            f"[{len(self.rules)} rules, {self.cached} cached]"
        )
        return lines


def lint_paths(
    paths: Iterable["str | os.PathLike[str]"],
    select: "Sequence[str] | None" = None,
    ignore: "Sequence[str] | None" = None,
    cache: "LintCache | None" = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with the selected rules."""
    rules = resolve_rules(select, ignore)
    files = _collect(paths)
    if cache is not None:
        cache.open(rules)
    findings: list[Finding] = []
    cached = 0
    for path in files:
        ident = path.as_posix()
        text = path.read_text(encoding="utf-8")
        key = LintCache.key(ident, text)
        found = cache.get(key) if cache is not None else None
        if found is None:
            found = lint_source(text, ident, rules)
            if cache is not None:
                cache.put(key, found)
        else:
            cached += 1
        findings.extend(found)
    if cache is not None:
        cache.write()
    return LintReport(
        findings=tuple(sorted(findings)),
        rules=tuple(rules),
        files=len(files),
        cached=cached,
    )


__all__ = [
    "DEFAULT_LINT_CACHE_DIR",
    "Finding",
    "LintCache",
    "LintReport",
    "SYNTAX_RULE",
    "SourceModule",
    "lint_paths",
    "lint_source",
    "resolve_rules",
]
