"""The run store: append-only JSONL files, one per sweep.

Layout (under ``.repro_cache/`` by default)::

    .repro_cache/
      runs/
        <sweep_key>-v<library>-f<format>.jsonl   one file per sweep

Each file starts with a ``job`` header line carrying the full spec (for
humans and forensics -- the filename alone already identifies the sweep)
followed by one ``shard`` line per completed shard.  Records are written
with a single ``O_APPEND`` syscall each, so concurrent sweeps of the same
spec interleave at record granularity rather than tearing each other's
lines, and a process killed mid-write leaves at most one truncated
trailing line.  All readers share one parser: they skip undecodable
lines with a warning (re-running at most the affected shards) instead
of failing, and keep the first record of each shard's bounds.  A spec hash
names an immutable computation *within one library version* -- the
library and record-format versions are part of the filename, so results
computed by different code never serve (or evict) each other -- and the
store never invalidates in-place: :meth:`RunStore.clear` (or deleting
the directory) is the only eviction.  :meth:`RunStore.compact` is the
one sanctioned rewrite: it folds torn lines and duplicate records out
of damaged files without touching healthy bytes.

The invariant the store upholds is the repo's crown jewel: a run
resumed from it produces a canonical report that is byte-identical to
a cold run, for every engine and worker count.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator, NamedTuple

from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.runtime.report import ShardReport
from repro.runtime.spec import JobSpec

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Bumped to 2 when shard records gained the optional ``timing`` section
#: (readers tolerate its absence, but the filename isolation keeps record
#: formats from mixing within one file).
_FORMAT_VERSION = 2

#: ``<sweep_key>-v<library>-f<format>`` -- the stem of every sweep file.
_STEM = re.compile(r"^(?P<key>[0-9a-f]{64})-v(?P<library>.+)-f(?P<format>\d+)$")


def _library_version() -> str:
    # Imported lazily: repro/__init__ imports this package.
    from repro import __version__

    return __version__


class _Record(NamedTuple):
    """One line of a sweep file, as :func:`_records` classifies it."""

    raw: str  # the line as read, newline and all
    kind: str  # the record's kind, or "torn" (undecodable) or "blank"
    value: Any  # a header's spec or a shard's ShardReport, else None
    repeat: bool  # a later header, or a later shard of bounds already seen
    bounds: tuple[int, int] | None = None  # a shard's bounds


def _records(path: Path) -> Iterator[_Record]:
    """Every line of a sweep file, classified: the store's one parser.

    The first ``job`` header and the first ``shard`` record of each
    bounds win; later ones come back as repeats (a repeated shard is not
    decoded), so every reader keeps the same records.  A line that does
    not decode -- not JSON, not an object, a header without a spec, a
    shard without a readable report -- is torn, like an interrupted
    write: readers drop it and its shard re-executes.
    """
    header_seen = False
    bounds_seen: set[tuple[int, int]] = set()
    with path.open("r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                yield _Record(raw, "blank", None, False)
                continue
            try:
                record = _decode(raw, json.loads(line), header_seen, bounds_seen)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                yield _Record(raw, "torn", None, False)
                continue
            if record.kind == "job":
                header_seen = True
            elif record.kind == "shard":
                bounds_seen.add(record.bounds)
            yield record


def _decode(
    raw: str, payload: Any, header_seen: bool, bounds_seen: set[tuple[int, int]]
) -> _Record:
    """One decoded line as a record; raises on a line that does not decode."""
    kind = payload.get("kind")
    if kind == "job":
        return _Record(raw, kind, payload["spec"], header_seen)
    if kind == "shard":
        report = payload["report"]
        bounds = tuple(report["shard"])
        if bounds in bounds_seen:
            return _Record(raw, kind, None, True, bounds)
        return _Record(raw, kind, ShardReport.from_dict(report), False, bounds)
    # Unknown record kinds are informational; version skew never reaches
    # here because both the library and record-format versions are part
    # of the filename.
    return _Record(raw, str(kind), None, False)


def _read(
    path: Path, telemetry: Telemetry = NULL_TELEMETRY
) -> tuple[dict[str, Any] | None, dict[tuple[int, int], ShardReport]]:
    """A sweep file's header spec (``None`` if absent) and its shards.

    Torn lines -- an interrupted write, or a concurrent writer on a
    filesystem without atomic appends -- are skipped, and the affected
    shards re-execute.  Each costs a shard of recomputation, so a
    ``RuntimeWarning`` (and a telemetry warning plus the
    ``store.torn_lines`` counter) names the file and the count.
    """
    spec: dict[str, Any] | None = None
    shards: dict[tuple[int, int], ShardReport] = {}
    torn = 0
    for record in _records(path):
        if record.repeat:
            continue
        if record.kind == "job":
            spec = record.value
        elif record.kind == "shard":
            shards[record.value.shard] = record.value
        elif record.kind == "torn":
            torn += 1
    if torn:
        message = (
            f"run store {path} contains {torn} undecodable line(s) "
            "(interrupted write or corruption); the affected shards "
            "will re-execute"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        telemetry.warn(message, file=str(path), lines=torn)
        telemetry.count("store.torn_lines", torn)
    return spec, shards


@dataclass(frozen=True)
class StoredRun:
    """One stored sweep: its identity, spec, and completed shards.

    Yielded by :meth:`RunStore.iter_runs`; the query layer merges
    ``shards`` into a canonical report without re-executing anything.
    """

    sweep_key: str
    library: str
    format: int
    spec: dict[str, Any]
    shards: dict[tuple[int, int], ShardReport] = field(default_factory=dict)

    @property
    def algorithm(self) -> str:
        return self.spec["algorithm"]["name"]

    @property
    def graph_family(self) -> str:
        return self.spec["graph"]["family"]

    @property
    def engine(self) -> str:
        return self.spec.get("engine", "reactive")

    @property
    def label_space(self) -> int:
        return self.spec["algorithm"]["label_space"]


@dataclass
class CompactionStats:
    """What :meth:`RunStore.compact` scanned and repaired."""

    files: int = 0
    rewritten: int = 0
    torn_lines: int = 0
    duplicate_headers: int = 0
    duplicate_shards: int = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


def _claim(path: Path) -> tuple[int, bool]:
    """Open a sweep file for appending, creating it if absent.

    Returns the descriptor and whether this call created the file (and
    so owes it the header).  ``O_EXCL`` makes exactly one of several
    racing appenders the creator.
    """
    while True:
        try:
            flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL
            return os.open(path, flags, 0o644), True
        except FileExistsError:
            try:
                return os.open(path, os.O_WRONLY | os.O_APPEND), False
            except FileNotFoundError:
                # The file vanished between the two opens (a racing
                # clear()); take another lap and claim the header.
                continue


class RunStore:
    """A directory of append-only JSONL shard records, keyed by spec hash."""

    def __init__(self, root: str | os.PathLike[str] = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(root={str(self.root)!r})"

    # ------------------------------------------------------------------

    def path_for(self, spec: JobSpec) -> Path:
        """The JSONL file holding the given spec's sweep.

        The library version and record-format version are part of the
        filename: a spec hash cannot see code edits, so results computed
        by different versions must not share a file.  Filename isolation
        keeps concurrent checkouts of different versions from evicting
        each other's caches (an in-file version check would make each
        delete the other's work on every read) and from appending
        mixed-format records to one file.
        """
        return (
            self.root
            / "runs"
            / f"{spec.sweep_key()}-v{_library_version()}-f{_FORMAT_VERSION}.jsonl"
        )

    def load(
        self, spec: JobSpec, telemetry: Telemetry = NULL_TELEMETRY
    ) -> dict[tuple[int, int], ShardReport]:
        """All completed shards of the spec's sweep, keyed by shard bounds.

        The first record of each bounds wins, as everywhere (:func:`_read`).
        """
        path = self.path_for(spec)
        if not path.exists():
            return {}
        return _read(path, telemetry)[1]

    def append(self, spec: JobSpec, report: ShardReport) -> None:
        """Persist one completed shard (writing the header on first use).

        Each record goes out as one ``O_APPEND`` write, which POSIX makes
        atomic with respect to other appenders, so two sweeps of the same
        spec running at once cannot tear each other's lines.  The header
        is claimed with ``O_EXCL``: exactly one appender creates the file
        and that one writes the ``job`` header, so concurrent first
        appends cannot duplicate it (a ``path.exists()`` check would let
        both racers see "no file yet" and both write headers).  Appends to
        an existing file -- all but a sweep's first -- make one ``open``
        and no ``mkdir``.
        """
        path = self.path_for(spec)
        created = False
        try:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, created = _claim(path)
        lines = []
        if created:
            lines.append(
                {
                    "kind": "job",
                    "version": _FORMAT_VERSION,
                    "library": _library_version(),
                    "spec": spec.sweep_spec().to_dict(),
                }
            )
        lines.append({"kind": "shard", "report": report.to_dict()})
        payload = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)

    # ------------------------------------------------------------------

    def iter_runs(self) -> Iterator[StoredRun]:
        """Every stored sweep, sorted by filename.

        Filtering is the query layer's job
        (:func:`repro.runtime.store.query.query_runs`).  Files without a
        parseable ``job`` header are skipped: the spec cannot be
        recovered from shard records alone.  ``compact`` never produces
        such a file, so in practice this only drops a sweep whose very
        first append was interrupted before the header line landed.
        Each file is read as :meth:`load` reads it: the first record of
        each bounds wins, and torn lines are skipped with a warning.
        """
        runs = self.root / "runs"
        if not runs.exists():
            return
        for path in sorted(runs.glob("*.jsonl")):
            match = _STEM.match(path.stem)
            if match is None:
                continue
            spec, shards = _read(path)
            if spec is None:
                continue
            yield StoredRun(
                sweep_key=match["key"],
                library=match["library"],
                format=int(match["format"]),
                spec=spec,
                shards=shards,
            )

    def compact(self) -> CompactionStats:
        """Fold torn lines and duplicate records out of damaged files.

        Each sweep file is rewritten -- atomically, via a temp file and
        ``os.replace`` -- only when damage is found: the first ``job``
        header survives, later headers are dropped, the first record for
        each shard bounds survives, later duplicates are dropped, and
        undecodable lines disappear.  Kept lines are carried over
        byte-for-byte (never re-serialized), so compaction of a healthy
        file is a no-op; and since :meth:`load` also keeps the first
        record of each bounds (all three readers share :func:`_records`),
        a compacted file loads to exactly the shards it loaded before,
        timing included.
        """
        stats = CompactionStats()
        runs = self.root / "runs"
        if not runs.exists():
            return stats
        for path in sorted(runs.glob("*.jsonl")):
            stats.files += 1
            kept: list[str] = []
            damaged = False
            for record in _records(path):
                if record.kind == "torn":
                    stats.torn_lines += 1
                elif record.repeat and record.kind == "job":
                    stats.duplicate_headers += 1
                elif record.repeat:
                    stats.duplicate_shards += 1
                if record.repeat or record.kind in ("torn", "blank"):
                    damaged = True
                    continue
                raw = record.raw
                if not raw.endswith("\n"):
                    # A final line missing its newline decodes fine but
                    # would tear the next appended record; restore it.
                    raw += "\n"
                    damaged = True
                kept.append(raw)
            if not damaged:
                continue
            stats.rewritten += 1
            tmp = path.with_name(path.name + ".compact")
            with tmp.open("w", encoding="utf-8") as handle:
                handle.writelines(kept)
            os.replace(tmp, path)
        return stats

    def clear(self) -> int:
        """Delete every stored run; returns the number of files removed.

        Every regular file directly under ``runs/`` goes, not just the
        ``*.jsonl`` sweep files: a ``warehouse.sqlite*`` left by an older
        version or a ``*.jsonl.compact`` temp file stranded by a crashed
        :meth:`compact` would otherwise outlive the eviction.
        """
        runs = self.root / "runs"
        if not runs.exists():
            return 0
        removed = 0
        for path in sorted(runs.iterdir()):
            if path.is_file():
                path.unlink()
                removed += 1
        return removed
