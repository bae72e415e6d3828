"""Shard results and their deterministic merge.

A worker returns a :class:`ShardReport` and :func:`merge_reports`
returns a :class:`MergedReport`; both are the adversary's one record,
:class:`~repro.sim.adversary.WorstCaseReport` -- the extreme verdicts
with their global indices, the execution count and the failures as
``(index, configuration)`` pairs, never traces -- plus their shard
bookkeeping.  The merge folds sorted shards through one
:class:`~repro.sim.adversary.Reduction`, so ties on the measured value
are broken by the lowest global index, which is exactly the record a
serial left-to-right enumeration with strict ``>`` updates would keep.
Parallel and serial runs therefore produce byte-identical merged
reports (compare their canonical JSON), no matter how the space was
sharded or in which order shards completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.sim.adversary import Reduction, WorstCaseReport


@dataclass(frozen=True)
class ShardTiming:
    """How long one shard took, and where the time went.

    The telemetry channel out of worker processes: workers cannot share a
    :class:`~repro.obs.telemetry.Telemetry` with the parent, so their
    measurements ride back on the :class:`ShardReport` and the runner
    re-emits them as ``shard.complete`` events.  Never part of equality
    or canonical payloads -- timing is observability data, not a result.

    ``path`` is the route the shard actually took: ``"whole_cube"`` (one
    cube-slice tensor pass) or ``"stream"`` (configuration by
    configuration).  Records written before ``path`` existed load as
    ``"stream"``, which is what those shards ran; keys this class no
    longer has (the retired ``chunks`` and ``prune``) are ignored.
    """

    seconds: float
    table_seconds: float = 0.0
    engine: str = "reactive"
    path: str = "stream"

    def to_dict(self) -> dict[str, Any]:
        return {
            "seconds": self.seconds,
            "table_seconds": self.table_seconds,
            "engine": self.engine,
            "path": self.path,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ShardTiming":
        return cls(
            seconds=payload["seconds"],
            table_seconds=payload.get("table_seconds", 0.0),
            engine=payload.get("engine", "reactive"),
            path=payload.get("path", "stream"),
        )


@dataclass(frozen=True)
class ShardReport(WorstCaseReport):
    """Result of running one configuration shard ``[lo, hi)``.

    ``timing`` is non-canonical (``compare=False``): two reports of the
    same shard are equal whatever their wall-clock story, and cached
    reports loaded from the store merge identically to fresh ones.
    """

    shard: tuple[int, int]
    timing: ShardTiming | None = field(default=None, compare=False)

    def to_dict(self) -> dict[str, Any]:
        payload = {"shard": list(self.shard), **super().to_dict()}
        if self.timing is not None:
            payload["timing"] = self.timing.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ShardReport":
        timing = payload.get("timing")
        return super().from_dict(
            payload,
            shard=tuple(payload["shard"]),
            timing=None if timing is None else ShardTiming.from_dict(timing),
        )


@dataclass(frozen=True)
class MergedReport(WorstCaseReport):
    """A sweep's shard reports folded into one record, plus their count."""

    shards: int

    def to_dict(self) -> dict[str, Any]:
        record = super().to_dict()
        return {"executions": record.pop("executions"), "shards": self.shards, **record}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MergedReport":
        return super().from_dict(payload, shards=payload["shards"])


def merge_reports(reports: Iterable[ShardReport]) -> MergedReport:
    """Deterministically combine shard reports, whatever their arrival order.

    Shards are first sorted by their bounds (shards of one sweep never
    overlap), so :meth:`~repro.sim.adversary.Reduction.absorb` sees them
    exactly as the serial loop would: failures concatenate in
    global-index order, and a tie keeps the earlier shard's, lower-index
    record.
    """
    ordered = sorted(reports, key=lambda report: report.shard)
    found = Reduction()
    for report in ordered:
        found.absorb(report)
    return found.report(MergedReport, shards=len(ordered))
