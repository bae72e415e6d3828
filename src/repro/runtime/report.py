"""Shard results and their deterministic merge.

Workers return :class:`ShardReport` -- the per-shard extremes as compact
summaries (configuration + measured time/cost + the configuration's global
index), not full traces.  :func:`merge_reports` max-reduces shards into a
:class:`MergedReport`; ties on the measured value are broken by the lowest
global index, which is exactly the record a serial left-to-right
enumeration with strict ``>`` updates would keep.  Parallel and serial
runs therefore produce byte-identical merged reports (compare their
canonical JSON), no matter how the space was sharded or in which order
shards completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.sim.adversary import Configuration


@dataclass(frozen=True)
class ConfigRef:
    """A configuration plus its global index in the sweep's enumeration."""

    index: int
    labels: tuple[int, int]
    starts: tuple[int, int]
    delay: int

    @property
    def config(self) -> Configuration:
        return Configuration(labels=self.labels, starts=self.starts, delay=self.delay)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "labels": list(self.labels),
            "starts": list(self.starts),
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ConfigRef":
        return cls(
            index=payload["index"],
            labels=tuple(payload["labels"]),
            starts=tuple(payload["starts"]),
            delay=payload["delay"],
        )


@dataclass(frozen=True)
class ExtremeSummary(ConfigRef):
    """A configuration together with the time and cost it produced."""

    time: int
    cost: int

    def to_dict(self) -> dict[str, Any]:
        payload = super().to_dict()
        payload.update(time=self.time, cost=self.cost)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExtremeSummary":
        return cls(
            index=payload["index"],
            labels=tuple(payload["labels"]),
            starts=tuple(payload["starts"]),
            delay=payload["delay"],
            time=payload["time"],
            cost=payload["cost"],
        )


def _better(
    incumbent: ExtremeSummary | None, challenger: ExtremeSummary | None, metric: str
) -> ExtremeSummary | None:
    """Max-reduce step with the serial tie-break (lower index wins ties)."""
    if challenger is None:
        return incumbent
    if incumbent is None:
        return challenger
    a, b = getattr(incumbent, metric), getattr(challenger, metric)
    if b > a or (b == a and challenger.index < incumbent.index):
        return challenger
    return incumbent


@dataclass(frozen=True)
class ShardTiming:
    """How long one shard took, and where the time went.

    The telemetry channel out of worker processes: workers cannot share a
    :class:`~repro.obs.telemetry.Telemetry` with the coordinator, so their
    measurements ride back on the :class:`ShardReport` and the runner
    re-emits them as ``shard.complete`` events.  Never part of equality
    or canonical payloads -- timing is observability data, not a result.

    ``path`` is the route the shard actually took: ``"whole_cube"`` (one
    cube-slice tensor pass) or ``"stream"`` (configuration by
    configuration, or in vectorized chunks); ``prune`` is the cube
    table's resolved pruning flag, ``None`` where pruning does not apply.
    Records written before these fields existed load as ``"stream"`` and
    ``None``, which is what those shards ran.
    """

    seconds: float
    table_seconds: float = 0.0
    engine: str = "reactive"
    chunks: int = 0
    path: str = "stream"
    prune: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seconds": self.seconds,
            "table_seconds": self.table_seconds,
            "engine": self.engine,
            "chunks": self.chunks,
            "path": self.path,
            "prune": self.prune,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ShardTiming":
        return cls(
            seconds=payload["seconds"],
            table_seconds=payload.get("table_seconds", 0.0),
            engine=payload.get("engine", "reactive"),
            chunks=payload.get("chunks", 0),
            path=payload.get("path", "stream"),
            prune=payload.get("prune"),
        )


@dataclass(frozen=True)
class ShardReport:
    """Result of running one configuration shard ``[lo, hi)``.

    ``timing`` is non-canonical (``compare=False``): two reports of the
    same shard are equal whatever their wall-clock story, and cached
    reports loaded from the store merge identically to fresh ones.
    """

    shard: tuple[int, int]
    executions: int
    worst_time: ExtremeSummary | None
    worst_cost: ExtremeSummary | None
    failures: tuple[ConfigRef, ...] = ()
    timing: ShardTiming | None = field(default=None, compare=False)

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "shard": list(self.shard),
            "executions": self.executions,
            "worst_time": None if self.worst_time is None else self.worst_time.to_dict(),
            "worst_cost": None if self.worst_cost is None else self.worst_cost.to_dict(),
            "failures": [failure.to_dict() for failure in self.failures],
        }
        if self.timing is not None:
            payload["timing"] = self.timing.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ShardReport":
        worst_time = payload.get("worst_time")
        worst_cost = payload.get("worst_cost")
        timing = payload.get("timing")
        return cls(
            shard=(payload["shard"][0], payload["shard"][1]),
            executions=payload["executions"],
            worst_time=None if worst_time is None else ExtremeSummary.from_dict(worst_time),
            worst_cost=None if worst_cost is None else ExtremeSummary.from_dict(worst_cost),
            failures=tuple(
                ConfigRef.from_dict(failure) for failure in payload.get("failures", ())
            ),
            timing=None if timing is None else ShardTiming.from_dict(timing),
        )


@dataclass(frozen=True)
class MergedReport:
    """Max-reduce of a sweep's shard reports.

    The summary counterpart of :class:`repro.sim.adversary.WorstCaseReport`:
    same extremes and failure set, but carrying configuration summaries
    (with global indices) instead of full execution traces, plus the
    number of shards that contributed.
    """

    executions: int
    shards: int
    worst_time: ExtremeSummary | None
    worst_cost: ExtremeSummary | None
    failures: tuple[ConfigRef, ...] = ()

    @property
    def max_time(self) -> int:
        if self.worst_time is None:
            raise ValueError("no successful execution recorded")
        return self.worst_time.time

    @property
    def max_cost(self) -> int:
        if self.worst_cost is None:
            raise ValueError("no successful execution recorded")
        return self.worst_cost.cost

    def to_dict(self) -> dict[str, Any]:
        return {
            "executions": self.executions,
            "shards": self.shards,
            "worst_time": None if self.worst_time is None else self.worst_time.to_dict(),
            "worst_cost": None if self.worst_cost is None else self.worst_cost.to_dict(),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MergedReport":
        worst_time = payload.get("worst_time")
        worst_cost = payload.get("worst_cost")
        return cls(
            executions=payload["executions"],
            shards=payload["shards"],
            worst_time=None if worst_time is None else ExtremeSummary.from_dict(worst_time),
            worst_cost=None if worst_cost is None else ExtremeSummary.from_dict(worst_cost),
            failures=tuple(
                ConfigRef.from_dict(failure) for failure in payload.get("failures", ())
            ),
        )


def merge_reports(reports: Iterable[ShardReport]) -> MergedReport:
    """Deterministically combine shard reports, whatever their arrival order.

    Shards are first sorted by their lower bound (shards of one sweep never
    overlap), so failures concatenate in global-index order and the reduce
    visits candidates exactly as the serial loop would.
    """
    ordered: Sequence[ShardReport] = sorted(reports, key=lambda r: r.shard)
    worst_time: ExtremeSummary | None = None
    worst_cost: ExtremeSummary | None = None
    failures: list[ConfigRef] = []
    executions = 0
    for report in ordered:
        worst_time = _better(worst_time, report.worst_time, "time")
        worst_cost = _better(worst_cost, report.worst_cost, "cost")
        failures.extend(report.failures)
        executions += report.executions
    return MergedReport(
        executions=executions,
        shards=len(ordered),
        worst_time=worst_time,
        worst_cost=worst_cost,
        failures=tuple(failures),
    )
