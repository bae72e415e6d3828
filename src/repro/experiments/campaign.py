"""The campaign runner: execute registered experiments through the API.

A :class:`Campaign` takes any subset of the registered experiments and
runs each one's Scenario grid through :meth:`repro.api.Scenario.run` --
one shared executor for the whole campaign, so a ``--workers N`` process
pool is paid for once -- plus its extra measurements, producing one
canonical :class:`~repro.experiments.base.ExperimentReport` per
experiment.  Reports carry no run provenance, so a campaign's JSON is
byte-identical across engines, worker counts and cache states; the
per-experiment files written by :meth:`CampaignResult.write_reports` are
what :mod:`tools.render_experiments` regenerates the EXPERIMENTS.md
verdict table from.
"""

from __future__ import annotations

# repro: allow-file(REP001) -- campaign timing feeds only the `timing`
# sections that canonical_dict()/strip_timing remove; the byte-identity
# CI gate compares reports with them stripped, proving they stay inert.

import os
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.api import canonical_json, resolve_store
from repro.experiments.base import Experiment, ExperimentContext, ExperimentReport
from repro.obs.events import strip_timing
from repro.obs.telemetry import resolve_telemetry
from repro.registry import EXPERIMENTS
from repro.runtime.executor import Executor, make_executor
from repro.runtime.spec import thaw_value
from repro.runtime.store import DEFAULT_CACHE_DIR, RunStore

#: Where ``python -m repro experiments run`` drops per-experiment reports.
DEFAULT_REPORT_DIR = os.path.join(DEFAULT_CACHE_DIR, "experiments")

#: The verdict recorded when one or more checks fail.
FAILED_VERDICT = "FAILED"


def resolve_experiment(ref: "str | Experiment") -> Experiment:
    """The :class:`Experiment` for an id (or a pass-through instance).

    Unknown ids raise :class:`repro.registry.SpecError` naming the
    experiment registry and the registered choices.
    """
    if isinstance(ref, Experiment):
        return ref
    return EXPERIMENTS.get(ref)


def all_experiments() -> list[Experiment]:
    """Every registered experiment, in campaign (registration ``order``)."""
    entries = EXPERIMENTS.entries()
    return [
        entry.target
        for entry in sorted(
            entries, key=lambda e: (e.metadata.get("order", 1_000), e.name)
        )
    ]


def run_experiment(
    experiment: "str | Experiment",
    *,
    quick: bool = False,
    engine: str = "auto",
    workers: int | None = None,
    cache: "bool | str | RunStore | None" = None,
    shard_count: int | None = None,
    executor: Executor | None = None,
    telemetry: Any = None,
) -> ExperimentReport:
    """Execute one experiment and return its canonical verdict report.

    Grid units run through :meth:`repro.api.Scenario.run` with the given
    engine/worker/cache routing (an explicit ``executor`` overrides the
    executor axis and stays open -- how :class:`Campaign` shares one pool
    across experiments); the extra measurements always run in-process.

    The report carries a non-canonical ``timing`` section (total seconds,
    per-unit seconds, measurement seconds), always measured -- telemetry
    merely adds the event narration (an ``experiment`` span wrapping the
    per-unit instrumentation).  The canonical report content is identical
    whatever the telemetry setting.
    """
    experiment = resolve_experiment(experiment)
    tele = resolve_telemetry(telemetry)
    units: list[dict[str, Any]] = []
    unit_timings: list[dict[str, Any]] = []
    started = time.perf_counter()
    with tele.span("experiment", id=experiment.id, exp_id=experiment.exp_id):
        for key, scenario in experiment.scenarios(quick):
            unit_started = time.perf_counter()
            run = scenario.run(
                engine=engine,
                workers=workers,
                cache=cache,
                shard_count=shard_count,
                executor=executor,
                telemetry=tele,
            )
            units.append({"key": key, **run.to_dict()})
            unit_timings.append(
                {
                    "key": key,
                    "seconds": round(time.perf_counter() - unit_started, 6),
                }
            )
        measure_started = time.perf_counter()
        # Thaw before assessment so checks and renderers always see the same
        # JSON-shaped data a report loaded back from disk would carry.
        context = ExperimentContext(
            quick=quick,
            units=tuple(units),
            measurements=thaw_value(dict(experiment.measure(quick))),
        )
        measure_seconds = time.perf_counter() - measure_started
        checks = tuple(experiment.assess(context))
    passed = all(item.passed for item in checks)
    return ExperimentReport(
        experiment=experiment.id,
        exp_id=experiment.exp_id,
        claim=experiment.claim,
        source=experiment.source,
        profile="quick" if quick else "full",
        units=context.units,
        measurements=context.measurements,
        checks=checks,
        verdict=experiment.verdict_text if passed else FAILED_VERDICT,
        timing={
            "seconds": round(time.perf_counter() - started, 6),
            "units": unit_timings,
            "measure_seconds": round(measure_seconds, 6),
        },
    )


def render_report(report: ExperimentReport) -> list[str]:
    """Human-readable lines for a report: tables, checks and the verdict.

    The experiment's own renderer (resolved by id, so loaded JSON reports
    render identically to freshly-run ones) produces the
    measured-vs-paper tables; the check list and verdict line are
    appended uniformly.
    """
    entry = EXPERIMENTS.lookup(report.experiment)
    lines: list[str] = []
    if entry is not None and entry.target.render is not None:
        lines.extend(entry.target.render(report))
    for item in report.checks:
        status = "ok  " if item.passed else "FAIL"
        detail = f"  ({item.detail})" if item.detail else ""
        lines.append(f"  [{status}] {item.name}{detail}")
    lines.append(
        f"{report.exp_id} [{report.profile}] verdict: {report.verdict}"
    )
    return lines


@dataclass(frozen=True)
class CampaignResult:
    """The reports of one campaign run, in campaign order.

    ``timing`` (and every report's own ``timing``) is non-canonical:
    :meth:`canonical_dict`/:meth:`canonical_json` strip them, and those
    are what byte-identity comparisons (serial vs. parallel, telemetry on
    vs. off) must use -- ``python -m repro telemetry strip`` does the
    same for files on disk.
    """

    profile: str
    reports: tuple[ExperimentReport, ...]
    timing: "dict[str, Any] | None" = field(default=None, compare=False)

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.reports)

    def report(self, experiment_id: str) -> ExperimentReport:
        for item in self.reports:
            if item.experiment == experiment_id:
                return item
        raise KeyError(
            f"no report for {experiment_id!r}; have "
            f"{[item.experiment for item in self.reports]}"
        )

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "profile": self.profile,
            "reports": [report.to_dict() for report in self.reports],
            "passed": self.passed,
        }
        if self.timing is not None:
            payload["timing"] = self.timing
        return payload

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def canonical_dict(self) -> dict[str, Any]:
        """The campaign content minus every ``timing`` section."""
        return strip_timing(self.to_dict())

    def canonical_json(self) -> str:
        return canonical_json(self.canonical_dict())

    def timing_table(self) -> list[str]:
        """Human-readable per-experiment timing lines (empty when unknown)."""
        if self.timing is None:
            return []
        rows = self.timing.get("experiments", [])
        if not rows:
            return []
        width = max(len(row["experiment"]) for row in rows)
        lines = [
            f"  {row['experiment']:<{width}}  {row['seconds']:>9.3f}s"
            for row in rows
        ]
        lines.append(f"  {'total':<{width}}  {self.timing['seconds']:>9.3f}s")
        return lines

    def write_reports(self, directory: str = DEFAULT_REPORT_DIR) -> list[str]:
        """Write one ``<experiment-id>.json`` per report; returns paths.

        Reports for experiments that are no longer registered (renamed or
        deleted ids) are purged from the managed directory -- they could
        never be refreshed and would otherwise leak stale verdicts into
        ``load_reports`` and the generated EXPERIMENTS.md table.  Reports
        of *registered* experiments outside this campaign's subset are
        left alone, so incremental subset runs compose.
        """
        os.makedirs(directory, exist_ok=True)
        registered = {experiment.id for experiment in all_experiments()}
        for name in sorted(os.listdir(directory)):
            stem, ext = os.path.splitext(name)
            if ext == ".json" and stem not in registered:
                os.remove(os.path.join(directory, name))
        paths = []
        for report in self.reports:
            path = os.path.join(directory, f"{report.experiment}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
            paths.append(path)
        return paths


def load_reports(directory: str = DEFAULT_REPORT_DIR) -> list[ExperimentReport]:
    """Load every ``*.json`` report under ``directory``, campaign-ordered.

    Reports for experiments no longer registered sort after the known
    ones (by id), so stale directories still load.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(
            f"no report directory {directory!r}; run "
            "`python -m repro experiments run` first"
        )
    order = {exp.id: index for index, exp in enumerate(all_experiments())}
    reports = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            reports.append(ExperimentReport.from_json(handle.read()))
    reports.sort(key=lambda r: (order.get(r.experiment, len(order)), r.experiment))
    return reports


@dataclass(frozen=True)
class Campaign:
    """A subset of the registered experiments plus how to execute them.

    ``experiments=None`` means *all of them*, in campaign order.  The
    engine/worker/cache knobs mirror :meth:`repro.api.Scenario.run`; a
    worker count creates ONE executor shared by every grid unit of every
    experiment, so the pool is spun up once per campaign.  ``telemetry``
    (``None``, a :class:`~repro.obs.telemetry.Telemetry`, or a bare sink)
    narrates the whole campaign under one ``campaign`` root span with
    per-experiment progress; the result's canonical content is identical
    with or without it.
    """

    experiments: Sequence["str | Experiment"] | None = None
    quick: bool = False
    engine: str = "auto"
    workers: int | None = None
    cache: "bool | str | RunStore | None" = None
    shard_count: int | None = None
    telemetry: Any = None

    def resolved(self) -> list[Experiment]:
        if self.experiments is None:
            return all_experiments()
        return [resolve_experiment(ref) for ref in self.experiments]

    def run(self) -> CampaignResult:
        experiments = self.resolved()
        tele = resolve_telemetry(self.telemetry)
        # Resolve the store once so every experiment shares one cache
        # handle, mirroring the shared executor.
        store = resolve_store(self.cache)
        executor = (
            make_executor(self.workers) if self.workers is not None else None
        )
        started = time.perf_counter()
        rows: list[dict[str, Any]] = []
        try:
            reports = []
            with tele.span("campaign", experiments=len(experiments)):
                for position, experiment in enumerate(experiments):
                    report = run_experiment(
                        experiment,
                        quick=self.quick,
                        engine=self.engine,
                        cache=store,
                        shard_count=self.shard_count,
                        executor=executor,
                        telemetry=tele,
                    )
                    reports.append(report)
                    rows.append(
                        {
                            "experiment": report.experiment,
                            "seconds": (
                                report.timing["seconds"]
                                if report.timing is not None
                                else 0.0
                            ),
                        }
                    )
                    tele.count("experiments.completed")
                    tele.progress("experiments", position + 1, len(experiments))
        finally:
            if executor is not None:
                executor.close()
        return CampaignResult(
            profile="quick" if self.quick else "full",
            reports=tuple(reports),
            timing={
                "seconds": round(time.perf_counter() - started, 6),
                "experiments": rows,
            },
        )


__all__ = [
    "Campaign",
    "CampaignResult",
    "DEFAULT_REPORT_DIR",
    "FAILED_VERDICT",
    "all_experiments",
    "load_reports",
    "render_report",
    "resolve_experiment",
    "run_experiment",
]
