"""Experiment bundles: the paper's experiments as declarative, registered data.

An :class:`Experiment` packages everything one row of DESIGN.md's
experiment index needs, as data resolvable by id through
:data:`repro.registry.EXPERIMENTS` -- exactly like graph families and
algorithms:

* the **Scenario grid** it sweeps (a function of the ``quick`` profile,
  so CI runs a shrunk grid through the very same definitions);
* the **extra measurements** that are not adversary sweeps (lower-bound
  certificates, baseline simulations, memory accounting);
* the **paper-bound assertions** -- closed-form inequalities or
  certificate facts -- that turn measurements into a verdict;
* the **renderer** producing the human-readable measured-vs-paper tables.

The campaign runner (:mod:`repro.experiments.campaign`) executes the grid
through :meth:`repro.api.Scenario.run`, so every experiment transparently
inherits engine auto-selection (cube / compiled / reactive), sharded
parallel workers and ``.repro_cache/`` resumability.  The resulting
:class:`ExperimentReport` is canonical JSON -- byte-identical across
engines, worker counts and cache states -- carrying the claim, the
measured numbers, the argmax configurations and the pass/fail checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.api import Scenario, canonical_json
from repro.obs.events import strip_timing
from repro.runtime.spec import thaw_value

#: The two grid profiles an experiment can run under.
PROFILES = ("full", "quick")


@dataclass(frozen=True)
class Check:
    """One paper-bound assertion, evaluated against the measurements.

    ``detail`` carries the measured numbers behind the boolean (bound
    margins, argmax values), so a failing report explains itself.
    """

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Check":
        return cls(
            name=payload["name"],
            passed=bool(payload["passed"]),
            detail=payload.get("detail", ""),
        )


def check(name: str, passed: Any, detail: str = "") -> Check:
    """Ergonomic :class:`Check` constructor coercing truthiness."""
    return Check(name=name, passed=bool(passed), detail=detail)


@dataclass(frozen=True)
class ExperimentContext:
    """What an experiment's ``assess`` callback sees.

    Deliberately JSON-shaped: ``units`` are the per-scenario report dicts
    (``{"key", "scenario", "result"}``) and ``measurements`` the extra
    measured numbers -- the same data the report serializes -- so checks
    are a pure function of the canonical report content and cannot depend
    on engine, worker count or cache state.
    """

    quick: bool
    units: tuple[dict[str, Any], ...] = ()
    measurements: Mapping[str, Any] = field(default_factory=dict)

    def unit(self, key: str) -> dict[str, Any]:
        for unit in self.units:
            if unit["key"] == key:
                return unit
        raise KeyError(
            f"no unit {key!r}; available: {[u['key'] for u in self.units]}"
        )

    def result(self, key: str) -> dict[str, Any]:
        """The measured sweep result of one grid unit."""
        return self.unit(key)["result"]

    def results(self) -> list[tuple[str, dict[str, Any]]]:
        """All ``(key, result)`` pairs, in grid order."""
        return [(unit["key"], unit["result"]) for unit in self.units]


@dataclass(frozen=True)
class ExperimentReport:
    """The canonical verdict record of one executed experiment.

    Everything here is deterministic report content (claim, measured
    numbers, argmax configurations, bound checks, verdict) -- except
    ``timing``, an explicitly *non-canonical* wall-clock section
    (``compare=False``, excluded from :meth:`canonical_dict`): two
    reports of the same experiment are equal and canonically
    byte-identical however long they took, whoever produced them, with
    telemetry on or off.  Anything comparing report files byte for byte
    must strip ``timing`` first (:func:`repro.obs.strip_timing`, or
    ``python -m repro telemetry strip``).
    """

    experiment: str
    exp_id: str
    claim: str
    source: str
    profile: str
    units: tuple[dict[str, Any], ...]
    measurements: Mapping[str, Any]
    checks: tuple[Check, ...]
    verdict: str
    timing: Mapping[str, Any] | None = field(default=None, compare=False)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [item for item in self.checks if not item.passed]

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "experiment": self.experiment,
            "exp_id": self.exp_id,
            "claim": self.claim,
            "source": self.source,
            "profile": self.profile,
            "units": thaw_value(list(self.units)),
            "measurements": thaw_value(dict(self.measurements)),
            "checks": [item.to_dict() for item in self.checks],
            "verdict": self.verdict,
            "passed": self.passed,
        }
        if self.timing is not None:
            payload["timing"] = thaw_value(dict(self.timing))
        return payload

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def canonical_dict(self) -> dict[str, Any]:
        """The report content minus every non-canonical ``timing`` section.

        What the byte-identity invariant quantifies over: equal across
        engines, worker counts, cache states and telemetry settings.
        """
        return strip_timing(self.to_dict())

    def canonical_json(self) -> str:
        return canonical_json(self.canonical_dict())

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentReport":
        known = {
            "experiment", "exp_id", "claim", "source", "profile",
            "units", "measurements", "checks", "verdict", "passed", "timing",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown report fields: {sorted(unknown)}")
        report = cls(
            experiment=payload["experiment"],
            exp_id=payload["exp_id"],
            claim=payload["claim"],
            source=payload["source"],
            profile=payload["profile"],
            units=tuple(payload.get("units", ())),
            measurements=dict(payload.get("measurements", {})),
            checks=tuple(
                Check.from_dict(item) for item in payload.get("checks", ())
            ),
            verdict=payload["verdict"],
            timing=payload.get("timing"),
        )
        if "passed" in payload and bool(payload["passed"]) != report.passed:
            raise ValueError(
                "report 'passed' flag contradicts its checks "
                f"({payload['passed']!r} vs {report.passed!r})"
            )
        return report

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))


def _no_scenarios(quick: bool) -> Sequence[tuple[str, Scenario]]:
    return ()


def _no_measurements(quick: bool) -> Mapping[str, Any]:
    return {}


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: grids, assertions and renderer as data.

    ``scenarios(quick)`` yields ``(key, Scenario)`` grid units executed
    through :meth:`repro.api.Scenario.run`; ``measure(quick)`` computes
    the non-sweep measurements (must be deterministic and JSON-able);
    ``assess(context)`` turns both into :class:`Check`\\ s; ``render``
    (optional) turns a finished report into the measured-vs-paper tables.
    ``verdict_text`` is the one-line verdict recorded in EXPERIMENTS.md
    when every check passes.
    """

    id: str
    exp_id: str
    title: str
    claim: str
    source: str
    verdict_text: str
    assess: Callable[[ExperimentContext], Sequence[Check]]
    scenarios: Callable[[bool], Sequence[tuple[str, Scenario]]] = _no_scenarios
    measure: Callable[[bool], Mapping[str, Any]] = _no_measurements
    render: Callable[[ExperimentReport], Sequence[str]] | None = None

    def __post_init__(self) -> None:
        # Registry re-registration (a provider module re-executing after a
        # failed first import) recognises "the same definition" through
        # __module__/__qualname__; give value-registered instances a
        # stable identity derived from the experiment id.
        object.__setattr__(self, "__qualname__", f"Experiment[{self.id}]")


__all__ = [
    "Check",
    "Experiment",
    "ExperimentContext",
    "ExperimentReport",
    "PROFILES",
    "check",
]
