"""The benchmark's workloads: inputs from a seed, timed operations, checks.

Each workload builds its inputs in :meth:`setup` (counted in ``setup_s``),
runs its operations in :meth:`run` on a :class:`reference.RefClock`
(counted in ``wall_s`` and ``wall_ref``; nothing else is timed), fingerprints its outputs in :meth:`digests` and verifies every
output in :meth:`check`.
An *operation* is one scenario, experiment or query call; ``check``
returns the operations that failed.  Every call goes through the program's public API with the
worker count pinned, so no run depends on the machine's core count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
import time
from typing import Any

_clock = time.perf_counter

#: The seed whose canonical reports are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: ``store_roundtrip`` sweeps between two laps of the clock.
STORE_LAP = 50


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def delay_grid(seed: int, family: str, num_edges: int, count: int = 7) -> tuple[int, ...]:
    """0 plus ``count`` distinct delays in ``1..2E``, drawn from the seed."""
    rng = random.Random(f"{seed}:{family}")
    return (0, *sorted(rng.sample(range(1, 2 * num_edges + 1), count)))


def witness_problems(scenario, row: dict[str, Any]) -> list[str]:
    """Re-simulate a row's worst-time and worst-cost configurations.

    The reactive simulator must reproduce the row's maximum time at the
    worst-time witness and its maximum cost at the worst-cost witness.
    """
    problems = []
    graph = scenario.build_graph()
    algorithm = scenario.build_algorithm(graph)
    for key, field, expected in (
        ("worst_time_config", "time", row["max_time"]),
        ("worst_cost_config", "cost", row["max_cost"]),
    ):
        config = row[key]
        result = scenario.simulate(
            tuple(config["labels"]),
            tuple(config["starts"]),
            config["delay"],
            graph=graph,
            algorithm=algorithm,
        )
        if not result.met or getattr(result, field) != expected:
            problems.append(
                f"{scenario.label}: {key} {config} re-simulates to "
                f"{field}={getattr(result, field)} (met={result.met}), "
                f"row says {expected}"
            )
    return problems


@dataclasses.dataclass
class Outcome:
    """What one repetition's timed operations produced."""

    wall_s: float
    configs: int
    results: Any
    phases: dict[str, float] = dataclasses.field(default_factory=dict)


class DenseSweep:
    """``Scenario.run`` over every start pair of a ring and a torus.

    {fast, cheap} x {ring, torus}, L=6, all start pairs, a seeded 8-delay
    grid.
    Nearly all time is the per-configuration engine path; the ring is
    declared cyclic (pruning applies), the torus is not.
    """

    name = "dense_sweep"
    seeded = True
    workers = 1
    algorithms = ("fast", "cheap")

    def __init__(self, seed: int, small: bool, workdir: str):
        self.seed = seed
        self.label_space = 4 if small else 6
        self.graphs = (
            (("ring", {"n": 6}), ("torus", {"rows": 3, "cols": 3}))
            if small
            else (("ring", {"n": 16}), ("torus", {"rows": 4, "cols": 4}))
        )

    def setup(self) -> None:
        from repro.api import Scenario

        self.scenarios = []
        for algorithm in self.algorithms:
            for family, params in self.graphs:
                scenario = Scenario(
                    graph=family,
                    graph_params=params,
                    algorithm=algorithm,
                    label_space=self.label_space,
                    fix_first_start=False,
                )
                edges = scenario.build_graph().num_edges
                self.scenarios.append(
                    scenario.with_overrides(delays=delay_grid(self.seed, family, edges))
                )
        self.operations = len(self.scenarios)

    def run(self, telemetry, clock) -> Outcome:
        runs = []
        clock.start()
        for index, scenario in enumerate(self.scenarios):
            if index:
                clock.lap()
            runs.append(
                scenario.run(workers=self.workers, cache=False, telemetry=telemetry)
            )
        clock.stop()
        return Outcome(
            wall_s=clock.wall_s,
            configs=sum(run.row.executions for run in runs),
            results=runs,
        )

    def digests(self, outcome: Outcome) -> dict[str, str]:
        return {run.scenario.label: sha256(run.to_json()) for run in outcome.results}

    def check(self, outcome: Outcome) -> dict[str, list[str]]:
        return {
            run.scenario.label: witness_problems(run.scenario, run.row.to_dict())
            for run in outcome.results
        }


class DenseSweepPool(DenseSweep):
    """The two ring scenarios of ``dense_sweep`` on a two-process pool."""

    name = "dense_sweep_pool"
    workers = 2

    def setup(self) -> None:
        super().setup()
        self.scenarios = [s for s in self.scenarios if s.graph == "ring"]
        self.operations = len(self.scenarios)


class CampaignFull:
    """``Campaign(quick=False)`` over every registered experiment.

    Per-call and per-shard overhead plus the experiments' measure phases;
    little engine scan.  The seed does not apply.
    """

    name = "campaign_full"
    seeded = False

    def __init__(self, seed: int, small: bool, workdir: str):
        self.quick = small

    def setup(self) -> None:
        from repro.experiments import Campaign
        from repro.experiments.campaign import all_experiments

        self.experiments = all_experiments()
        self.campaign = Campaign(quick=self.quick, workers=1, cache=False)
        self.operations = len(self.experiments)

    def run(self, telemetry, clock) -> Outcome:
        from repro.experiments import campaign as module

        campaign = dataclasses.replace(self.campaign, telemetry=telemetry)
        run_experiment = module.run_experiment

        def lapped(*args, **kwargs):
            report = run_experiment(*args, **kwargs)
            clock.lap()
            return report

        module.run_experiment = lapped  # the clock laps after each experiment
        try:
            clock.start()
            result = campaign.run()
            clock.stop()
        finally:
            module.run_experiment = run_experiment
        return Outcome(
            wall_s=clock.wall_s,
            configs=sum(
                unit["result"]["executions"]
                for report in result.reports
                for unit in report.units
            ),
            results=result,
        )

    def digests(self, outcome: Outcome) -> dict[str, str]:
        return {
            report.experiment: sha256(report.canonical_json())
            for report in outcome.results.reports
        }

    def check(self, outcome: Outcome) -> dict[str, list[str]]:
        from repro.api import Scenario

        reports = {report.experiment: report for report in outcome.results.reports}
        problems: dict[str, list[str]] = {}
        for experiment in self.experiments:
            report = reports.get(experiment.id)
            if report is None:
                problems[experiment.id] = ["no report"]
                continue
            found = []
            if not report.passed or report.verdict != experiment.verdict_text:
                found.append(f"verdict {report.verdict!r}")
            for unit in report.units:
                scenario = Scenario.from_dict(unit["scenario"])
                found.extend(witness_problems(scenario, unit["result"]))
            problems[experiment.id] = found
        return problems


class StoreRoundtrip:
    """One-delay sweeps against a fresh run store: cold, cached, queried.

    Pass 1 executes and appends every shard; pass 2 is served entirely
    from the store; pass 3 is one ``query_payload`` over the whole store.
    """

    name = "store_roundtrip"
    seeded = True
    delay_range = 4000

    def __init__(self, seed: int, small: bool, workdir: str):
        self.seed = seed
        self.count = 20 if small else 400
        self.root = os.path.join(workdir, "store")

    def setup(self) -> None:
        from repro.api import Scenario, resolve_store

        rng = random.Random(f"{self.seed}:store")
        delays = rng.sample(range(self.delay_range), self.count)
        self.scenarios = [
            Scenario(
                graph="ring",
                graph_params={"n": 8},
                algorithm="fast",
                label_space=4,
                delays=(delay,),
            )
            for delay in delays
        ]
        shutil.rmtree(self.root, ignore_errors=True)
        self.store = resolve_store(True, cache_dir=self.root)
        self.operations = 2 * len(self.scenarios) + 1

    def run(self, telemetry, clock) -> Outcome:
        from repro.runtime.store.query import query_payload

        def one_pass() -> list:
            runs = []
            for index, scenario in enumerate(self.scenarios):
                if index and index % STORE_LAP == 0:
                    clock.lap()
                runs.append(scenario.run(workers=1, cache=self.store, telemetry=telemetry))
            clock.lap()
            return runs

        clock.start()
        cold = one_pass()
        resumed_at = _clock()
        cached = one_pass()
        queried_at = _clock()
        payload = query_payload(self.store)
        ended = _clock()
        clock.stop()
        return Outcome(
            wall_s=clock.wall_s,
            configs=sum(run.row.executions for run in cold),
            results=(cold, cached, payload),
            phases={
                "resume_s": queried_at - resumed_at,
                "query_s": ended - queried_at,
                "bytes": float(_tree_bytes(self.root)),
            },
        )

    def digests(self, outcome: Outcome) -> dict[str, str]:
        from repro.runtime.spec import canonical_json

        cold, cached, payload = outcome.results
        digests = {}
        for name, runs in (("cold", cold), ("cached", cached)):
            digest = hashlib.sha256()
            for run in runs:
                digest.update(run.to_json().encode("utf-8"))
            digests[name] = digest.hexdigest()
        digests["query"] = sha256(canonical_json(payload))
        return digests

    def check(self, outcome: Outcome) -> dict[str, list[str]]:
        """Both passes and the query must agree with an uncached run.

        Each pass's canonical report must equal the uncached run's byte
        for byte; each query answer must carry the same extremes and
        execution count (its bytes are pinned by the query digest).
        """
        cold, cached, payload = outcome.results
        answers = {
            entry["spec"]["delays"][0]: entry["result"]
            for entry in payload["result"]["runs"]
        }
        problems: dict[str, list[str]] = {"query": []}
        for index, scenario in enumerate(self.scenarios):
            reference = scenario.run(workers=1, cache=False)
            expected = reference.to_json()
            row = reference.row
            problems[f"sweep {index} cold"] = witness_problems(scenario, row.to_dict())
            if cold[index].to_json() != expected:
                problems[f"sweep {index} cold"].append("cold pass differs from the uncached run")
            problems[f"sweep {index} cached"] = (
                [] if cached[index].to_json() == expected
                else ["cached pass differs from the uncached run"]
            )
            if not cached[index].stats.fully_cached:
                problems[f"sweep {index} cached"].append("cached pass executed shards")
            answer = answers.pop(scenario.delays[0], None)
            if answer is None or _answer_extremes(answer) != _row_extremes(row):
                problems["query"].append(f"query answer for sweep {index} differs")
        if answers:
            problems["query"].append(f"{len(answers)} unexpected stored runs")
        return problems

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _config_key(labels, starts, delay) -> tuple:
    return (tuple(labels), tuple(starts), delay)


def _row_extremes(row) -> tuple:
    time_config, cost_config = row.worst_time_config, row.worst_cost_config
    return (
        row.executions,
        row.max_time,
        _config_key(time_config.labels, time_config.starts, time_config.delay),
        row.max_cost,
        _config_key(cost_config.labels, cost_config.starts, cost_config.delay),
    )


def _answer_extremes(answer: dict) -> tuple:
    worst_time, worst_cost = answer["worst_time"], answer["worst_cost"]
    return (
        answer["executions"],
        worst_time["time"],
        _config_key(worst_time["labels"], worst_time["starts"], worst_time["delay"]),
        worst_cost["cost"],
        _config_key(worst_cost["labels"], worst_cost["starts"], worst_cost["delay"]),
    )


def _tree_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


WORKLOADS = {
    cls.name: cls for cls in (DenseSweep, CampaignFull, StoreRoundtrip, DenseSweepPool)
}
