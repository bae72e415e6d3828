"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` -- simulate one rendezvous and print the outcome and traces;
* ``sweep`` -- adversarial worst-case sweep of a scenario (sharded over
  the runtime: ``--workers N`` fans shards out to a process pool;
  ``--engine`` picks the simulation engine, with the default ``auto``
  running schedule-driven algorithms on the whole-cube tensor engine
  when NumPy is installed and on the compiled trajectory engine
  otherwise; completed shards are cached in ``.repro_cache/`` unless
  ``--no-cache`` is given, so reruns and interrupted sweeps resume);
* ``engines`` -- print the engine ladder (reactive, compiled, cube)
  with each rung's requirements and availability in this environment,
  and what ``auto`` resolves to;
* ``query`` -- answer worst-case questions from stored runs without
  re-sweeping: filter the run store by algorithm, graph family, engine
  and label space, and print each matching sweep's merged extremes
  (canonical JSON with ``--json``);
* ``cache`` -- maintain the run store: ``clear`` deletes every stored
  run (reporting how many files went), ``compact`` folds torn lines
  and duplicate records out of damaged store files;
* ``certify`` -- run a lower-bound certificate (Theorem 3.1 or 3.2);
* ``explore`` -- print the exploration budgets ``E`` for the built-in
  graph families under each knowledge model;
* ``experiments`` -- list and run the registered experiment campaigns
  (EXP-01…12 plus the extensions) and render their verdict reports;
  ``run`` writes one canonical JSON report per experiment (default
  ``.repro_cache/experiments/``), which
  ``tools/render_experiments.py`` turns back into the EXPERIMENTS.md
  verdict table;
* ``telemetry`` -- inspect telemetry artifacts: ``summary FILE``
  renders a JSONL event stream (written by ``--telemetry FILE``) into
  per-phase / per-shard breakdowns (``--check`` validates the schema
  and exits non-zero on errors); ``strip [FILE]`` removes the
  non-canonical ``timing`` sections from a JSON report so files can be
  compared byte for byte (``--provenance`` additionally removes the
  ``runtime`` provenance block).

``run``, ``sweep`` and ``experiments run`` share one observability
flag set: ``-v/--verbose`` narrates messages on stderr, ``--progress``
draws a live progress line (rate and ETA) on stderr, and
``--telemetry FILE`` streams the full JSONL event log to a file.
Telemetry is strictly inert -- canonical reports are byte-identical
with or without any of these flags.

The CLI is a thin veneer over :mod:`repro.api`: flags assemble a
declarative :class:`~repro.api.Scenario`, the scenario runs, and the
result prints as an ASCII table -- or, with ``--json`` (available on
``run``, ``sweep``, ``tradeoff``, ``certify`` and ``experiments``), as
a canonical JSON report.  Within the sweep report the ``scenario`` and
``result`` blocks are the canonical part (byte-identical across
engines and worker counts); the ``runtime`` block is provenance
(cached-vs-executed shard counts) and legitimately varies between
reruns of the same sweep.  Experiment-campaign reports carry no
provenance at all, so their JSON is byte-identical whatever ran them.
Graph families and algorithms come straight from the registries, so a
family registered with ``from_size`` metadata is immediately usable
here.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, Sequence

from repro.analysis.tables import Table, format_ratio, print_lines
from repro.api import Scenario, canonical_json, resolve_store
from repro.experiments.campaign import (
    DEFAULT_REPORT_DIR,
    Campaign,
    all_experiments,
    load_reports,
    render_report,
)
from repro.lower_bounds import certify_theorem_31, certify_theorem_32
from repro.lower_bounds.trim import trimmed_from_algorithm
from repro.obs.events import (
    read_events,
    render_summary,
    strip_provenance,
    strip_timing,
    summarize,
    validate_events,
)
from repro.obs.sinks import JsonlSink, ProgressSink, combine
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.registry import ALGORITHMS, EXPERIMENTS, GRAPH_FAMILIES, SpecError
from repro.sim.adversary import ENGINES, resolve_substrate
from repro.runtime.store import (
    DEFAULT_CACHE_DIR,
    RunStore,
    query_payload,
    render_query_lines,
)


#: Default node budget when --size is not given.
DEFAULT_SIZE = 12


def resolved_size(args: argparse.Namespace) -> int:
    return args.size if args.size is not None else DEFAULT_SIZE


def _from_flags(build):
    """Run a constructor fed by CLI flags; ValueErrors are user errors."""
    try:
        return build()
    except ValueError as err:
        raise SystemExit(str(err)) from None


def scenario_from_args(
    args: argparse.Namespace, delays: Sequence[int] = (0,)
) -> Scenario:
    """Assemble the declarative scenario the flags describe.

    Everything in a flag-built scenario is user input, so validation
    failures exit with the message instead of a traceback.  The graph's
    parameters come from the family's ``from_size`` registry metadata at
    roughly ``--size`` nodes; an explicit ``--size`` on a fixed-size
    family (``sized=False`` metadata) is an error rather than silently
    ignored.
    """
    entry = _from_flags(lambda: GRAPH_FAMILIES.entry(args.graph))
    if args.size is not None and entry.metadata.get("sized", True) is False:
        raise SystemExit(
            f"graph family {args.graph!r} has a fixed size; --size is not supported"
        )
    from_size = entry.metadata.get("from_size")
    if from_size is None:
        raise SystemExit(f"graph family {args.graph!r} cannot be sized via --size")
    return _from_flags(lambda: Scenario(
        graph=args.graph,
        graph_params=from_size(resolved_size(args)),
        algorithm=args.algorithm,
        label_space=args.label_space,
        weight=args.weight,
        delays=tuple(delays),
    ))


@contextmanager
def cli_telemetry(args: argparse.Namespace) -> Iterator[Telemetry]:
    """The telemetry the shared observability flags describe.

    ``--telemetry FILE`` streams the JSONL event log to the file;
    ``--progress`` renders the live stderr progress line; ``--verbose``
    additionally routes ``message`` events (traces, timing narration) to
    stderr.  With none of the flags set this yields the no-op telemetry,
    so instrumented code paths cost nothing.  The telemetry is closed on
    exit (flushing the final counter snapshot and the progress newline).
    """
    sinks = []
    if getattr(args, "telemetry", None):
        sinks.append(JsonlSink(args.telemetry))
    if getattr(args, "progress", False) or getattr(args, "verbose", False):
        sinks.append(ProgressSink(
            progress=bool(getattr(args, "progress", False)),
            messages=bool(getattr(args, "verbose", False)),
        ))
    if not sinks:
        yield NULL_TELEMETRY
        return
    telemetry = Telemetry(combine(sinks))
    try:
        yield telemetry
    finally:
        telemetry.close()


def command_run(args: argparse.Namespace) -> int:
    scenario = scenario_from_args(args)
    graph = _from_flags(scenario.build_graph)
    algorithm = _from_flags(lambda: scenario.build_algorithm(graph))
    with cli_telemetry(args) as tele:
        with tele.span("run", algorithm=scenario.algorithm, graph=scenario.graph):
            result = _from_flags(lambda: scenario.simulate(
                labels=(args.labels[0], args.labels[1]),
                starts=(args.starts[0], args.starts[1]),
                delay=args.delay,
                graph=graph,
                algorithm=algorithm,
            ))
        # Trace narration rides the telemetry message channel: --verbose
        # lands it on stderr, --telemetry FILE records it as events.
        for trace in result.traces:
            tele.message(
                f"agent {trace.label}: start={trace.start_node} "
                f"wake={trace.wake_round} moves={trace.moves}"
            )
            tele.message(f"  positions: {trace.positions}")
    if args.json:
        payload = {
            "scenario": scenario.to_dict(),
            "execution": {
                "labels": list(args.labels),
                "starts": list(args.starts),
                "delay": args.delay,
            },
            "result": result.to_dict(),
        }
        if args.verbose:
            payload["traces"] = [
                {
                    "label": trace.label,
                    "start_node": trace.start_node,
                    "wake_round": trace.wake_round,
                    "moves": trace.moves,
                    "positions": list(trace.positions),
                }
                for trace in result.traces
            ]
        print(canonical_json(payload))
        return 0
    print(f"{algorithm.name} on {args.graph}-{graph.num_nodes} "
          f"(E={algorithm.exploration_budget}, L={args.label_space})")
    print(result.summary)
    return 0


def _check_executor_flags(args: argparse.Namespace) -> None:
    """Exit with the message on a ``--workers`` or ``--shards`` below 1."""
    if args.shards is not None and args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")


def command_sweep(args: argparse.Namespace) -> int:
    _check_executor_flags(args)
    store = _sweep_store_from_args(args)
    simultaneous = getattr(
        ALGORITHMS.entry(args.algorithm).target, "requires_simultaneous_start", False
    )
    delays = (0,) if simultaneous else tuple(args.delays)
    scenario = scenario_from_args(args, delays=delays)
    graph = _from_flags(scenario.build_graph)
    with cli_telemetry(args) as tele:
        run = scenario.run(
            engine=args.engine,
            workers=args.workers,
            cache=store,
            shard_count=args.shards,
            graph_name=f"{args.graph}-{graph.num_nodes}",
            graph=graph,
            telemetry=tele,
        )
    if args.json:
        print(canonical_json({**run.to_dict(), "runtime": run.runtime_dict()}))
        return 0
    row, stats = run.row, run.stats
    table = Table(
        f"Worst-case sweep: {row.algorithm} on {row.graph} "
        f"(E={row.exploration_budget}, L={row.label_space}, "
        f"{row.executions} executions)",
        ["metric", "measured", "paper bound", "usage"],
    )
    table.add_row("time", row.max_time, row.time_bound,
                  format_ratio(row.max_time, row.time_bound))
    table.add_row("cost", row.max_cost, row.cost_bound,
                  format_ratio(row.max_cost, row.cost_bound))
    table.print()
    print(f"worst time at {row.worst_time_config}")
    print(f"worst cost at {row.worst_cost_config}")
    print(f"runtime: {stats.summary()}, workers={args.workers}, "
          f"cache={'off' if store is None else store.root}")
    return 0


def _engine_rows() -> list[dict]:
    """The simulation-engine ladder, slowest rung first.

    Availability is probed in this process: the NumPy rung reports
    ``available=False`` (never an import error) when the optional
    dependency is absent.
    """
    from repro.sim.cube import numpy_available

    numpy_ok = numpy_available()
    return [
        {
            "engine": "reactive",
            "available": True,
            "requires": [],
            "description": "round-by-round simulator; runs every algorithm",
        },
        {
            "engine": "compiled",
            "available": True,
            "requires": ["is_oblivious"],
            "description": "compiled (label, start) trajectories, pure Python",
        },
        {
            "engine": "cube",
            "available": numpy_ok,
            "requires": ["is_oblivious", "numpy"],
            "description": "whole-cube tensor passes; delay-dominance "
                           "pruning, orbit pruning on rotation-symmetric graphs",
        },
    ]


def command_engines(args: argparse.Namespace) -> int:
    """Print the engine ladder with availability in this environment."""
    rows = _engine_rows()
    auto_oblivious = resolve_substrate("auto", SimpleNamespace(is_oblivious=True))
    auto_otherwise = resolve_substrate("auto", None)
    if args.json:
        print(canonical_json({
            "engines": rows,
            "auto": {"oblivious": auto_oblivious, "otherwise": auto_otherwise},
        }))
        return 0
    table = Table(
        "Simulation engines (byte-identical reports wherever they all apply)",
        ["engine", "available", "requires", "description"],
    )
    for row in rows:
        table.add_row(
            row["engine"],
            "yes" if row["available"] else "no",
            ", ".join(row["requires"]) or "-",
            row["description"],
        )
    table.print()
    print(f"auto resolves to: {auto_oblivious} for is_oblivious "
          f"algorithms, {auto_otherwise} otherwise")
    return 0


def command_certify(args: argparse.Namespace) -> int:
    size = resolved_size(args)
    if size % 6 != 0:
        raise SystemExit("certificates need a ring size divisible by 6")
    algorithm = _from_flags(lambda: Scenario(
        graph="ring",
        graph_params={"n": size},
        algorithm=args.algorithm,
        label_space=args.label_space,
        weight=args.weight,
    ).build_algorithm())
    trimmed = trimmed_from_algorithm(algorithm, size)
    certify = certify_theorem_31 if args.theorem == "3.1" else certify_theorem_32
    certificate = certify(trimmed)
    if args.json:
        # Same canonical report schema as sweep/run/experiments: the
        # instance under "scenario", the measured record under "result".
        print(canonical_json({
            "scenario": {
                "graph": {"family": "ring", "params": {"n": size}},
                "algorithm": {
                    "name": args.algorithm,
                    "label_space": args.label_space,
                    "weight": args.weight,
                },
                "theorem": args.theorem,
            },
            "result": certificate.to_dict(),
        }))
        return 0
    print_lines(certificate.summary_lines())
    return 0


def command_tradeoff(args: argparse.Namespace) -> int:
    from repro.experiments.catalog import adversarial_pairs

    label_space = args.label_space
    pairs = adversarial_pairs(label_space)
    scenarios = [
        _from_flags(lambda: Scenario(
            graph="ring",
            graph_params={"n": args.size},
            algorithm=algorithm,
            label_space=label_space,
            weight=args.weight,
            label_pairs=pairs,
        ))
        for algorithm in ("cheap-sim", "fwr-sim", "fast-sim")
    ]
    graph = _from_flags(scenarios[0].build_graph)
    points = []
    for scenario in scenarios:
        row = scenario.run(graph=graph).row
        budget = row.exploration_budget
        points.append({
            "algorithm": row.algorithm,
            "label_space": row.label_space,
            "exploration_budget": budget,
            "max_cost": row.max_cost,
            "max_time": row.max_time,
            "cost_per_e": row.max_cost / budget,
            "time_per_e": row.max_time / budget,
        })
    if args.json:
        print(canonical_json({
            "scenario": {
                "graph": {"family": "ring", "params": {"n": args.size}},
                "label_space": label_space,
                "weight": args.weight,
                "label_pairs": [list(pair) for pair in pairs],
                "algorithms": [point["algorithm"] for point in points],
            },
            "result": {"points": points},
        }))
        return 0
    table = Table(
        f"Tradeoff on the oriented {args.size}-ring, L = {label_space} "
        "(adversarial pairs)",
        ["strategy", "worst cost", "cost/E", "worst time", "time/E"],
    )
    for point in points:
        table.add_row(
            point["algorithm"], point["max_cost"], f"{point['cost_per_e']:.1f}",
            point["max_time"], f"{point['time_per_e']:.1f}",
        )
    table.print()
    return 0


def command_experiments_list(args: argparse.Namespace) -> int:
    experiments = all_experiments()
    if args.json:
        print(canonical_json({
            "experiments": [
                {
                    "id": experiment.id,
                    "exp_id": experiment.exp_id,
                    "title": experiment.title,
                    "claim": experiment.claim,
                    "source": experiment.source,
                }
                for experiment in experiments
            ]
        }))
        return 0
    table = Table(
        "Registered experiments (run with: python -m repro experiments run ID...)",
        ["id", "index", "title", "source"],
    )
    for experiment in experiments:
        table.add_row(
            experiment.id, experiment.exp_id, experiment.title,
            experiment.source,
        )
    table.print()
    return 0


def _print_campaign_text(reports, profile: str) -> None:
    for report in reports:
        print()
        for line in render_report(report):
            print(line)
    passed = sum(1 for report in reports if report.passed)
    print()
    print(f"campaign [{profile}]: {passed}/{len(reports)} experiments reproduced")


def command_experiments_run(args: argparse.Namespace) -> int:
    if args.all and args.ids:
        raise SystemExit("pass experiment ids or --all, not both")
    if not args.all and not args.ids:
        raise SystemExit(
            "pass experiment ids or --all; see `python -m repro experiments list`"
        )
    _check_executor_flags(args)
    store = _sweep_store_from_args(args)
    for experiment_id in args.ids:
        EXPERIMENTS.entry(experiment_id)  # SpecError lists the choices
    with cli_telemetry(args) as tele:
        campaign = Campaign(
            experiments=args.ids or None,
            quick=args.quick,
            engine=args.engine,
            workers=args.workers,
            cache=store,
            shard_count=args.shards,
            telemetry=tele,
        )
        result = campaign.run()
        if args.verbose:
            tele.message("experiment timing:")
            for line in result.timing_table():
                tele.message(line)
    report_dir = (
        args.report_dir if args.report_dir is not None else DEFAULT_REPORT_DIR
    )
    result.write_reports(report_dir)
    if args.json:
        print(result.to_json())
    else:
        _print_campaign_text(result.reports, result.profile)
        print(f"reports written to {report_dir}")
    return 0 if result.passed else 1


def command_experiments_report(args: argparse.Namespace) -> int:
    report_dir = (
        args.report_dir if args.report_dir is not None else DEFAULT_REPORT_DIR
    )
    try:
        reports = load_reports(report_dir)
    except FileNotFoundError as err:
        raise SystemExit(str(err)) from None
    if not reports:
        raise SystemExit(f"no report files in {report_dir!r}")
    if args.json:
        print(canonical_json({
            "reports": [report.to_dict() for report in reports],
            "passed": all(report.passed for report in reports),
        }))
        return 0
    profiles = sorted({report.profile for report in reports})
    _print_campaign_text(reports, "/".join(profiles))
    return 0 if all(report.passed for report in reports) else 1


def command_telemetry_summary(args: argparse.Namespace) -> int:
    try:
        events = read_events(args.file)
    except (OSError, ValueError) as err:
        raise SystemExit(str(err)) from None
    errors = validate_events(events)
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 1
    if args.check:
        print(f"ok: {len(events)} events")
        return 0
    summary = summarize(events)
    if args.json:
        print(canonical_json(summary))
        return 0
    print_lines(render_summary(summary))
    return 0


def command_telemetry_strip(args: argparse.Namespace) -> int:
    if args.file is None or args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise SystemExit(str(err)) from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise SystemExit(f"not valid JSON: {err}") from None
    strip = strip_provenance if args.provenance else strip_timing
    print(canonical_json(strip(payload)))
    return 0


# ----------------------------------------------------------------------
# Run-store commands: query stored runs, clear/compact the cache
# ----------------------------------------------------------------------


def _store_from_args(args: argparse.Namespace) -> RunStore:
    """The run store under ``--cache-dir`` (the default store without it)."""
    return resolve_store(True, args.cache_dir)


def _sweep_store_from_args(args: argparse.Namespace) -> RunStore | None:
    """The store a sweeping command caches into; ``None`` under ``--no-cache``."""
    if not args.no_cache:
        return _store_from_args(args)
    if args.cache_dir is not None:
        raise SystemExit("--no-cache contradicts --cache-dir")
    return None


def command_query(args: argparse.Namespace) -> int:
    """Answer a worst-case lookup from stored runs -- no re-sweeping.

    The payload is canonical: two stores holding the same sweeps answer
    byte-identically.
    """
    store = _store_from_args(args)
    payload = query_payload(
        store,
        algorithm=args.algorithm,
        graph=args.graph,
        engine=args.engine,
        label_space=args.label_space,
    )
    if args.json:
        print(canonical_json(payload))
        return 0
    print_lines(render_query_lines(payload))
    return 0


def command_cache_clear(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    removed = store.clear()
    if args.json:
        print(canonical_json({"root": str(store.root), "removed": removed}))
        return 0
    print(f"cleared {removed} run file(s) under {store.root / 'runs'}")
    return 0


def command_cache_compact(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    stats = store.compact()
    if args.json:
        print(canonical_json({
            "root": str(store.root),
            "compaction": stats.to_dict(),
        }))
        return 0
    print(f"compacted {stats.files} file(s) under {store.root / 'runs'}: "
          f"{stats.rewritten} rewritten, "
          f"{stats.torn_lines} torn line(s), "
          f"{stats.duplicate_headers} duplicate header(s), "
          f"{stats.duplicate_shards} duplicate shard(s) folded")
    return 0


def command_lint(args: argparse.Namespace) -> int:
    # Local import: the lint engine is only needed by this command and
    # pulls in the rule registry provider at resolution time.
    from repro.lint import DEFAULT_LINT_CACHE_DIR, LintCache, lint_paths

    if args.no_cache and args.cache_dir is not None:
        raise SystemExit("--no-cache contradicts --cache-dir")
    paths = args.paths
    if not paths:
        default = Path("src")
        if not default.is_dir():
            raise SystemExit(
                "no src/ directory here; pass the paths to lint explicitly"
            )
        paths = [str(default)]
    cache = None
    if not args.no_cache:
        cache = LintCache(
            args.cache_dir if args.cache_dir is not None else DEFAULT_LINT_CACHE_DIR
        )
    try:
        report = lint_paths(paths, select=args.select, ignore=args.ignore,
                            cache=cache)
    except FileNotFoundError as err:
        raise SystemExit(str(err)) from None
    if args.json:
        print(report.to_json())
    elif args.check:
        status = "ok" if report.ok else f"{len(report.findings)} finding(s)"
        print(f"lint --check: {status} in {report.files} file(s)")
    else:
        print_lines(report.render_lines())
    return 0 if report.ok else 1


def command_explore(args: argparse.Namespace) -> int:
    from repro.exploration import KnowledgeModel, best_exploration
    from repro.graphs.families import standard_test_suite

    table = Table(
        "Exploration budgets E per family and knowledge model (paper Section 1.2)",
        ["graph", "n", "e", "map+position", "E", "map only", "E "],
    )
    rng = random.Random(0)
    for name, graph in standard_test_suite(rng):
        with_pos = best_exploration(graph, KnowledgeModel.MAP_WITH_POSITION)
        without_pos = best_exploration(graph, KnowledgeModel.MAP_WITHOUT_POSITION)
        table.add_row(
            name, graph.num_nodes, graph.num_edges,
            with_pos.name, with_pos.budget, without_pos.name, without_pos.budget,
        )
    table.print()
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rendezvous",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One observability flag set shared (argparse parents=) by every
    # command that executes work: run, sweep, experiments run.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument("-v", "--verbose", action="store_true",
                           help="narrate traces and messages on stderr")
    obs_flags.add_argument("--progress", action="store_true",
                           help="live progress line on stderr (rate, ETA)")
    obs_flags.add_argument("--telemetry", metavar="FILE", default=None,
                           help="stream the JSONL telemetry event log to FILE "
                                "(render with `telemetry summary FILE`)")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", default="ring",
                       help=f"graph family (default ring); one of "
                            f"{', '.join(GRAPH_FAMILIES.names())}")
        p.add_argument("--size", type=int, default=None,
                       help="graph size (default 12; rejected for fixed-size "
                            "families like petersen)")
        p.add_argument("--algorithm", default="fast",
                       help="|".join(ALGORITHMS.names()))
        p.add_argument("--label-space", type=int, default=8, help="L (default 8)")
        p.add_argument("--weight", type=int, default=2,
                       help="w for FastWithRelabeling (default 2)")

    run_parser = sub.add_parser("run", help="simulate one rendezvous",
                                parents=[obs_flags])
    common(run_parser)
    run_parser.add_argument("--labels", type=int, nargs=2, default=(3, 5))
    run_parser.add_argument("--starts", type=int, nargs=2, default=(0, 5))
    run_parser.add_argument("--delay", type=int, default=0)
    run_parser.add_argument("--json", action="store_true",
                            help="emit the canonical JSON report instead of text")
    run_parser.set_defaults(func=command_run)

    sweep_parser = sub.add_parser("sweep", help="worst-case adversarial sweep",
                                  parents=[obs_flags])
    common(sweep_parser)
    sweep_parser.add_argument("--delays", type=int, nargs="*", default=[0, 5, 20])
    sweep_parser.add_argument("--engine", default="auto",
                              choices=ENGINES,
                              help="simulation engine (default auto: whole-cube "
                                   "tensor engine for schedule-driven "
                                   "algorithms when numpy is installed, compiled "
                                   "trajectories otherwise, reactive simulation "
                                   "for the rest; reports are byte-identical)")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="process-pool workers (default 1 = serial)")
    sweep_parser.add_argument("--shards", type=int, default=None,
                              help="override the shard count (default 16 with "
                                   "a run store or a pool, 1 otherwise)")
    cache_group = sweep_parser.add_mutually_exclusive_group()
    cache_group.add_argument("--cache", dest="no_cache", action="store_false",
                             help="reuse/store shards in the run store (default)")
    cache_group.add_argument("--no-cache", dest="no_cache", action="store_true",
                             help="bypass the run store entirely")
    sweep_parser.set_defaults(no_cache=False)
    sweep_parser.add_argument("--cache-dir", default=None,
                              help=f"run-store directory (default {DEFAULT_CACHE_DIR})")
    sweep_parser.add_argument("--json", action="store_true",
                              help="emit the canonical JSON report instead of tables")
    sweep_parser.set_defaults(func=command_sweep)

    certify_parser = sub.add_parser("certify", help="lower-bound certificate")
    common(certify_parser)
    certify_parser.add_argument("--theorem", choices=["3.1", "3.2"], default="3.1")
    certify_parser.add_argument("--json", action="store_true",
                                help="emit the canonical JSON report instead of text")
    certify_parser.set_defaults(func=command_certify)

    explore_parser = sub.add_parser("explore", help="exploration budget table")
    explore_parser.set_defaults(func=command_explore)

    engines_parser = sub.add_parser(
        "engines",
        help="list the simulation-engine ladder with availability here",
    )
    engines_parser.add_argument("--json", action="store_true",
                                help="emit the ladder as canonical JSON")
    engines_parser.set_defaults(func=command_engines)

    lint_parser = sub.add_parser(
        "lint",
        help="statically enforce the determinism / atomicity / telemetry-"
             "inertness invariants (AST-based, dependency-free)",
    )
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files or directories to lint (default: src)")
    lint_output = lint_parser.add_mutually_exclusive_group()
    lint_output.add_argument("--json", action="store_true",
                             help="emit the canonical JSON report "
                                  "(findings under result, cache counts "
                                  "under the non-canonical runtime block)")
    lint_output.add_argument("--check", action="store_true",
                             help="print only the verdict line; the exit "
                                  "status still reflects the findings")
    lint_parser.add_argument("--select", nargs="+", metavar="RULE",
                             default=None,
                             help="run only these REP0xx rules")
    lint_parser.add_argument("--ignore", nargs="+", metavar="RULE",
                             default=None,
                             help="skip these REP0xx rules")
    lint_cache_group = lint_parser.add_mutually_exclusive_group()
    lint_cache_group.add_argument("--cache", dest="no_cache",
                                  action="store_false",
                                  help="reuse per-file results keyed on "
                                       "content hash (default)")
    lint_cache_group.add_argument("--no-cache", dest="no_cache",
                                  action="store_true",
                                  help="re-lint every file")
    lint_parser.set_defaults(no_cache=False)
    lint_parser.add_argument("--cache-dir", default=None,
                             help="lint cache directory (default "
                                  ".repro_cache/lint)")
    lint_parser.set_defaults(func=command_lint)

    tradeoff_parser = sub.add_parser("tradeoff", help="measured tradeoff table")
    tradeoff_parser.add_argument("--size", type=int, default=12)
    tradeoff_parser.add_argument("--label-space", type=int, default=64)
    tradeoff_parser.add_argument("--weight", type=int, default=2)
    tradeoff_parser.add_argument("--json", action="store_true",
                                 help="emit the canonical JSON report instead "
                                      "of tables")
    tradeoff_parser.set_defaults(func=command_tradeoff)

    experiments_parser = sub.add_parser(
        "experiments", help="registered experiment campaigns (EXP-01…12 + extensions)"
    )
    experiments_sub = experiments_parser.add_subparsers(
        dest="experiments_command", required=True
    )

    list_parser = experiments_sub.add_parser(
        "list", help="list the registered experiments"
    )
    list_parser.add_argument("--json", action="store_true")
    list_parser.set_defaults(func=command_experiments_list)

    exp_run_parser = experiments_sub.add_parser(
        "run", help="run experiments and write their verdict reports",
        parents=[obs_flags],
    )
    exp_run_parser.add_argument("ids", nargs="*", metavar="ID",
                                help="experiment ids (see `experiments list`)")
    exp_run_parser.add_argument("--all", action="store_true",
                                help="run every registered experiment")
    exp_run_parser.add_argument("--quick", action="store_true",
                                help="shrunk CI-sized grids (same definitions, "
                                     "same verdict texts)")
    exp_run_parser.add_argument("--engine", default="auto",
                                choices=ENGINES,
                                help="simulation engine for the scenario grids "
                                     "(default auto)")
    exp_run_parser.add_argument("--workers", type=int, default=1,
                                help="process-pool workers shared by the whole "
                                     "campaign (default 1 = serial)")
    exp_run_parser.add_argument("--shards", type=int, default=None,
                                help="override the shard count")
    exp_cache_group = exp_run_parser.add_mutually_exclusive_group()
    exp_cache_group.add_argument("--cache", dest="no_cache",
                                 action="store_false",
                                 help="reuse/store sweep shards in the run "
                                      "store (default)")
    exp_cache_group.add_argument("--no-cache", dest="no_cache",
                                 action="store_true",
                                 help="bypass the run store entirely")
    exp_run_parser.set_defaults(no_cache=False)
    exp_run_parser.add_argument("--cache-dir", default=None,
                                help=f"run-store directory (default "
                                     f"{DEFAULT_CACHE_DIR})")
    exp_run_parser.add_argument("--report-dir", default=None,
                                help=f"where per-experiment JSON reports land "
                                     f"(default {DEFAULT_REPORT_DIR})")
    exp_run_parser.add_argument("--json", action="store_true",
                                help="print the campaign as canonical JSON "
                                     "(byte-identical across engines and "
                                     "worker counts)")
    exp_run_parser.set_defaults(func=command_experiments_run)

    exp_report_parser = experiments_sub.add_parser(
        "report", help="render previously written verdict reports"
    )
    exp_report_parser.add_argument("--report-dir", default=None,
                                   help=f"report directory (default "
                                        f"{DEFAULT_REPORT_DIR})")
    exp_report_parser.add_argument("--json", action="store_true")
    exp_report_parser.set_defaults(func=command_experiments_report)

    telemetry_parser = sub.add_parser(
        "telemetry", help="inspect telemetry event files and strip timing"
    )
    telemetry_sub = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True
    )

    summary_parser = telemetry_sub.add_parser(
        "summary", help="render a JSONL event file (per-phase, per-shard)"
    )
    summary_parser.add_argument("file", metavar="FILE",
                                help="JSONL event file written by --telemetry")
    summary_parser.add_argument("--json", action="store_true",
                                help="emit the summary as canonical JSON")
    summary_parser.add_argument("--check", action="store_true",
                                help="validate the event schema only; exits "
                                     "non-zero listing any violations")
    summary_parser.set_defaults(func=command_telemetry_summary)

    strip_parser = telemetry_sub.add_parser(
        "strip", help="print a JSON report with its non-canonical timing "
                      "sections removed (for byte-for-byte comparison)"
    )
    strip_parser.add_argument("file", nargs="?", default=None, metavar="FILE",
                              help="JSON report file (default: stdin)")
    strip_parser.add_argument("--provenance", action="store_true",
                              help="also remove the runtime provenance "
                                   "block (compare pooled or cached runs "
                                   "against serial sweeps byte for byte)")
    strip_parser.set_defaults(func=command_telemetry_strip)

    query_parser = sub.add_parser(
        "query",
        help="answer worst-case questions from stored runs (no re-sweeping)",
    )
    query_parser.add_argument("--algorithm", default=None,
                              help="filter on the algorithm name "
                                   f"({'|'.join(ALGORITHMS.names())})")
    query_parser.add_argument("--graph", default=None,
                              help="filter on the graph family, e.g. ring")
    query_parser.add_argument("--engine", default=None,
                              choices=[e for e in ENGINES if e != "auto"],
                              help="filter on the simulation engine the "
                                   "sweep recorded")
    query_parser.add_argument("--label-space", type=int, default=None,
                              help="filter on the label-space size L")
    query_parser.add_argument("--cache-dir", default=None,
                              help=f"run-store directory (default "
                                   f"{DEFAULT_CACHE_DIR})")
    query_parser.add_argument("--json", action="store_true",
                              help="emit the canonical JSON answer")
    query_parser.set_defaults(func=command_query)

    cache_parser = sub.add_parser(
        "cache", help="maintain the run store (clear, compact)"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)

    cache_clear_parser = cache_sub.add_parser(
        "clear",
        help="delete every file under the run store's runs/ directory "
             "and report how many went",
    )
    cache_clear_parser.add_argument("--cache-dir", default=None,
                                    help=f"run-store directory (default "
                                         f"{DEFAULT_CACHE_DIR})")
    cache_clear_parser.add_argument("--json", action="store_true")
    cache_clear_parser.set_defaults(func=command_cache_clear)

    cache_compact_parser = cache_sub.add_parser(
        "compact",
        help="fold torn lines and duplicate records out of damaged store "
             "files (healthy files are untouched)",
    )
    cache_compact_parser.add_argument("--cache-dir", default=None,
                                      help=f"run-store directory (default "
                                           f"{DEFAULT_CACHE_DIR})")
    cache_compact_parser.add_argument("--json", action="store_true")
    cache_compact_parser.set_defaults(func=command_cache_compact)

    return parser


#: Exit status when the reader of stdout went away: what a shell reports
#: for a writer killed by ``SIGPIPE`` (128 + 13).
EXIT_CLOSED_PIPE = 141


def _reader_gone() -> int:
    """Stop quietly after ``BrokenPipeError`` (``repro ... | head``).

    Standard output is pointed at ``os.devnull`` so the interpreter's
    exit-time flush of the unwritten buffer cannot raise a second time.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file
        return EXIT_CLOSED_PIPE
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return EXIT_CLOSED_PIPE


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, not at exit, so a closed pipe surfaces below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return _reader_gone()
    except SpecError as err:
        # Unknown registry names are always user input at this surface;
        # other ValueErrors may be internal invariants and keep their
        # tracebacks (commands wrap their own input-validation sites).
        raise SystemExit(str(err)) from None


if __name__ == "__main__":
    sys.exit(main())
