"""The repository benchmark: one workload, repeated for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense_sweep --seed 0 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``rep.py``), because that is
the state a command-line user meets: per-process table caches and memos
start cold.  Repetitions start while the next one is expected to end by
``--seconds`` (at least three untraced).  The first repetition runs the
workload's full output checks; every later one must reproduce its output
digests byte for byte.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_ref``, the wall in units of the reference computation timed
between the workload's operations (see ``reference.py``), summed over
the stretches between two reference timings of each one's median over
the repetitions; ``configs_per_ref``, the configurations over that; and
the medians of ``setup_s`` and ``peak_rss_mb``.  The walls in seconds
are on the line before the result.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones
(medians), plus the tracing overhead against the untraced ones.

The last line of standard output is the result object; the line before it
records the environment and every sample.  Without the program's sources
(``src/repro``) beside this directory the benchmark exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"

#: The workloads ``rep.py`` knows; kept here so a missing program fails
#: before anything is imported from it.
WORKLOADS = ("dense_sweep", "campaign_full", "store_roundtrip", "dense_sweep_pool")

#: Seconds one repetition may take before it is killed and counted failed.
REP_TIMEOUT_S = 150.0

#: The traced run fails when more of a workload's wall is outside spans.
MAX_UNATTRIBUTED_FRAC = 0.05

#: Fewest repetitions per run: untraced, and traced (half of them traced).
MIN_REPS = 3
MIN_TRACED_REPS = 2


def _environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted(SOURCES.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCES)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD's commit read from ``.git`` (the checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _run_rep(args, traced: bool, witness: bool, workdir: Path) -> dict:
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(workdir),
        "--digests", str(args.digests),
    ]
    if witness:
        command.append("--witness")
    if traced:
        command.append("--trace")
    if args.small:
        command.append("--small")
    env = dict(os.environ, PYTHONPATH=str(SOURCES), PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"attempted": 1, "failed": 1, "problems": ["repetition timed out"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"attempted": 1, "failed": 1, "problems": ["repetition crashed", *tail]}
    record = json.loads(lines[-1])
    record["traced"] = traced
    return record


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _wall_ref(reps: list[dict]) -> float:
    """Each stretch's median over the repetitions, summed over stretches."""
    laps = [rep["laps_ref"] for rep in reps]
    return sum(_median(list(stretch)) for stretch in zip(*laps, strict=True))


def _compare_with_first(reps: list[dict]) -> None:
    """Count a later repetition's outputs that differ from the first's as failed."""
    first = reps[0]
    for rep in reps[1:]:
        if "digests" not in rep or "digests" not in first:
            continue
        differing = sorted(
            key for key in first["digests"] if rep["digests"].get(key) != first["digests"][key]
        )
        if rep["configs"] != first["configs"] and not differing:
            differing = ["configuration count"]
        if differing:
            rep["failed"] = max(rep["failed"], len(differing))
            rep["problems"].append(f"outputs differ from the first repetition: {differing}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes (self-test)")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json",
                        help="pinned report digests (self-test overrides it)")
    args = parser.parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SOURCES}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    # Compile the sources once, untimed, so no repetition pays for it.
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.experiments.catalog"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SOURCES)),
        capture_output=True, timeout=REP_TIMEOUT_S, check=False,
    )
    reps: list[dict] = []
    min_reps = MIN_TRACED_REPS if args.trace else MIN_REPS
    deadline = time.perf_counter() + args.seconds
    durations: list[float] = []
    try:
        # Start another repetition while at least half of it (judged by
        # the last two) fits before the deadline.
        while len(reps) < min_reps or (
            time.perf_counter() + max(durations[-2:]) / 2 < deadline
        ):
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_started = time.perf_counter()
            reps.append(_run_rep(args, traced, not reps, workdir))
            durations.append(time.perf_counter() - rep_started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _compare_with_first(reps)

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    good = [rep for rep in reps if "wall_s" in rep]
    plain = [rep for rep in good if not rep["traced"]]
    traced_reps = [rep for rep in good if rep["traced"]]
    if not plain or (args.trace and not traced_reps):
        print(json.dumps({"problems": [p for rep in reps for p in rep["problems"]]}),
              file=sys.stderr)
        return 1

    wall_ref = _wall_ref(plain)
    samples: dict[str, list[float]] = {
        "wall_ref": [wall_ref],
        "configs_per_ref": [plain[0]["configs"] / wall_ref],
        "setup_s": [rep["setup_s"] for rep in plain],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
        "wall_s": [rep["wall_s"] for rep in plain],
        "rep_wall_ref": [rep["wall_ref"] for rep in plain],
    }
    if args.trace:
        for name in traced_reps[0]["layers"]:
            samples[name] = [rep["layers"][name] for rep in traced_reps]
        overhead = _median(
            [rep["wall_ref"] for rep in traced_reps]
        ) / _median([rep["wall_ref"] for rep in plain]) - 1.0
        samples["trace.overhead_frac"] = [overhead]
        for rep in traced_reps:  # each trace-health check is one more operation
            attempted += 1
            share = rep["layers"]["trace.unattributed_s"] / rep["wall_s"]
            if share > MAX_UNATTRIBUTED_FRAC:
                failed += 1
                rep["problems"].append(f"{share:.1%} of the traced wall is unattributed")

    metrics = {}
    for metric in wanted:
        values = samples.get(metric["name"])
        if values is None:
            print(f"error: metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": _median(values), "unit": metric["unit"]}

    problems = [p for rep in reps for p in rep["problems"]]
    environment = _environment(args.seed)
    environment.update(
        workload=args.workload,
        repetitions=len(plain),
        traced_repetitions=len(traced_reps),
        optional_modules_loaded=plain[0]["optional_modules"],
        modules_loaded=plain[0]["modules_loaded"],
        failed_frac=failed / attempted,
    )
    print(json.dumps({"env": environment, "samples": samples, "problems": problems[:20]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
