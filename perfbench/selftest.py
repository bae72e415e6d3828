"""Self-test of the benchmark, at reduced sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, prints a result line
with exactly the four result keys, passes its output checks and reports
every metric of ``BENCHMARK.json`` with its unit; that a wrong pinned
digest makes a run fail; that the benchmark refuses to run without the
program's sources; and that ``telemetry_map.json`` covers every per-layer
metric.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, WORKLOADS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit code {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(benchmark: dict) -> None:
    for workload in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result = _result(_bench("--workload", workload, "--seconds", "0",
                                    "--trace", trace, "--small"))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace={trace} failed: {result}")
            expected = {m["name"]: m["unit"] for m in benchmark[section]}
            printed = result["metrics"]
            if set(printed) != set(expected):
                raise AssertionError(
                    f"{workload} trace={trace}: missing {sorted(set(expected) - set(printed))},"
                    f" extra {sorted(set(printed) - set(expected))}"
                )
            for name, unit in expected.items():
                entry = printed[name]
                if entry["unit"] != unit or not isinstance(entry["value"], (int, float)):
                    raise AssertionError(f"{workload}: bad metric {name}: {entry}")
            print(f"ok  {workload} trace={trace}: {len(printed)} metrics")


def check_wrong_digest(scratch: Path) -> None:
    pinned = json.loads((HERE / "digests.json").read_text())
    for workload in ("dense_sweep", "campaign_full"):
        wrong = json.loads(json.dumps(pinned))
        digests = wrong[workload]["small"]
        key = sorted(digests)[0]
        digests[key] = "0" * 64
        path = scratch / f"wrong-{workload}.json"
        path.write_text(json.dumps(wrong))
        result = _result(_bench("--workload", workload, "--seconds", "0", "--small",
                                "--digests", str(path)))
        if result["correct"] or not result["failed"]:
            raise AssertionError(f"{workload}: a wrong digest went unnoticed: {result}")
        print(f"ok  {workload}: a wrong pinned digest fails the run")


def check_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _bench("--workload", "dense_sweep", "--seconds", "1", "--trace", "0", cwd=bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        raise AssertionError("ran without the program's sources")
    print("ok  no sources: exit code", done.returncode)


def check_telemetry_map(benchmark: dict) -> None:
    mapped = json.loads((HERE / "telemetry_map.json").read_text())["metrics"]
    names = {m["name"] for m in benchmark["per_layer"]}
    if set(mapped) != names:
        raise AssertionError(f"telemetry map differs from per_layer: {set(mapped) ^ names}")
    print("ok  telemetry map covers", len(names), "per-layer metrics")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_telemetry_map(benchmark)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        check_without_sources(Path(scratch))
        check_wrong_digest(Path(scratch))
    check_metrics(benchmark)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
