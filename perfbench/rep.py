"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts one of these per repetition; by hand, from the root of
a checkout::

    PYTHONPATH=src python3 perfbench/rep.py --workload dense_sweep --seed 0 \
        --workdir .bench_work/x --digests perfbench/digests.json \
        [--witness] [--trace] [--small]

Times ``import repro`` plus input building (``setup_s``), runs the
workload's operations on the clock of ``reference.py`` (``wall_s`` and
``wall_ref``), digests every output, compares the digests with the pinned
ones where they apply and prints one JSON record as its last line.  ``--witness`` also runs the
workload's full output checks (witness re-simulation, uncached
references); ``run.py`` asks for them on a run's first repetition and
requires every later one to reproduce its digests.  With ``--trace`` the
layer wrappers of ``layers.py`` and an in-memory telemetry sink are
installed after setup and removed before the checks run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

_started = time.perf_counter()

from reference import RefClock  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Optional dependencies whose loading by ``import repro`` is recorded.
OPTIONAL_MODULES = ("networkx", "numpy", "scipy")


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _pinned(path: str, workload: str, scale: str, seed: int, seeded: bool) -> dict:
    """The pinned digests that apply to this run (empty when none do)."""
    if seeded and seed != DEFAULT_SEED:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return {}
    return table.get(workload, {}).get(scale, {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--digests", required=True)
    parser.add_argument("--witness", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    before = set(sys.modules)
    import_started = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - import_started
    loaded = set(sys.modules) - before
    workload = WORKLOADS[args.workload](args.seed, args.small, args.workdir)
    workload.setup()
    setup_s = time.perf_counter() - _started

    record: dict = {
        "setup_s": setup_s,
        "import_s": import_s,
        "modules_loaded": len(loaded),
        "optional_modules": sorted(m for m in OPTIONAL_MODULES if m in loaded),
        "attempted": workload.operations,
        "failed": workload.operations,
        "problems": [],
    }
    layer = sink = telemetry = None
    if args.trace:
        from layers import LayerTrace
        from repro.obs import MemorySink, Telemetry

        sink = MemorySink()
        telemetry = Telemetry(sink)
        layer = LayerTrace()
        layer.install()
    clock = RefClock(between=not args.trace)
    try:
        outcome = workload.run(telemetry, clock)
    except Exception:  # a failing operation is a result, not a crash
        record["problems"].append(traceback.format_exc())
        outcome = None
    finally:
        if layer is not None:
            layer.restore()
    record["peak_rss_mb"] = _peak_rss_mb()

    if outcome is not None:
        digests = workload.digests(outcome)
        record.update(
            wall_s=outcome.wall_s, wall_ref=clock.wall_ref, laps_ref=clock.laps,
            configs=outcome.configs, digests=digests,
        )
        problems = workload.check(outcome) if args.witness else {}
        scale = "small" if args.small else "full"
        pinned = _pinned(args.digests, args.workload, scale, args.seed, workload.seeded)
        for key, expected in pinned.items():
            if digests.get(key) != expected:
                problems.setdefault(key, []).append(f"digest of {key} differs from the pinned one")
        record["failed"] = sum(1 for found in problems.values() if found)
        record["problems"] = [line for found in problems.values() for line in found][:20]
        if layer is not None:
            metrics = layer.per_layer_metrics(sink.events, outcome.wall_s)
            metrics.update(
                {
                    "store.resume_s": outcome.phases.get("resume_s", 0.0),
                    "store.query_s": outcome.phases.get("query_s", 0.0),
                    "store.bytes": outcome.phases.get("bytes", 0.0),
                    "setup.import_s": import_s,
                    "setup.modules_loaded": float(len(loaded)),
                }
            )
            record["layers"] = metrics
    cleanup = getattr(workload, "cleanup", None)
    if cleanup is not None:
        cleanup()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
