"""Regenerate ``digests.json``: the canonical-report digests at the default seed.

Run from the root of a checkout after a change that is meant to alter the
reports (none should: reports are byte-identical across engines, worker
counts and store backends)::

    python3 perfbench/pin_digests.py

Each workload runs once per size (``full`` and the self-test's ``small``)
at the default seed, with its full output checks and no pinned digests
to compare against.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, SOURCES, WORKLOADS


def main() -> int:
    pinned: dict[str, dict[str, dict[str, str]]] = {}
    env = dict(os.environ, PYTHONPATH=str(SOURCES))
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for workload in WORKLOADS:
            for scale in ("full", "small"):
                command = [
                    sys.executable, str(HERE / "rep.py"),
                    "--workload", workload,
                    "--workdir", str(Path(scratch) / "work"),
                    "--digests", str(Path(scratch) / "none.json"),
                    "--witness",
                ]
                if scale == "small":
                    command.append("--small")
                done = subprocess.run(
                    command, cwd=ROOT, env=env, capture_output=True, text=True, check=True
                )
                record = json.loads(done.stdout.splitlines()[-1])
                if record["failed"]:
                    print(f"{workload} ({scale}) failed its checks: {record['problems']}",
                          file=sys.stderr)
                    return 1
                pinned.setdefault(workload, {})[scale] = record["digests"]
                print(f"pinned {workload} ({scale})", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
