"""The package works with zero extras installed.

``dependencies = []`` is a promise: ``networkx`` is only a test extra, so
``import repro``, the CLI and a compiled-engine sweep must all run in an
interpreter where importing it fails.  Each check runs in a fresh
subprocess with ``sys.modules["networkx"] = None``, which makes any
``import networkx`` raise exactly as a missing package would.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

BLOCK = 'import sys\nsys.modules["networkx"] = None\n'


def run_blocked(body: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", BLOCK + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_import_repro_without_networkx():
    proc = run_blocked(
        """
        import repro
        import repro.graphs
        assert "networkx" not in {
            name for name, module in sys.modules.items() if module is not None
        }
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_import_repro_loads_no_sqlite3():
    # The run store is plain JSONL files; importing the package must not
    # pull in the sqlite3 extension module.
    proc = run_blocked(
        """
        import repro
        assert "sqlite3" not in sys.modules, "import repro loaded sqlite3"
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_engines_without_networkx():
    proc = run_blocked(
        """
        import runpy
        sys.argv = ["repro", "engines", "--json"]
        runpy.run_module("repro", run_name="__main__")
        """
    )
    assert proc.returncode == 0, proc.stderr
    listed = [row["engine"] for row in json.loads(proc.stdout)["engines"]]
    assert "compiled" in listed


def test_compiled_scenario_run_without_networkx():
    proc = run_blocked(
        """
        from repro.api import Scenario
        run = Scenario(
            graph="ring", graph_params={"n": 6}, algorithm="fast", label_space=3
        ).run(engine="compiled", workers=1, cache=False)
        print(run.row.max_time)
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 0


def test_the_bridge_still_loads_on_demand():
    from repro.graphs import from_networkx, to_networkx

    graph, _ = from_networkx(to_networkx(repro.graphs.oriented_ring(4)))
    assert graph.num_nodes == 4


def test_trim_runs_without_numpy():
    # NumPy is optional too: without it Trim's sweep runs on the compiled
    # engine, with the cube's deadlines and worst cost.
    proc = run_blocked(
        """
        sys.modules["numpy"] = None
        from repro.core.fast import FastSimultaneous
        from repro.exploration.ring import RingExploration
        from repro.lower_bounds.trim import trimmed_from_algorithm
        from repro.sim.adversary import resolve_substrate
        algorithm = FastSimultaneous(RingExploration(12), 8)
        assert resolve_substrate("auto", algorithm) == "compiled"
        trimmed = trimmed_from_algorithm(algorithm, 12)
        print(trimmed.max_cost, max(trimmed.meeting_deadlines.values()))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["99", str(max_deadline_with_numpy())]


def max_deadline_with_numpy() -> int:
    from repro.core.fast import FastSimultaneous
    from repro.exploration.ring import RingExploration
    from repro.lower_bounds.trim import trimmed_from_algorithm

    trimmed = trimmed_from_algorithm(FastSimultaneous(RingExploration(12), 8), 12)
    return max(trimmed.meeting_deadlines.values())
