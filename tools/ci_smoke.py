"""CI smoke check for the CLI and the internal-deprecation policy.

Eight gates, all dependency-free (run with ``python tools/ci_smoke.py``):

1. ``python -m repro --help`` exits 0 in a fresh subprocess;
2. one tiny ``sweep --json`` (and ``run --json``) on a 6-node ring runs
   end-to-end in-process and prints parseable canonical JSON;
3. ``experiments list --json`` exposes the registered experiment
   catalog (all twelve EXP-NN ids);
4. ``cluster status --json`` answers with the expected payload shape
   (an empty cluster root is a valid, reportable state);
5. ``lint --json`` reports a clean tree under every registered
   invariant rule (the shipped source must stay ``repro lint`` green);
6. ``engines --json`` lists the full simulation-engine ladder
   (reactive, compiled, cube) with a sane ``auto`` resolution;
7. the run store round-trips: a sweep run cold into a fresh
   ``--cache-dir`` and again from the store reports identically (modulo
   the non-canonical timing section), ``query`` answers the worst-case
   lookup from the stored run without re-sweeping, and ``cache clear``
   reports how many files it removed;
8. no ``DeprecationWarning`` originates from inside ``src/repro`` while
   doing so -- deprecation shims, if any ever exist, are for external
   callers only; package-internal code must stay on the current API.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from contextlib import redirect_stdout

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_help() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        fail(f"--help exited {proc.returncode}: {proc.stderr}")
    for command in ("run", "sweep", "certify", "explore", "engines",
                    "tradeoff", "experiments", "telemetry", "cluster",
                    "query", "cache"):
        if command not in proc.stdout:
            fail(f"--help does not mention the {command!r} command")
    print("help: OK")


def run_cli_capturing(argv: list[str]) -> tuple[str, list[warnings.WarningMessage]]:
    buffer = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # Imported inside the recorder so the first call also catches
        # import-time deprecation warnings raised inside src/repro.
        from repro.cli import main

        with redirect_stdout(buffer):
            code = main(argv)
    if code != 0:
        fail(f"{argv} exited {code}")
    return buffer.getvalue(), caught


def internal_deprecations(
    caught: list[warnings.WarningMessage],
) -> list[warnings.WarningMessage]:
    marker = str(SRC / "repro")
    return [
        w
        for w in caught
        if issubclass(w.category, DeprecationWarning)
        and str(pathlib.Path(w.filename).resolve()).startswith(marker)
    ]


def check_json_commands() -> None:
    sys.path.insert(0, str(SRC))

    sweep_out, sweep_warnings = run_cli_capturing(
        ["sweep", "--graph", "ring", "--size", "6", "--algorithm", "fast-sim",
         "--label-space", "4", "--no-cache", "--json"]
    )
    payload = json.loads(sweep_out)
    if payload["scenario"]["graph"] != {"family": "ring", "params": {"n": 6}}:
        fail(f"unexpected sweep scenario: {payload['scenario']}")
    if payload["result"]["max_time"] > payload["result"]["time_bound"]:
        fail("measured time exceeds the paper bound")
    print("sweep --json: OK")

    run_out, run_warnings = run_cli_capturing(
        ["run", "--json", "--size", "6", "--label-space", "4",
         "--labels", "1", "3", "--starts", "0", "3"]
    )
    if json.loads(run_out)["result"]["met"] is not True:
        fail("run --json reported no meeting")
    print("run --json: OK")

    list_out, list_warnings = run_cli_capturing(["experiments", "list", "--json"])
    registered = {item["id"] for item in json.loads(list_out)["experiments"]}
    missing = {f"exp{n:02d}" for n in range(1, 13)} - registered
    if missing:
        fail(f"experiments list is missing {sorted(missing)}")
    print("experiments list --json: OK")

    status_out, status_warnings = run_cli_capturing(
        ["cluster", "status", "--root", "ci-smoke-empty-cluster", "--json"]
    )
    status = json.loads(status_out)
    if sorted(status) != ["root", "runs"] or status["runs"] != []:
        fail(f"unexpected cluster status payload: {status}")
    print("cluster status --json: OK")

    lint_out, lint_warnings = run_cli_capturing(
        ["lint", "--json", "--no-cache", str(SRC)]
    )
    lint = json.loads(lint_out)
    if lint["result"]["ok"] is not True or lint["result"]["findings"] != []:
        fail(f"repro lint found violations: {lint['result']['findings']}")
    if len(lint["lint"]["rules"]) < 9:
        fail(f"lint rule registry shrank: {lint['lint']['rules']}")
    print("lint --json: OK")

    engines_out, engines_warnings = run_cli_capturing(["engines", "--json"])
    ladder = json.loads(engines_out)
    listed = [row["engine"] for row in ladder["engines"]]
    if listed != ["reactive", "compiled", "cube"]:
        fail(f"unexpected engine ladder: {listed}")
    if ladder["auto"]["oblivious"] not in ("cube", "compiled"):
        fail(f"unexpected auto resolution: {ladder['auto']}")
    print("engines --json: OK")

    offenders = internal_deprecations(
        sweep_warnings + run_warnings + list_warnings + status_warnings
        + lint_warnings + engines_warnings
    )
    if offenders:
        lines = "\n".join(
            f"  {w.filename}:{w.lineno}: {w.message}" for w in offenders
        )
        fail(f"DeprecationWarning raised from inside src/repro:\n{lines}")
    print("no internal deprecation warnings: OK")


def _without_timing(payload):
    """Drop the non-canonical ``timing`` sections before comparison."""
    if isinstance(payload, dict):
        return {
            key: _without_timing(value)
            for key, value in payload.items()
            if key != "timing"
        }
    if isinstance(payload, list):
        return [_without_timing(item) for item in payload]
    return payload


def check_store() -> None:
    cache_dir = "ci-smoke-store"
    sweep_args = ["sweep", "--graph", "ring", "--size", "6",
                  "--algorithm", "fast-sim", "--label-space", "4",
                  "--cache-dir", cache_dir, "--json"]
    cold_out, cold_warnings = run_cli_capturing(sweep_args)
    cached_out, cached_warnings = run_cli_capturing(sweep_args)
    cold_payload = _without_timing(json.loads(cold_out))
    cached_payload = _without_timing(json.loads(cached_out))
    runtime = cached_payload.pop("runtime")
    if runtime["shards_executed"] != 0:
        fail(f"the second sweep was not fully cached: {runtime}")
    cold_payload.pop("runtime")
    if cold_payload != cached_payload:
        fail("the cached sweep reports differently from the cold one")
    print("sweep cold vs cached: OK")

    query_out, query_warnings = run_cli_capturing(
        ["query", "--json", "--algorithm", "fast-sim", "--cache-dir", cache_dir]
    )
    answer = json.loads(query_out)
    if answer["result"]["count"] != 1:
        fail(f"query found {answer['result']['count']} stored runs, expected 1")
    entry = answer["result"]["runs"][0]
    if entry["algorithm"] != "fast-sim":
        fail(f"query returned a foreign algorithm: {entry['algorithm']}")
    worst_time = entry["result"]["worst_time"]["time"]
    if worst_time != cold_payload["result"]["max_time"]:
        fail(
            f"stored worst time {worst_time} does not match the "
            f"sweep's {cold_payload['result']['max_time']}"
        )
    print("query --json: OK")

    clear_out, clear_warnings = run_cli_capturing(
        ["cache", "clear", "--json", "--cache-dir", cache_dir]
    )
    removed = json.loads(clear_out)["removed"]
    if removed != 1:
        fail(f"cache clear removed {removed} file(s), expected 1")
    print("cache clear --json: OK")

    offenders = internal_deprecations(
        cold_warnings + cached_warnings + query_warnings + clear_warnings
    )
    if offenders:
        lines = "\n".join(
            f"  {w.filename}:{w.lineno}: {w.message}" for w in offenders
        )
        fail(f"DeprecationWarning raised from inside src/repro:\n{lines}")


def main() -> None:
    check_help()
    check_json_commands()
    check_store()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
