"""CI smoke check for the CLI and the internal-deprecation policy.

Eleven gates, all dependency-free (run with ``python tools/ci_smoke.py``):

1. ``python -m repro --help`` exits 0 in a fresh subprocess;
2. one tiny ``sweep --json`` (and ``run --json``) on a 6-node ring runs
   end-to-end in-process and prints parseable canonical JSON;
3. ``tradeoff --json`` on the 12-ring reports the curve's three
   strategies, with Cheap's worst cost below Fast's, and a bad flag
   (``--label-space 1``) exits 1 with the validation message on stderr,
   not a traceback;
4. ``experiments list --json`` exposes the registered experiment
   catalog (all twelve EXP-NN ids);
5. ``lint --json`` reports a clean tree under every registered
   invariant rule (the shipped source must stay ``repro lint`` green);
6. ``engines --json`` lists the full simulation-engine ladder
   (reactive, compiled, cube) with a sane ``auto`` resolution;
7. the run store round-trips: a sweep run cold into a fresh
   ``--cache-dir`` (in a temporary directory, so the checkout stays
   clean) and again from the store reports identically (modulo
   the non-canonical timing section), ``query`` answers the worst-case
   lookup from the stored run without re-sweeping, ``cache compact``
   scans the one healthy file without rewriting it (and ``query``
   answers the same afterwards), and ``cache clear`` reports how many
   files it removed;
8. ``--engine`` names only the simulation substrate: ``sweep --engine
   reactive --workers 2`` and ``sweep --engine auto`` print
   byte-identical reports after ``telemetry strip --provenance``, the
   pooled run plans 16 shards and the serial store-less one a single
   shard, and the executor name ``--engine serial`` is a usage error
   (exit status 2);
9. ``certify --json`` prints a canonical ``scenario``/``result`` report
   for Theorem 3.1, and a bad flag (``--label-space 1``) exits 1 with
   the validation message on stderr, not a traceback;
10. ``experiments run exp01 --shards 0`` exits 1 with the message on
   stderr, not a traceback, and writes no report;
11. no ``DeprecationWarning`` originates from inside ``src/repro`` while
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
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def fail(message: str) -> None:
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_cli_subprocess(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a fresh interpreter, output captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def check_help() -> None:
    proc = run_cli_subprocess(["--help"])
    if proc.returncode != 0:
        fail(f"--help exited {proc.returncode}: {proc.stderr}")
    for command in ("run", "sweep", "certify", "explore", "engines",
                    "tradeoff", "experiments", "telemetry", "query",
                    "cache"):
        if command not in proc.stdout:
            fail(f"--help does not mention the {command!r} command")
    print("help: OK")


def check_clean_exit(argv: list[str], message: str) -> None:
    """``python -m repro ARGV`` exits 1 with ``message``, no traceback."""
    proc = run_cli_subprocess(argv)
    name = " ".join(argv)
    if proc.returncode != 1 or message not in proc.stderr:
        fail(f"{name} exited {proc.returncode}: {proc.stderr}")
    if "Traceback" in proc.stderr:
        fail(f"{name} printed a traceback:\n{proc.stderr}")
    print(f"{argv[0]} rejects a bad flag cleanly: OK")


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

    tradeoff_out, tradeoff_warnings = run_cli_capturing(
        ["tradeoff", "--size", "12", "--label-space", "16", "--json"]
    )
    points = {
        point["algorithm"]: point
        for point in json.loads(tradeoff_out)["result"]["points"]
    }
    expected = ["cheap-simultaneous", "fast-relabel-simultaneous(w=2)",
                "fast-simultaneous"]
    if list(points) != expected:
        fail(f"unexpected tradeoff points: {list(points)}")
    if not points[expected[0]]["max_cost"] < points[expected[2]]["max_cost"]:
        fail("tradeoff: Cheap's worst cost is not below Fast's")
    print("tradeoff --json: OK")
    check_clean_exit(
        ["tradeoff", "--size", "12", "--label-space", "1"],
        "rendezvous needs at least two labels, got L=1",
    )

    list_out, list_warnings = run_cli_capturing(["experiments", "list", "--json"])
    registered = {item["id"] for item in json.loads(list_out)["experiments"]}
    missing = {f"exp{n:02d}" for n in range(1, 13)} - registered
    if missing:
        fail(f"experiments list is missing {sorted(missing)}")
    print("experiments list --json: OK")

    lint_out, lint_warnings = run_cli_capturing(
        ["lint", "--json", "--no-cache", str(SRC)]
    )
    lint = json.loads(lint_out)
    if lint["result"]["ok"] is not True or lint["result"]["findings"] != []:
        fail(f"repro lint found violations: {lint['result']['findings']}")
    if len(lint["lint"]["rules"]) < 7:
        fail(f"lint rule registry shrank: {lint['lint']['rules']}")
    print("lint --json: OK")

    certify_out, certify_warnings = run_cli_capturing(
        ["certify", "--theorem", "3.1", "--size", "12", "--algorithm", "cheap",
         "--label-space", "8", "--json"]
    )
    certificate = json.loads(certify_out)
    if certify_out.strip() != json.dumps(
        certificate, sort_keys=True, separators=(",", ":")
    ):
        fail("certify --json is not canonical JSON")
    if set(certificate) != {"scenario", "result"}:
        fail(f"unexpected certify report blocks: {sorted(certificate)}")
    print("certify --json: OK")

    check_clean_exit(
        ["certify", "--size", "12", "--algorithm", "fast", "--label-space", "1"],
        "rendezvous needs at least two labels, got L=1",
    )

    with tempfile.TemporaryDirectory() as report_dir:
        check_clean_exit(
            ["experiments", "run", "exp01", "--quick", "--no-cache",
             "--shards", "0", "--report-dir", report_dir],
            "--shards must be >= 1, got 0",
        )
        if any(pathlib.Path(report_dir).iterdir()):
            fail("experiments run --shards 0 wrote a report")

    engines_out, engines_warnings = run_cli_capturing(["engines", "--json"])
    ladder = json.loads(engines_out)
    listed = [row["engine"] for row in ladder["engines"]]
    if listed != ["reactive", "compiled", "cube"]:
        fail(f"unexpected engine ladder: {listed}")
    if ladder["auto"]["oblivious"] not in ("cube", "compiled"):
        fail(f"unexpected auto resolution: {ladder['auto']}")
    print("engines --json: OK")

    offenders = internal_deprecations(
        sweep_warnings + run_warnings + tradeoff_warnings + list_warnings
        + lint_warnings + certify_warnings + engines_warnings
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
    with tempfile.TemporaryDirectory() as scratch:
        _check_store(os.path.join(scratch, "store"))


def _check_store(cache_dir: str) -> None:
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

    compact_out, compact_warnings = run_cli_capturing(
        ["cache", "compact", "--json", "--cache-dir", cache_dir]
    )
    compaction = json.loads(compact_out)["compaction"]
    if (compaction["files"], compaction["rewritten"]) != (1, 0):
        fail(f"cache compact of a healthy store reported {compaction}, "
             "expected 1 file scanned and none rewritten")
    requery_out, requery_warnings = run_cli_capturing(
        ["query", "--json", "--algorithm", "fast-sim", "--cache-dir", cache_dir]
    )
    if requery_out != query_out:
        fail("query answers differently after cache compact")
    print("cache compact --json: OK")

    clear_out, clear_warnings = run_cli_capturing(
        ["cache", "clear", "--json", "--cache-dir", cache_dir]
    )
    removed = json.loads(clear_out)["removed"]
    if removed != 1:
        fail(f"cache clear removed {removed} file(s), expected 1")
    print("cache clear --json: OK")

    offenders = internal_deprecations(
        cold_warnings + cached_warnings + query_warnings + compact_warnings
        + requery_warnings + clear_warnings
    )
    if offenders:
        lines = "\n".join(
            f"  {w.filename}:{w.lineno}: {w.message}" for w in offenders
        )
        fail(f"DeprecationWarning raised from inside src/repro:\n{lines}")


def check_engine_axis() -> None:
    sweep_args = ["sweep", "--graph", "ring", "--size", "6",
                  "--algorithm", "fast-sim", "--label-space", "4",
                  "--no-cache", "--json"]
    stripped = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, flags, shards in (
            ("reactive", ["--engine", "reactive", "--workers", "2"], 16),
            ("auto", ["--engine", "auto"], 1),
        ):
            report, _ = run_cli_capturing(sweep_args + flags)
            planned = json.loads(report)["runtime"]["shards_total"]
            if planned != shards:
                fail(f"sweep --engine {name} planned {planned} shards, "
                     f"expected {shards}")
            path = pathlib.Path(scratch) / f"{name}.json"
            path.write_text(report, encoding="utf-8")
            stripped[name], _ = run_cli_capturing(
                ["telemetry", "strip", "--provenance", str(path)]
            )
    if stripped["reactive"] != stripped["auto"]:
        fail("sweep --engine reactive --workers 2 and --engine auto differ")
    print("sweep --engine reactive --workers 2 == --engine auto "
          "(16 shards vs 1): OK")

    from repro.cli import main as cli_main

    try:
        with redirect_stderr(io.StringIO()):
            cli_main(sweep_args + ["--engine", "serial"])
    except SystemExit as exited:
        code = exited.code
    else:
        code = 0
    if code != 2:
        fail(f"--engine serial exited {code}, expected the usage error 2")
    print("--engine serial is a usage error: OK")


def main() -> None:
    check_help()
    check_json_commands()
    check_store()
    check_engine_axis()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
