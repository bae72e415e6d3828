"""REP011 trigger: run-store bytes written outside runtime/store/."""

import json


def sneak_results_in(root, record):
    with open(root / "runs" / "deadbeef.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
