"""REP011 clean: inside a store/ directory the run store owns the bytes.

Reading store files elsewhere stays free, too -- only writes mark a
module as a second store writer.
"""

import json


def append(root, record):
    with open(root / "runs" / "deadbeef.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def read_elsewhere(path):
    with open(path / "deadbeef.jsonl", encoding="utf-8") as handle:
        return json.load(handle)
