"""The record's bytes: store lines and merged reports decode and re-encode exactly.

The literals were written by the runtime before its shard and merged
reports became :class:`~repro.sim.adversary.WorstCaseReport`\\ s: a run
store ``shard`` line with both extremes, two failures and a timing
section, and the merged report of the same sweep (``cheap``, L=3, on a
4-ring, delays 0 and 1, horizon 16).  A change to the record types that
moved a key, a list or a number would break the run store's cache for
every earlier file and every pinned report digest.
"""

import json

from repro.runtime import MergedReport, ShardReport

SHARD_LINE = (
    '{"kind": "shard", "report": {"executions": 6, "failures": [{"delay": 0, '
    '"index": 20, "labels": [2, 3], "starts": [0, 2]}, {"delay": 1, "index": 21, '
    '"labels": [2, 3], "starts": [0, 2]}], "shard": [16, 22], "timing": {"engine": '
    '"reactive", "path": "stream", "seconds": 0.002346, "table_seconds": 0.0}, '
    '"worst_cost": {"cost": 7, "delay": 0, "index": 16, "labels": [2, 1], "starts": '
    '[0, 3], "time": 10}, "worst_time": {"cost": 7, "delay": 0, "index": 18, '
    '"labels": [2, 3], "starts": [0, 1], "time": 16}}}'
)

MERGED = (
    '{"executions": 36, "failures": [{"delay": 0, "index": 20, "labels": [2, 3], '
    '"starts": [0, 2]}, {"delay": 1, "index": 21, "labels": [2, 3], "starts": '
    '[0, 2]}, {"delay": 0, "index": 22, "labels": [2, 3], "starts": [0, 3]}, '
    '{"delay": 1, "index": 23, "labels": [2, 3], "starts": [0, 3]}, {"delay": 0, '
    '"index": 30, "labels": [3, 2], "starts": [0, 1]}, {"delay": 0, "index": 32, '
    '"labels": [3, 2], "starts": [0, 2]}, {"delay": 1, "index": 33, "labels": '
    '[3, 2], "starts": [0, 2]}, {"delay": 1, "index": 35, "labels": [3, 2], '
    '"starts": [0, 3]}], "shards": 4, "worst_cost": {"cost": 9, "delay": 0, '
    '"index": 4, "labels": [1, 2], "starts": [0, 3], "time": 12}, "worst_time": '
    '{"cost": 7, "delay": 0, "index": 18, "labels": [2, 3], "starts": [0, 1], '
    '"time": 16}}'
)


def test_a_store_shard_line_reencodes_byte_for_byte():
    report = ShardReport.from_dict(json.loads(SHARD_LINE)["report"])
    assert len(report.failures) == 2
    assert report.worst_time.index == 18 and report.worst_cost.index == 16
    line = json.dumps({"kind": "shard", "report": report.to_dict()}, sort_keys=True)
    assert line == SHARD_LINE


def test_a_merged_report_reencodes_byte_for_byte():
    report = MergedReport.from_dict(json.loads(MERGED))
    assert (report.max_time, report.max_cost, report.shards) == (16, 9, 4)
    assert json.dumps(report.to_dict(), sort_keys=True) == MERGED
