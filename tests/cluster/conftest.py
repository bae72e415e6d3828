"""Shared fixtures for the cluster suite.

The sweep is deliberately tiny (60 configurations, 4 shards) so each
test that spawns real worker processes stays fast; the serial baseline
is computed once per session and compared byte-for-byte (canonical
JSON, provenance stripped) against every cluster execution.
"""

import json

import pytest

from repro.api import Scenario
from repro.obs import strip_provenance

SCENARIO_FIELDS = dict(
    graph="ring", graph_params={"n": 6}, algorithm="fast-sim", label_space=4
)


@pytest.fixture
def scenario():
    return Scenario(**SCENARIO_FIELDS)


def canonical(run):
    """The comparison key: canonical JSON minus timing/provenance."""
    return json.dumps(strip_provenance(run.to_dict()), sort_keys=True)


@pytest.fixture(scope="session")
def serial_baseline():
    run = Scenario(**SCENARIO_FIELDS).run(
        engine="reactive", workers=1, cache=False, shard_count=4
    )
    return canonical(run)
