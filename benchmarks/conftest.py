"""Shared fixtures for the benchmark harness (``bench_engine.py``).

Experiment reports are not benchmarked here: run
``python -m repro experiments run <id>`` for those.
"""

import pytest


@pytest.fixture
def report(capsys):
    """Print a table or list of lines, bypassing output capture."""

    def emit(payload):
        with capsys.disabled():
            if hasattr(payload, "render"):
                print()
                print(payload.render())
                print()
            elif isinstance(payload, str):
                print(payload)
            else:
                print()
                for line in payload:
                    print(line)
                print()

    return emit
