"""Replaying and visualising a worst-case execution.

Run with:  python examples/worst_case_replay.py

Every number in the benchmark tables comes from an adversary sweep that
remembers its argmax configuration.  This example finds the worst-time
configuration for Algorithm Fast on a 12-ring and replays it as a
space-time diagram: columns are ring nodes, rows are time points, ``A``
and ``B`` are the agents, ``*`` the meeting.

The diagram makes the algorithm's mechanism visible: while the agents'
modified labels agree, they explore in lockstep at constant distance;
at the first differing bit one keeps moving while the other idles, and
the gap closes.
"""

from repro.analysis.replay import replay_with_timeline
from repro.api import Scenario
from repro.core.labels import modified_label

RING_SIZE = 12
LABEL_SPACE = 8


def main() -> None:
    scenario = Scenario(
        graph="ring",
        graph_params={"n": RING_SIZE},
        algorithm="fast-sim",
        label_space=LABEL_SPACE,
    )
    ring = scenario.build_graph()
    algorithm = scenario.build_algorithm(ring)

    row = scenario.run(graph=ring).row
    config = row.worst_time_config
    print(f"Adversary sweep over {row.executions} executions.")
    print(f"Worst time {row.max_time} (bound {row.time_bound}) at {config}.")
    a, b = config.labels
    print(f"  M({a}) = {''.join(map(str, modified_label(a)))}")
    print(f"  M({b}) = {''.join(map(str, modified_label(b)))}")
    print()

    result, timeline = replay_with_timeline(ring, algorithm, config)
    print(timeline)
    print()
    print("Lockstep while the modified labels agree; the first differing")
    print("bit idles one agent for a full exploration window and the other")
    print("sweeps the ring onto it.")


if __name__ == "__main__":
    main()
