"""Walkthrough of the declarative Scenario API (the library's front door).

Run with:  python examples/scenario_api.py

A scenario is the paper's claim shape written as plain data: graph family
x algorithm x knowledge model x presence model x delay grid.  Names
resolve through the registries in ``repro.registry``, so adding a family
or algorithm to the registry makes it available here -- and in the CLI,
the runtime workers, and JSON configuration files -- with no new code
path.
"""

import json

from repro import ALGORITHMS, GRAPH_FAMILIES, Scenario, Sweep


def main() -> None:
    print("Registered graph families:", ", ".join(GRAPH_FAMILIES.names()))
    print("Registered algorithms:   ", ", ".join(ALGORITHMS.names()))
    print()

    # -- One scenario: Fast on the oriented 12-ring ---------------------
    scenario = Scenario(
        graph="ring",
        graph_params={"n": 12},
        algorithm="fast-sim",
        label_space=4,
    )
    print(f"Scenario: {scenario.label}")
    print(f"  configuration space: {scenario.config_space_size()} "
          f"(fix_first_start={scenario.resolved_fix_first_start}, "
          "derived from the family's vertex-transitivity)")

    # run() is the single entry point: engine= picks the simulation
    # substrate (the default "auto" picks the fastest sound one) and
    # workers= the executor -- without it, small jobs run in-process and
    # large ones on the sharded process pool.  Reports are byte-identical
    # either way.
    outcome = scenario.run(engine="reactive", workers=1)
    row = outcome.row
    print(f"  worst time {row.max_time} <= paper bound {row.time_bound}")
    print(f"  worst cost {row.max_cost} <= paper bound {row.cost_bound}")
    print(f"  runtime: {outcome.stats.summary()}")
    print()

    # -- Scenarios are data: JSON in, JSON out ---------------------------
    wire = scenario.to_json()
    print("Canonical JSON form:")
    print("  " + wire)
    assert Scenario.from_json(wire) == scenario

    parallel = scenario.run(engine="reactive", workers=2)
    assert parallel.to_json() == outcome.to_json()  # byte-identical report
    print("serial and parallel reports are byte-identical.")
    print()

    # -- One concrete execution instead of a worst-case sweep ------------
    result = scenario.simulate(labels=(1, 3), starts=(0, 5))
    print(f"Single execution: {result.summary}")
    print()

    # -- A Sweep: the same scenario swept over a grid of axes ------------
    sweep = Sweep.over(
        scenario,
        algorithm=["cheap-sim", "fast-sim"],
        label_space=[3, 4],
    )
    print(f"Sweep over {len(sweep)} grid points:")
    for run in sweep.run(engine="reactive", workers=1).runs:
        r = run.row
        print(f"  {r.algorithm:<22} L={r.label_space}: "
              f"time {r.max_time:>3} (<= {r.time_bound:>3}), "
              f"cost {r.max_cost:>3} (<= {r.cost_bound:>3})")
    print()

    # Sweeps serialise too -- a JSON file can define a whole experiment.
    payload = json.loads(sweep.to_json())
    assert Sweep.from_dict(payload) == sweep
    print("Sweep round-trips through JSON; ship experiments as config files.")


if __name__ == "__main__":
    main()
