"""The time/cost tradeoff curve, measured and plotted.

Run with:  python examples/tradeoff_curve.py

Reproduces the paper's headline picture on one instance: Algorithm Cheap
at the cheap/slow end, Algorithm Fast at the expensive/fast end, and
FastWithRelabeling(w) interpolating between them, with the shared-label
oracle as the unreachable reference point.  This is experiment EXP-08:
its label pairs, strategies and oracle are the curve's, and its report
renders the table, the plot and the checked frontier ordering.
"""

from repro.experiments import render_report, run_experiment


def main() -> None:
    for line in render_report(run_experiment("exp08")):
        print(line)
    print()
    print("Reading the curve: each extra exploration of cost buys an")
    print("exponential reduction in waiting time -- and the paper's lower")
    print("bounds show the two ends cannot be improved.")


if __name__ == "__main__":
    main()
