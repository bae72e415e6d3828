"""The registered experiment catalog: EXP-01…12 plus the extensions.

This module is the single source of truth for every experiment's
instance constants (ring sizes, label spaces, adversarial pairs, delay
grids), its paper-bound assertions and its table renderer -- the data
that used to be copy-pasted across per-experiment bench scripts.
Each experiment registers by id in :data:`repro.registry.EXPERIMENTS`
(with the ``--quick`` profile shrinking the grid through the same
definitions) and runs through
:func:`repro.experiments.campaign.run_experiment`
(``python -m repro experiments run <id>``).

Scenario-shaped experiments express their grids as declarative
:class:`~repro.api.Scenario` units; the rest (certificates, baselines,
ablations, memory accounting) measure in plain code under ``measure``.
Both feed the same JSON-shaped report machinery.
"""

from __future__ import annotations

import itertools
import random
from math import log10, log2
from typing import Any, Mapping, Sequence

from repro.analysis.ascii_plot import scatter_plot
from repro.analysis.memory import (
    dfs_walk_bits,
    map_bits,
    profile,
    ring_size_bits,
    uxs_bits,
)
from repro.analysis.tables import Table, format_ratio
from repro.api import Scenario
from repro.baselines.oracle import OracleBaseline
from repro.baselines.ring_zigzag import RingZigzag
from repro.core.ablations import CheapShortWait, FastNoDelimiter, FastNoDoubling
from repro.core.bounds import thm31_time_lower
from repro.core.cheap import CheapSimultaneous
from repro.core.fast import Fast, FastSimultaneous
from repro.core.relabeling import smallest_t
from repro.core.unknown_e import IteratedDoublingRendezvous, ring_level_factory
from repro.experiments.base import (
    Check,
    Experiment,
    ExperimentContext,
    ExperimentReport,
    check,
)
from repro.exploration import (
    KnowledgeModel,
    best_exploration,
    measure_exploration,
)
from repro.exploration.dfs import KnownMapDFS
from repro.exploration.ring import RingExploration
from repro.exploration.uxs import build_verified_uxs
from repro.graphs.families import oriented_ring, standard_test_suite, star_graph
from repro.lower_bounds.certificates import certify_theorem_31, certify_theorem_32
from repro.lower_bounds.trim import trimmed_from_algorithm
from repro.registry import EXPERIMENTS
from repro.sim.adversary import (
    ConfigCube,
    WorstCaseReport,
    all_label_pairs,
    worst_case_search,
)
from repro.sim.compiled import TrajectoryTable
from repro.sim.gathering import gather

# ----------------------------------------------------------------------
# Shared instance constants (previously duplicated across bench scripts)
# ----------------------------------------------------------------------

#: The paper's standard lower-bound instance: the oriented ring with
#: ``6 | n`` that Section 3's proofs use.
RING_SIZE = 12

#: The optimal exploration budget on that ring, ``E = n - 1``.
RING_BUDGET = RING_SIZE - 1


def adversarial_pairs(label_space: int) -> tuple[tuple[int, int], ...]:
    """Lex-adjacent ranks and extremes -- the label pairs that stress
    relabeling-based schedules when exhaustive enumeration is infeasible."""
    return (
        (label_space - 1, label_space),
        (label_space // 2, label_space // 2 + 1),
        (1, 2),
        (1, label_space),
    )


def ring_scenario(
    algorithm: str,
    label_space: int,
    *,
    n: int = RING_SIZE,
    delays: Sequence[int] = (0,),
    label_pairs: Sequence[tuple[int, int]] | None = None,
    weight: int = 2,
    presence: str = "from-start",
) -> Scenario:
    """A Scenario on the oriented ``n``-ring (start pinning is derived)."""
    return Scenario(
        graph="ring",
        graph_params={"n": n},
        algorithm=algorithm,
        label_space=label_space,
        weight=weight,
        delays=tuple(delays),
        label_pairs=label_pairs,
        presence=presence,
    )


# ----------------------------------------------------------------------
# Shared check and render helpers
# ----------------------------------------------------------------------


def _bound_checks(ctx: ExperimentContext) -> list[Check]:
    """Time/cost within the paper bound, for every grid unit."""
    out = []
    for key, res in ctx.results():
        out.append(
            check(
                f"{key}: time within bound",
                res["time_within_bound"],
                f"max_time={res['max_time']} <= {res['time_bound']} "
                f"(margin {res['time_bound'] - res['max_time']})",
            )
        )
        out.append(
            check(
                f"{key}: cost within bound",
                res["cost_within_bound"],
                f"max_cost={res['max_cost']} <= {res['cost_bound']} "
                f"(margin {res['cost_bound'] - res['max_cost']})",
            )
        )
    return out


def _worst_case(graph, factory, label_pairs, start_pairs=None) -> WorstCaseReport:
    """The worst case of ``factory`` with the first agent at node 0, at delay 0.

    One :func:`worst_case_search` on the engine ladder (``auto``) with the
    default horizon -- how a measurement sweeps live objects that have no
    registry name.  ``start_pairs`` defaults to ``(0, b)`` for every other
    node ``b``.  Any failure to meet raises.
    """
    cube = ConfigCube.make(
        graph, label_pairs, start_pairs=start_pairs, fix_first_start=True
    )
    report = worst_case_search(graph, factory, cube, engine="auto")
    if report.failures:
        raise AssertionError(
            f"no meeting in {len(report.failures)} configurations, "
            f"e.g. {report.failures[0][1]}"
        )
    return report


def _graph_label(unit: Mapping[str, Any]) -> str:
    graph = unit["scenario"]["graph"]
    inner = ",".join(f"{k}={v}" for k, v in sorted(graph["params"].items()))
    return f"{graph['family']}({inner})"


def _register(experiment: Experiment, order: int) -> Experiment:
    EXPERIMENTS.register(
        experiment.id, order=order, exp_id=experiment.exp_id
    )(experiment)
    return experiment


# ----------------------------------------------------------------------
# EXP-01  Cheap, simultaneous start
# ----------------------------------------------------------------------

#: (family, params) per instance; ring and complete are registered as
#: vertex-transitive, so start pinning is derived, not repeated here.
EXP01_GRAPHS = (
    ("ring", {"n": RING_SIZE}),
    ("star", {"n": 9}),
    ("tree", {"depth": 2}),
    ("complete", {"n": 6}),
)
EXP01_LABEL_SPACES = (4, 8)
EXP01_QUICK_GRAPHS = (("ring", {"n": RING_SIZE}), ("star", {"n": 9}))
EXP01_QUICK_LABEL_SPACES = (4,)


def _exp01_scenarios(quick: bool):
    graphs = EXP01_QUICK_GRAPHS if quick else EXP01_GRAPHS
    label_spaces = EXP01_QUICK_LABEL_SPACES if quick else EXP01_LABEL_SPACES
    return [
        (
            f"{family}-L{label_space}",
            Scenario(
                graph=family,
                graph_params=params,
                algorithm="cheap-sim",
                label_space=label_space,
            ),
        )
        for family, params in graphs
        for label_space in label_spaces
    ]


def _exp01_assess(ctx: ExperimentContext) -> list[Check]:
    checks = _bound_checks(ctx)
    for key, res in ctx.results():
        if key.startswith("ring-"):
            checks.append(
                check(
                    f"{key}: cost on the oriented ring is exactly E",
                    res["max_cost"] == RING_BUDGET,
                    f"max_cost={res['max_cost']}, E={RING_BUDGET}",
                )
            )
    return checks


def _exp01_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-01  Cheap, simultaneous start: cost = one exploration, time <= l E",
        ["graph", "L", "E", "worst cost", "cost bound E", "worst time",
         "time bound (L-1)E", "time usage"],
    )
    for unit in report.units:
        res = unit["result"]
        table.add_row(
            _graph_label(unit), res["label_space"], res["exploration_budget"],
            res["max_cost"], res["cost_bound"],
            res["max_time"], res["time_bound"],
            format_ratio(res["max_time"], res["time_bound"]),
        )
    return [table.render()]


EXP01 = _register(
    Experiment(
        id="exp01",
        exp_id="EXP-01",
        title="Cheap with simultaneous start",
        claim="Cheap (simultaneous): cost = one exploration, time `<= (L+1)E`",
        source="Section 2",
        verdict_text=(
            "reproduced — bounds hold on oriented rings across `L`, "
            "time grows linearly in `L`"
        ),
        assess=_exp01_assess,
        scenarios=_exp01_scenarios,
        render=_exp01_render,
    ),
    order=1,
)


# ----------------------------------------------------------------------
# EXP-02  Proposition 2.1: Cheap under arbitrary delays
# ----------------------------------------------------------------------

EXP02_LABEL_SPACE = 5
#: (family, params, E) -- the budget is recorded so the delay grid
#: (fractions and multiples of E) has one explicit source, and a check
#: pins the measured budget to it.
EXP02_GRAPHS = (
    ("ring", {"n": RING_SIZE}, RING_BUDGET),
    ("star", {"n": 8}, 2 * 8 - 3),
)


def _exp02_delays(budget: int, quick: bool) -> tuple[int, ...]:
    if quick:
        return (0, budget, 2 * budget)
    return (0, budget // 2, budget, 2 * budget)


def _exp02_scenarios(quick: bool):
    graphs = EXP02_GRAPHS[:1] if quick else EXP02_GRAPHS
    units = []
    for family, params, budget in graphs:
        for delay in _exp02_delays(budget, quick):
            units.append(
                (
                    f"{family}-d{delay}",
                    Scenario(
                        graph=family,
                        graph_params=params,
                        algorithm="cheap",
                        label_space=EXP02_LABEL_SPACE,
                        delays=(delay,),
                    ),
                )
            )
    return units


def _exp02_assess(ctx: ExperimentContext) -> list[Check]:
    checks = _bound_checks(ctx)
    budgets = {family: budget for family, _, budget in EXP02_GRAPHS}
    for key, res in ctx.results():
        family = key.split("-d")[0]
        checks.append(
            check(
                f"{key}: exploration budget matches the declared constant",
                res["exploration_budget"] == budgets[family],
                f"E={res['exploration_budget']}, expected {budgets[family]}",
            )
        )
    return checks


def _exp02_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-02  Prop 2.1: Cheap with delays: cost <= 3E, time <= (2L+1)E",
        ["graph", "E", "delay", "worst cost", "3E", "cost usage",
         "worst time", "(2L+1)E", "time usage"],
    )
    for unit in report.units:
        res = unit["result"]
        table.add_row(
            _graph_label(unit), res["exploration_budget"],
            unit["scenario"]["delays"][0],
            res["max_cost"], res["cost_bound"],
            format_ratio(res["max_cost"], res["cost_bound"]),
            res["max_time"], res["time_bound"],
            format_ratio(res["max_time"], res["time_bound"]),
        )
    return [
        table.render(),
        "Shape check: the bounds hold uniformly across all delays",
        "(for delay > E the sleeping agent is found within the first E rounds).",
    ]


EXP02 = _register(
    Experiment(
        id="exp02",
        exp_id="EXP-02",
        title="Cheap under arbitrary delays",
        claim="Prop 2.1: Cheap under delays: cost `<= 3E`, time `<= (2l+3)E`",
        source="Proposition 2.1",
        verdict_text="reproduced — uniform in the adversary's delay",
        assess=_exp02_assess,
        scenarios=_exp02_scenarios,
        render=_exp02_render,
    ),
    order=2,
)


# ----------------------------------------------------------------------
# EXP-03  Fast, simultaneous start
# ----------------------------------------------------------------------

EXP03_LABEL_SPACES = (4, 8, 16, 32)
EXP03_QUICK_LABEL_SPACES = (4, 8)


def _exp03_scenarios(quick: bool):
    label_spaces = EXP03_QUICK_LABEL_SPACES if quick else EXP03_LABEL_SPACES
    return [
        (f"L{label_space}", ring_scenario("fast-sim", label_space))
        for label_space in label_spaces
    ]


def _exp03_assess(ctx: ExperimentContext) -> list[Check]:
    checks = _bound_checks(ctx)
    results = [res for _, res in ctx.results()]
    budget = results[0]["exploration_budget"]
    times = [res["max_time"] for res in results]
    for earlier, later, res in zip(times, times[1:], results[1:]):
        checks.append(
            check(
                f"L{res['label_space']}: doubling L adds at most 2E rounds",
                later - earlier <= 2 * budget,
                f"+{later - earlier} rounds <= 2E={2 * budget}",
            )
        )
    return checks


def _exp03_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-03  Fast, simultaneous start: time <= (2 floor(log(L-1)) + 4) E",
        ["L", "E", "worst time", "bound", "usage", "worst cost", "2x bound"],
    )
    for unit in report.units:
        res = unit["result"]
        table.add_row(
            res["label_space"], res["exploration_budget"],
            res["max_time"], res["time_bound"],
            format_ratio(res["max_time"], res["time_bound"]),
            res["max_cost"], res["cost_bound"],
        )
    return [
        table.render(),
        "Shape check: each doubling of L adds at most 2E rounds -- log growth.",
    ]


EXP03 = _register(
    Experiment(
        id="exp03",
        exp_id="EXP-03",
        title="Fast with simultaneous start",
        claim="Fast (simultaneous): time `<= (2 floor(log(L-1)) + 4)E`",
        source="Section 2",
        verdict_text=(
            "reproduced — doubling `L` adds at most `2E` rounds (log growth)"
        ),
        assess=_exp03_assess,
        scenarios=_exp03_scenarios,
        render=_exp03_render,
    ),
    order=3,
)


# ----------------------------------------------------------------------
# EXP-04  Proposition 2.2: Fast under arbitrary delays
# ----------------------------------------------------------------------

EXP04_LABEL_SPACES = (4, 16)
EXP04_DELAYS = (0, RING_BUDGET, 3 * RING_BUDGET)
EXP04_QUICK_LABEL_SPACES = (4,)
EXP04_QUICK_DELAYS = (0, RING_BUDGET)


def _exp04_scenarios(quick: bool):
    label_spaces = EXP04_QUICK_LABEL_SPACES if quick else EXP04_LABEL_SPACES
    delays = EXP04_QUICK_DELAYS if quick else EXP04_DELAYS
    return [
        (
            f"L{label_space}-d{delay}",
            ring_scenario("fast", label_space, delays=(delay,)),
        )
        for label_space in label_spaces
        for delay in delays
    ]


def _exp04_assess(ctx: ExperimentContext) -> list[Check]:
    checks = _bound_checks(ctx)
    for key, res in ctx.results():
        checks.append(
            check(
                f"{key}: cost stays within twice the time bound",
                res["max_cost"] <= 2 * res["time_bound"],
                f"max_cost={res['max_cost']} <= 2*{res['time_bound']}",
            )
        )
    return checks


def _exp04_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-04  Prop 2.2: Fast with delays: time <= (4 log(L-1) + 9) E, "
        "cost <= 2 time",
        ["L", "delay", "worst time", "time bound", "usage",
         "worst cost", "cost bound"],
    )
    for unit in report.units:
        res = unit["result"]
        table.add_row(
            res["label_space"], unit["scenario"]["delays"][0],
            res["max_time"], res["time_bound"],
            format_ratio(res["max_time"], res["time_bound"]),
            res["max_cost"], res["cost_bound"],
        )
    return [table.render()]


EXP04 = _register(
    Experiment(
        id="exp04",
        exp_id="EXP-04",
        title="Fast under arbitrary delays",
        claim="Prop 2.2: Fast under delays: time `<= (4 log(L-1)+9)E`",
        source="Proposition 2.2",
        verdict_text="reproduced — cost stays within twice the time bound",
        assess=_exp04_assess,
        scenarios=_exp04_scenarios,
        render=_exp04_render,
    ),
    order=4,
)


# ----------------------------------------------------------------------
# EXP-05  Proposition 2.3 / Corollary 2.1: FastWithRelabeling(w)
# ----------------------------------------------------------------------

EXP05_WEIGHTS = (1, 2, 3)
EXP05_LABEL_SPACES = (8, 64, 256)
EXP05_QUICK_WEIGHTS = (1, 3)
EXP05_QUICK_LABEL_SPACES = (8, 64)


def _exp05_grid(quick: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if quick:
        return EXP05_QUICK_WEIGHTS, EXP05_QUICK_LABEL_SPACES
    return EXP05_WEIGHTS, EXP05_LABEL_SPACES


def _exp05_scenarios(quick: bool):
    weights, label_spaces = _exp05_grid(quick)
    return [
        (
            f"w{weight}-L{label_space}",
            ring_scenario(
                "fwr-sim",
                label_space,
                weight=weight,
                label_pairs=adversarial_pairs(label_space),
            ),
        )
        for weight in weights
        for label_space in label_spaces
    ]


def _exp05_measure(quick: bool) -> Mapping[str, Any]:
    weights, label_spaces = _exp05_grid(quick)
    return {
        "label_length": {
            f"w{weight}-L{label_space}": smallest_t(label_space, weight)
            for weight in weights
            for label_space in label_spaces
        },
    }


def _exp05_assess(ctx: ExperimentContext) -> list[Check]:
    checks = _bound_checks(ctx)
    weights, label_spaces = _exp05_grid(ctx.quick)
    for weight in weights:
        costs = [
            ctx.result(f"w{weight}-L{ls}")["max_cost"] for ls in label_spaces
        ]
        checks.append(
            check(
                f"w{weight}: measured cost is flat in L (within 2wE)",
                max(costs) <= 2 * weight * RING_BUDGET,
                f"max over L of max_cost={max(costs)} <= {2 * weight * RING_BUDGET}",
            )
        )
    largest = max(label_spaces)
    low = ctx.result(f"w{min(weights)}-L{largest}")["max_time"]
    high = ctx.result(f"w{max(weights)}-L{largest}")["max_time"]
    checks.append(
        check(
            f"L{largest}: larger w trades cost for time",
            low > high,
            f"time(w={min(weights)})={low} > time(w={max(weights)})={high}",
        )
    )
    return checks


def _exp05_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-05  Prop 2.3 / Cor 2.1: FastWithRelabeling(w): cost <= 2wE flat "
        "in L, time grows like L^(1/w)",
        ["w", "L", "t", "worst cost", "2wE", "worst time", "t*E bound", "usage"],
    )
    lengths = report.measurements["label_length"]
    for unit in report.units:
        res = unit["result"]
        algo = unit["scenario"]["algorithm"]
        table.add_row(
            algo["weight"], res["label_space"], lengths[unit["key"]],
            res["max_cost"], res["cost_bound"],
            res["max_time"], res["time_bound"],
            format_ratio(res["max_time"], res["time_bound"]),
        )
    return [
        table.render(),
        "Shape checks: measured cost stays within 2wE for every L "
        "(the relabeling's purpose);",
        "label length t follows smallest_t -- the L^(1/w) shape.",
    ]


EXP05 = _register(
    Experiment(
        id="exp05",
        exp_id="EXP-05",
        title="FastWithRelabeling interpolates",
        claim="Prop 2.3 / Cor 2.1: FastWithRelabeling: cost `O(E)`, time `o(EL)`",
        source="Proposition 2.3, Corollary 2.1",
        verdict_text=(
            "reproduced — measured time/cost sit between the Cheap and "
            "Fast endpoints"
        ),
        assess=_exp05_assess,
        scenarios=_exp05_scenarios,
        measure=_exp05_measure,
        render=_exp05_render,
    ),
    order=5,
)


# ----------------------------------------------------------------------
# EXP-06  Theorem 3.1 certificate on Cheap
# ----------------------------------------------------------------------

EXP06_LABEL_SPACES = (4, 8, 12, 16)
EXP06_QUICK_LABEL_SPACES = (4, 16)


def _exp06_label_spaces(quick: bool) -> tuple[int, ...]:
    return EXP06_QUICK_LABEL_SPACES if quick else EXP06_LABEL_SPACES


def _exp06_measure(quick: bool) -> Mapping[str, Any]:
    label_spaces = _exp06_label_spaces(quick)
    rows = {}
    for label_space in label_spaces:
        algorithm = CheapSimultaneous(RingExploration(RING_SIZE), label_space)
        certificate = certify_theorem_31(
            trimmed_from_algorithm(algorithm, RING_SIZE)
        )
        rows[f"L{label_space}"] = {
            "slack": certificate.slack,
            "facts": {
                "3.3": certificate.fact_33_holds,
                "3.5": certificate.fact_35_holds,
                "3.6": certificate.fact_36_holds,
                "3.7": certificate.fact_37_holds,
                "3.8": certificate.fact_38_holds,
            },
            "all_facts_hold": certificate.all_facts_hold,
            "chain_length": len(certificate.chain_times),
            "realized_final_time": certificate.realized_final_time,
            "predicted_time_lower": certificate.predicted_time_lower,
            "paper_curve": thm31_time_lower(label_space, RING_BUDGET),
        }
    return {"label_spaces": list(label_spaces), "certificates": rows}


def _exp06_assess(ctx: ExperimentContext) -> list[Check]:
    checks = []
    label_spaces = ctx.measurements["label_spaces"]
    rows = ctx.measurements["certificates"]
    for label_space in label_spaces:
        row = rows[f"L{label_space}"]
        checks.append(
            check(
                f"L{label_space}: Facts 3.3-3.8 all hold",
                row["all_facts_hold"],
                str(row["facts"]),
            )
        )
        checks.append(
            check(
                f"L{label_space}: Cheap's cost slack phi is 0",
                row["slack"] == 0,
                f"phi={row['slack']}",
            )
        )
        checks.append(
            check(
                f"L{label_space}: realized chain time >= predicted lower",
                row["realized_final_time"] >= row["predicted_time_lower"],
                f"{row['realized_final_time']} >= "
                f"{row['predicted_time_lower']:.1f}",
            )
        )
    lo, hi = min(label_spaces), max(label_spaces)
    final_lo = rows[f"L{lo}"]["realized_final_time"]
    final_hi = rows[f"L{hi}"]["realized_final_time"]
    checks.append(
        check(
            "final chain time grows linearly in L",
            final_hi >= 3 * final_lo,
            f"time(L={hi})={final_hi} >= 3*time(L={lo})={3 * final_lo}",
        )
    )
    return checks


def _exp06_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-06  Thm 3.1 certificate on Cheap (phi = 0): chain grows ~F/2 "
        "per link => time Omega(EL)",
        ["L", "phi", "facts 3.3/3.5/3.7/3.8", "chain len", "final |alpha|",
         "predicted lower", "paper curve (L/2-1)(F)/2"],
    )
    for label_space in report.measurements["label_spaces"]:
        row = report.measurements["certificates"][f"L{label_space}"]
        facts = "/".join(
            "ok" if row["facts"][fact] else "FAIL"
            for fact in ("3.3", "3.5", "3.7", "3.8")
        )
        table.add_row(
            label_space, row["slack"], facts, row["chain_length"],
            row["realized_final_time"],
            f"{row['predicted_time_lower']:.1f}",
            f"{row['paper_curve']:.1f}",
        )
    return [
        table.render(),
        "All facts of the Theorem 3.1 argument hold on Cheap's vectors, and the",
        "realized chain time grows linearly in L: the Omega(EL) mechanism is live.",
    ]


EXP06 = _register(
    Experiment(
        id="exp06",
        exp_id="EXP-06",
        title="Theorem 3.1 certificate",
        claim="Thm 3.1: cost `E + o(E)` ⇒ time `Omega(EL)`",
        source="Theorem 3.1",
        verdict_text=(
            "reproduced — certificate (Facts 3.3–3.8) checks on the "
            "trimmed behaviours"
        ),
        assess=_exp06_assess,
        measure=_exp06_measure,
        render=_exp06_render,
    ),
    order=6,
)


# ----------------------------------------------------------------------
# EXP-07  Theorem 3.2 certificate on Fast
# ----------------------------------------------------------------------

EXP07_LABEL_SPACES = (4, 8, 16, 32)
#: Larger instances showing the bound scales in E.
EXP07_SCALING_CASES = ((12, 16), (24, 16), (36, 16))
EXP07_QUICK_LABEL_SPACES = (4, 32)
EXP07_QUICK_SCALING_CASES = ((12, 16), (24, 16))


def _exp07_certificate_row(ring_size: int, label_space: int) -> dict[str, Any]:
    algorithm = FastSimultaneous(RingExploration(ring_size), label_space)
    certificate = certify_theorem_32(trimmed_from_algorithm(algorithm, ring_size))
    return {
        "facts": {
            "3.9": certificate.fact_39_holds,
            "3.12-14": certificate.invariants_hold,
            "3.15": certificate.distinct_within_classes,
            "3.17": certificate.fact_317_holds,
        },
        "all_facts_hold": certificate.all_facts_hold,
        "max_weight": certificate.max_weight,
        "implied_cost_lower": certificate.implied_cost_lower,
        "measured_max_cost": certificate.measured_max_cost,
    }


def _exp07_measure(quick: bool) -> Mapping[str, Any]:
    label_spaces = EXP07_QUICK_LABEL_SPACES if quick else EXP07_LABEL_SPACES
    scaling = EXP07_QUICK_SCALING_CASES if quick else EXP07_SCALING_CASES
    return {
        "label_spaces": list(label_spaces),
        "certificates": {
            f"L{label_space}": _exp07_certificate_row(RING_SIZE, label_space)
            for label_space in label_spaces
        },
        "scaling_cases": [list(case) for case in scaling],
        "scaling": {
            f"n{ring_size}-L{label_space}": _exp07_certificate_row(
                ring_size, label_space
            )
            for ring_size, label_space in scaling
        },
    }


def _exp07_assess(ctx: ExperimentContext) -> list[Check]:
    checks = []
    label_spaces = ctx.measurements["label_spaces"]
    rows = ctx.measurements["certificates"]
    for label_space in label_spaces:
        row = rows[f"L{label_space}"]
        checks.append(
            check(
                f"L{label_space}: Facts 3.9-3.17 all hold",
                row["all_facts_hold"],
                str(row["facts"]),
            )
        )
        checks.append(
            check(
                f"L{label_space}: measured cost >= implied lower bound",
                row["measured_max_cost"] >= row["implied_cost_lower"],
                f"{row['measured_max_cost']} >= {row['implied_cost_lower']:.1f}",
            )
        )
    lo, hi = min(label_spaces), max(label_spaces)
    checks.append(
        check(
            "progress weight grows with log L",
            rows[f"L{hi}"]["max_weight"] > rows[f"L{lo}"]["max_weight"],
            f"k(L={hi})={rows[f'L{hi}']['max_weight']} > "
            f"k(L={lo})={rows[f'L{lo}']['max_weight']}",
        )
    )
    for ring_size, label_space in ctx.measurements["scaling_cases"]:
        row = ctx.measurements["scaling"][f"n{ring_size}-L{label_space}"]
        checks.append(
            check(
                f"n{ring_size}: certificate holds and bound scales with E",
                row["all_facts_hold"]
                and row["measured_max_cost"] >= row["implied_cost_lower"],
                f"cost {row['measured_max_cost']} >= "
                f"{row['implied_cost_lower']:.1f}",
            )
        )
    return checks


def _exp07_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-07  Thm 3.2 certificate on Fast: progress weight k ~ log L "
        "=> cost >= kE/6",
        ["L", "facts 3.9/3.12-14/3.15/3.17", "max k", "k per log L",
         "implied cost lower", "measured max cost", "cost per E log L"],
    )
    for label_space in report.measurements["label_spaces"]:
        row = report.measurements["certificates"][f"L{label_space}"]
        facts = "/".join(
            "ok" if row["facts"][fact] else "FAIL"
            for fact in ("3.9", "3.12-14", "3.15", "3.17")
        )
        log_l = log2(label_space)
        table.add_row(
            label_space, facts, row["max_weight"],
            f"{row['max_weight'] / log_l:.2f}",
            f"{row['implied_cost_lower']:.1f}",
            row["measured_max_cost"],
            f"{row['measured_max_cost'] / (RING_BUDGET * log_l):.2f}",
        )
    table2 = Table(
        "EXP-07b  The same certificate across ring sizes (bound scales with E)",
        ["n", "E", "L", "max k", "implied cost lower", "measured max cost"],
    )
    for ring_size, label_space in report.measurements["scaling_cases"]:
        row = report.measurements["scaling"][f"n{ring_size}-L{label_space}"]
        table2.add_row(
            ring_size, ring_size - 1, label_space, row["max_weight"],
            f"{row['implied_cost_lower']:.1f}", row["measured_max_cost"],
        )
    return [
        table.render(),
        table2.render(),
        "All facts of the Theorem 3.2 argument hold; progress weight and measured",
        "cost both track log L, and the implied bound scales with E -- Fast sits",
        "on the Omega(E log L) cost floor in both parameters.",
    ]


EXP07 = _register(
    Experiment(
        id="exp07",
        exp_id="EXP-07",
        title="Theorem 3.2 certificate",
        claim="Thm 3.2: time `O(E log L)` ⇒ cost `Omega(E log L)`",
        source="Theorem 3.2",
        verdict_text=(
            "reproduced — certificate (Facts 3.9–3.17) checks on Fast's "
            "trimmed behaviours"
        ),
        assess=_exp07_assess,
        measure=_exp07_measure,
        render=_exp07_render,
    ),
    order=7,
)


# ----------------------------------------------------------------------
# EXP-08  The time/cost tradeoff curve
# ----------------------------------------------------------------------

EXP08_LABEL_SPACE = 1024
EXP08_PAIRS = ((1022, 1023), (1023, 1024), (511, 512), (1, 2), (1, 1024))
#: The quick subset keeps (1022,1023) -- the pair that maximises Fast's
#: cost -- and (1,2) -- the one that maximises FWR(2)'s time -- so the
#: frontier-ordering checks stay meaningful on the shrunk grid.
EXP08_QUICK_PAIRS = ((1022, 1023), (511, 512), (1, 2))
#: Curve order: cheap end -> interpolations -> fast end.
EXP08_STRATEGIES = (
    ("cheap", "cheap-sim", 2),
    ("fwr-w3", "fwr-sim", 3),
    ("fwr-w2", "fwr-sim", 2),
    ("fast", "fast-sim", 2),
)


def _exp08_pairs(quick: bool):
    return EXP08_QUICK_PAIRS if quick else EXP08_PAIRS


def _exp08_scenarios(quick: bool):
    pairs = _exp08_pairs(quick)
    return [
        (
            key,
            ring_scenario(
                algorithm, EXP08_LABEL_SPACE, weight=weight, label_pairs=pairs
            ),
        )
        for key, algorithm, weight in EXP08_STRATEGIES
    ]


def _exp08_measure(quick: bool) -> Mapping[str, Any]:
    ring = oriented_ring(RING_SIZE)
    exploration = RingExploration(RING_SIZE)
    oracle_time = oracle_cost = 0
    for pair in _exp08_pairs(quick):
        report = _worst_case(ring, OracleBaseline(exploration, pair), [pair])
        oracle_time = max(oracle_time, report.max_time)
        oracle_cost = max(oracle_cost, report.max_cost)
    return {"oracle": {"max_time": oracle_time, "max_cost": oracle_cost}}


def _exp08_assess(ctx: ExperimentContext) -> list[Check]:
    checks = _bound_checks(ctx)
    cheap = ctx.result("cheap")
    fast = ctx.result("fast")
    w2 = ctx.result("fwr-w2")
    w3 = ctx.result("fwr-w3")
    checks.append(
        check(
            "frontier: cost rises from Cheap through FWR(3) to Fast",
            cheap["max_cost"] < w3["max_cost"] < fast["max_cost"],
            f"{cheap['max_cost']} < {w3['max_cost']} < {fast['max_cost']}",
        )
    )
    checks.append(
        check(
            "frontier: time falls from Cheap through FWR(2) to Fast",
            fast["max_time"] < w2["max_time"] < cheap["max_time"],
            f"{fast['max_time']} < {w2['max_time']} < {cheap['max_time']}",
        )
    )
    checks.append(
        check(
            "FWR(3) is already far below the cheap end's time",
            w3["max_time"] < cheap["max_time"],
            f"{w3['max_time']} < {cheap['max_time']}",
        )
    )
    return checks


def _exp08_render(report: ExperimentReport) -> list[str]:
    budget = RING_BUDGET
    oracle = report.measurements["oracle"]
    table = Table(
        f"EXP-08  The tradeoff curve on the oriented {RING_SIZE}-ring, "
        f"L = {EXP08_LABEL_SPACE}",
        ["strategy", "worst cost", "cost/E", "worst time", "time/E"],
    )
    table.add_row(
        "oracle (shared labels)", oracle["max_cost"],
        f"{oracle['max_cost'] / budget:.1f}", oracle["max_time"],
        f"{oracle['max_time'] / budget:.1f}",
    )
    markers = [(oracle["max_cost"] / budget, log10(oracle["max_time"]), "O")]
    for unit, marker in zip(report.units, "CdDF"):
        res = unit["result"]
        table.add_row(
            res["algorithm"], res["max_cost"],
            f"{res['max_cost'] / budget:.1f}", res["max_time"],
            f"{res['max_time'] / budget:.1f}",
        )
        markers.append((res["max_cost"] / budget, log10(res["max_time"]), marker))
    plot = scatter_plot(
        markers, width=56, height=14,
        x_label="worst cost / E",
        y_label="log10(worst time)",
    )
    return [
        table.render(),
        plot,
        "O = oracle, C = Cheap, d = FastWithRelabeling(3), "
        "D = FastWithRelabeling(2), F = Fast",
        "The frontier bends exactly as the paper describes: spending more cost",
        "(more explorations) buys exponentially less waiting.",
    ]


EXP08 = _register(
    Experiment(
        id="exp08",
        exp_id="EXP-08",
        title="The time/cost tradeoff curve",
        claim="The time/cost tradeoff curve",
        source="Abstract / Conclusion",
        verdict_text=(
            "reproduced — strategies interpolate between the cheap and "
            "fast extremes"
        ),
        assess=_exp08_assess,
        scenarios=_exp08_scenarios,
        measure=_exp08_measure,
        render=_exp08_render,
    ),
    order=8,
)


# ----------------------------------------------------------------------
# EXP-09  Unknown E via iterated doubling
# ----------------------------------------------------------------------

EXP09_LABEL_SPACE = 4
EXP09_RING_SIZES = (6, 12, 24, 48)
EXP09_QUICK_RING_SIZES = (6, 12, 24)
EXP09_LABEL_PAIRS = ((1, 2), (3, 4), (2, 3))


def _exp09_measure(quick: bool) -> Mapping[str, Any]:
    ring_sizes = EXP09_QUICK_RING_SIZES if quick else EXP09_RING_SIZES
    rows = {}
    for ring_size in ring_sizes:
        ring = oriented_ring(ring_size)
        wrapper = IteratedDoublingRendezvous(
            Fast, ring_level_factory(), EXP09_LABEL_SPACE,
            start_level=2, max_level=10,
        )
        direct = Fast(RingExploration(ring_size), EXP09_LABEL_SPACE)
        starts = [(0, b) for b in (1, ring_size // 2, ring_size - 1)]
        unknown = _worst_case(ring, wrapper, EXP09_LABEL_PAIRS, starts)
        known = _worst_case(ring, direct, EXP09_LABEL_PAIRS, starts)
        rows[f"n{ring_size}"] = {
            "unknown_time": unknown.max_time,
            "direct_time": known.max_time,
            "unknown_cost": unknown.max_cost,
            "direct_cost": known.max_cost,
        }
    return {"ring_sizes": list(ring_sizes), "rows": rows}


def _exp09_assess(ctx: ExperimentContext) -> list[Check]:
    checks = []
    for ring_size in ctx.measurements["ring_sizes"]:
        row = ctx.measurements["rows"][f"n{ring_size}"]
        checks.append(
            check(
                f"n{ring_size}: time overhead stays within the telescoping "
                "constant",
                row["unknown_time"] <= 8 * row["direct_time"],
                f"{row['unknown_time']} <= 8*{row['direct_time']}",
            )
        )
        checks.append(
            check(
                f"n{ring_size}: cost overhead stays within the telescoping "
                "constant",
                row["unknown_cost"] <= 8 * row["direct_cost"],
                f"{row['unknown_cost']} <= 8*{row['direct_cost']}",
            )
        )
    return checks


def _exp09_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-09  Unknown E: iterated doubling vs. exact E "
        f"(Fast, L = {EXP09_LABEL_SPACE})",
        ["n", "time unknown-E", "time known-E", "time overhead",
         "cost unknown-E", "cost known-E", "cost overhead"],
    )
    for ring_size in report.measurements["ring_sizes"]:
        row = report.measurements["rows"][f"n{ring_size}"]
        table.add_row(
            ring_size, row["unknown_time"], row["direct_time"],
            f"{row['unknown_time'] / row['direct_time']:.2f}x",
            row["unknown_cost"], row["direct_cost"],
            f"{row['unknown_cost'] / row['direct_cost']:.2f}x",
        )
    return [
        table.render(),
        "The overhead stays bounded as n grows (telescoping geometric budgets);",
        "the complexities are preserved up to a constant, as the Conclusion "
        "claims.",
    ]


EXP09 = _register(
    Experiment(
        id="exp09",
        exp_id="EXP-09",
        title="Unknown E via iterated doubling",
        claim="Unknown `E` via iterated doubling",
        source="Conclusion",
        verdict_text=(
            "reproduced — meets with constant-factor overhead over the "
            "known-`E` run"
        ),
        assess=_exp09_assess,
        measure=_exp09_measure,
        render=_exp09_render,
    ),
    order=9,
)


# ----------------------------------------------------------------------
# EXP-10  Exploration budgets per knowledge model
# ----------------------------------------------------------------------

EXP10_SUITE_SEED = 0x10
#: How many suite graphs the quick profile keeps (the head of the suite
#: covers ring / random-port ring / path / star / complete -- every
#: budget formula the checks pin down).
EXP10_QUICK_SUITE_SIZE = 5


def _exp10_verified_budget(graph, procedure, provide_position=True):
    worst_moves = 0
    visited_all = True
    for start in range(graph.num_nodes):
        visited, moves = measure_exploration(
            procedure, graph, start,
            provide_map=True, provide_position=provide_position,
        )
        visited_all = visited_all and visited == set(range(graph.num_nodes))
        worst_moves = max(worst_moves, moves)
    return {
        "moves": worst_moves,
        "visited_all": visited_all,
        "within_budget": worst_moves <= procedure.budget,
    }


def _exp10_measure(quick: bool) -> Mapping[str, Any]:
    suite = standard_test_suite(random.Random(EXP10_SUITE_SEED))
    if quick:
        suite = suite[:EXP10_QUICK_SUITE_SIZE]
    rows = []
    for name, graph in suite:
        with_pos = best_exploration(graph, KnowledgeModel.MAP_WITH_POSITION)
        without_pos = best_exploration(
            graph, KnowledgeModel.MAP_WITHOUT_POSITION
        )
        rows.append(
            {
                "graph": name,
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
                "with_position": {
                    "name": with_pos.name,
                    "budget": with_pos.budget,
                    **_exp10_verified_budget(graph, with_pos),
                },
                "without_position": {
                    "name": without_pos.name,
                    "budget": without_pos.budget,
                    **_exp10_verified_budget(
                        graph, without_pos, provide_position=False
                    ),
                },
            }
        )
    return {"rows": rows}


#: Budget formula per with-position procedure, from Section 1.2.
_EXP10_FORMULAS = {
    "ring-clockwise": lambda n, e: n - 1,
    "hamiltonian": lambda n, e: n - 1,
    "eulerian": lambda n, e: e - 1,
    "dfs-open": lambda n, e: 2 * n - 3,
}


def _exp10_assess(ctx: ExperimentContext) -> list[Check]:
    checks = []
    for row in ctx.measurements["rows"]:
        for side in ("with_position", "without_position"):
            data = row[side]
            checks.append(
                check(
                    f"{row['graph']} ({data['name']}): explores everything "
                    "within its budget",
                    data["visited_all"] and data["within_budget"],
                    f"moves={data['moves']} <= E={data['budget']}",
                )
            )
        data = row["with_position"]
        formula = _EXP10_FORMULAS.get(data["name"])
        if formula is not None:
            expected = formula(row["num_nodes"], row["num_edges"])
            checks.append(
                check(
                    f"{row['graph']}: {data['name']} budget matches the "
                    "paper formula",
                    data["budget"] == expected,
                    f"E={data['budget']}, formula gives {expected}",
                )
            )
    return checks


def _exp10_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-10  Exploration budgets E (Section 1.2): paper formula vs "
        "measured moves",
        ["graph", "n", "e", "map+position", "E", "moves used",
         "map w/o position", "E ", "moves used "],
    )
    for row in report.measurements["rows"]:
        table.add_row(
            row["graph"], row["num_nodes"], row["num_edges"],
            row["with_position"]["name"], row["with_position"]["budget"],
            row["with_position"]["moves"],
            row["without_position"]["name"], row["without_position"]["budget"],
            row["without_position"]["moves"],
        )
    return [
        table.render(),
        "Budgets match the paper's formulas: n-1 (ring/Hamiltonian), e-1 "
        "(Eulerian),",
        "2n-3 (known-map DFS); without a marked position the try-all-DFS "
        "budget is",
        "2n(2n-2) -- the paper quotes n(2n-2), see EXPERIMENTS.md for the "
        "factor-2 note.",
    ]


EXP10 = _register(
    Experiment(
        id="exp10",
        exp_id="EXP-10",
        title="Exploration budgets per knowledge model",
        claim="Exploration budgets per knowledge model",
        source="Section 1.2",
        verdict_text=(
            "reproduced — `E = n-1` on oriented rings, `2n-3` by DFS with "
            "a map, factor-`n` penalty without position"
        ),
        assess=_exp10_assess,
        measure=_exp10_measure,
        render=_exp10_render,
    ),
    order=10,
)


# ----------------------------------------------------------------------
# EXP-11  Delay robustness and the parachute presence model
# ----------------------------------------------------------------------

EXP11_LABEL_SPACE = 4
EXP11_DELAYS = (0, RING_BUDGET // 2, RING_BUDGET, RING_BUDGET + 1,
                2 * RING_BUDGET)
EXP11_QUICK_DELAYS = (0, RING_BUDGET, 2 * RING_BUDGET)
EXP11_PRESENCE_DELAYS = (0, 5, RING_BUDGET)


def _exp11_scenarios(quick: bool):
    delays = EXP11_QUICK_DELAYS if quick else EXP11_DELAYS
    units = [
        (
            f"{algorithm}-d{delay}",
            ring_scenario(algorithm, EXP11_LABEL_SPACE, delays=(delay,)),
        )
        for algorithm in ("cheap", "fast")
        for delay in delays
    ]
    for presence in ("from-start", "parachute"):
        units.append(
            (
                f"presence-{presence}",
                ring_scenario(
                    "fast", EXP11_LABEL_SPACE,
                    delays=EXP11_PRESENCE_DELAYS, presence=presence,
                ),
            )
        )
    return units


def _exp11_assess(ctx: ExperimentContext) -> list[Check]:
    checks = [
        item
        for item in _bound_checks(ctx)
        # The parachute model may delay meetings that relied on finding a
        # sleeping agent, so its TIME bound is the slackened one below;
        # the cost bound is unaffected and re-added unslackened.
        if not item.name.startswith("presence-parachute")
    ]
    parachute = ctx.result("presence-parachute")
    slack = max(EXP11_PRESENCE_DELAYS)
    checks.append(
        check(
            "parachute model stays within the bound plus the max delay",
            parachute["max_time"] <= parachute["time_bound"] + slack,
            f"max_time={parachute['max_time']} <= "
            f"{parachute['time_bound']}+{slack}",
        )
    )
    checks.append(
        check(
            "presence-parachute: cost within bound",
            parachute["cost_within_bound"],
            f"max_cost={parachute['max_cost']} <= {parachute['cost_bound']}",
        )
    )
    return checks


def _exp11_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "EXP-11  Delay robustness: worst time/cost vs wake-up delay tau "
        f"(ring-{RING_SIZE}, L = {EXP11_LABEL_SPACE})",
        ["algorithm", "tau", "worst time", "time bound", "worst cost",
         "cost bound"],
    )
    presence_rows = []
    for unit in report.units:
        res = unit["result"]
        if unit["key"].startswith("presence-"):
            presence_rows.append((unit["key"], res))
            continue
        table.add_row(
            res["algorithm"], unit["scenario"]["delays"][0],
            res["max_time"], res["time_bound"],
            res["max_cost"], res["cost_bound"],
        )
    table2 = Table(
        "EXP-11b  Presence models (Conclusion): complexities unchanged",
        ["model", "worst time", "worst cost"],
    )
    for key, res in presence_rows:
        model = key.removeprefix("presence-")
        suffix = (
            " (paper's primary)" if model == "from-start" else " (alternative)"
        )
        table2.add_row(model + suffix, res["max_time"], res["max_cost"])
    return [table.render(), table2.render()]


EXP11 = _register(
    Experiment(
        id="exp11",
        exp_id="EXP-11",
        title="Delay robustness and the parachute model",
        claim="Delay robustness; parachute model",
        source="Conclusion",
        verdict_text=(
            "reproduced — bounds uniform in delay; parachute differences "
            "confined to pre-wake meetings"
        ),
        assess=_exp11_assess,
        scenarios=_exp11_scenarios,
        render=_exp11_render,
    ),
    order=11,
)


# ----------------------------------------------------------------------
# EXP-12  E-driven vs D-driven baselines
# ----------------------------------------------------------------------

EXP12_RING_SIZE = 48
EXP12_LABEL_SPACE = 8
EXP12_PAIRS = ((1, 2), (5, 6), (7, 8))
EXP12_DISTANCES = (1, 2, 4, 8, 16, 24)
EXP12_QUICK_DISTANCES = (1, 4, 24)


def _exp12_worst_time_at_distance(ring, factory, distance):
    starts = sorted({(0, distance), (0, EXP12_RING_SIZE - distance)})
    return _worst_case(ring, factory, EXP12_PAIRS, starts).max_time


def _exp12_measure(quick: bool) -> Mapping[str, Any]:
    distances = EXP12_QUICK_DISTANCES if quick else EXP12_DISTANCES
    ring = oriented_ring(EXP12_RING_SIZE)
    zigzag = RingZigzag(EXP12_RING_SIZE, EXP12_LABEL_SPACE)
    fast = FastSimultaneous(
        RingExploration(EXP12_RING_SIZE), EXP12_LABEL_SPACE
    )
    rows = {
        f"D{distance}": {
            "zigzag_time": _exp12_worst_time_at_distance(ring, zigzag, distance),
            "fast_time": _exp12_worst_time_at_distance(ring, fast, distance),
        }
        for distance in distances
    }
    return {"distances": list(distances), "rows": rows}


def _exp12_assess(ctx: ExperimentContext) -> list[Check]:
    distances = ctx.measurements["distances"]
    rows = ctx.measurements["rows"]
    zig_times = [rows[f"D{d}"]["zigzag_time"] for d in distances]
    fast_times = [rows[f"D{d}"]["fast_time"] for d in distances]
    return [
        check(
            "zigzag time grows with the start distance D",
            zig_times[0] < zig_times[-1],
            f"D={distances[0]}: {zig_times[0]} < D={distances[-1]}: "
            f"{zig_times[-1]}",
        ),
        check(
            "Fast's time is essentially flat in D (schedule ignores D)",
            max(fast_times) <= 2 * min(fast_times),
            f"max={max(fast_times)} <= 2*min={2 * min(fast_times)}",
        ),
        check(
            "zigzag wins for adjacent starts",
            zig_times[0] < fast_times[0],
            f"{zig_times[0]} < {fast_times[0]}",
        ),
    ]


def _exp12_render(report: ExperimentReport) -> list[str]:
    table = Table(
        f"EXP-12  Distance sensitivity on the oriented {EXP12_RING_SIZE}-ring "
        f"(L = {EXP12_LABEL_SPACE}): zigzag is D-driven, Fast is E-driven",
        ["initial distance D", "zigzag worst time", "Fast worst time",
         "winner"],
    )
    for distance in report.measurements["distances"]:
        row = report.measurements["rows"][f"D{distance}"]
        winner = "zigzag" if row["zigzag_time"] < row["fast_time"] else "Fast"
        table.add_row(distance, row["zigzag_time"], row["fast_time"], winner)
    return [
        table.render(),
        "The zigzag time rises with D while Fast's stays near its E log L",
        "schedule: the paper's benchmarks are exploration-driven by design,",
        "which is what its lower bounds formalise.",
    ]


EXP12 = _register(
    Experiment(
        id="exp12",
        exp_id="EXP-12",
        title="E-driven vs distance-driven baselines",
        claim="E-driven vs D-driven baselines",
        source="context, ref [26]",
        verdict_text=(
            "contextual — paper's algorithms pay `Theta(E)` regardless of "
            "start distance, as discussed around ref [26]"
        ),
        assess=_exp12_assess,
        measure=_exp12_measure,
        render=_exp12_render,
    ),
    order=12,
)


# ----------------------------------------------------------------------
# EXT-ABL  Ablations: each construction detail is load-bearing
# ----------------------------------------------------------------------

ABLATIONS_LABEL_SPACE = 6
ABLATIONS_SHORT_WAIT_DELAYS = (0, 2, 7, 13)
ABLATIONS_NO_DOUBLING_DELAYS = (0, 5, RING_BUDGET)
#: Delay 2 is where the halved wait actually breaks (the window in which
#: a delayed agent's exploration misses the still-waiting one).
ABLATIONS_QUICK_SHORT_WAIT_DELAYS = (0, 2)
ABLATIONS_QUICK_NO_DOUBLING_DELAYS = (0, 5)
#: The ablation searches run to this many times the longer schedule
#: past the delay, well beyond both agents' schedule ends: an ablated
#: variant is not a correct algorithm, and the margin keeps a counted
#: failure from being an artefact of a tight round budget.
ABLATIONS_HORIZON_FACTOR = 6


def _ablations_count_failures(graph, algorithm, delays):
    """Failures of ``algorithm`` over every label pair, start ``(0, b)`` and delay.

    One adversary search on the engine ladder (``auto``), to
    :data:`ABLATIONS_HORIZON_FACTOR` times the longer schedule past the
    delay.
    """
    cube = ConfigCube.make(
        graph, all_label_pairs(ABLATIONS_LABEL_SPACE), delays, fix_first_start=True
    )

    def horizon(labels, delay):
        a, b = labels
        longer = max(algorithm.schedule_length(a), algorithm.schedule_length(b))
        return ABLATIONS_HORIZON_FACTOR * longer + delay

    report = worst_case_search(graph, algorithm, cube, horizon, engine="auto")
    first = report.failures[0][1] if report.failures else None
    return {
        "failures": len(report.failures),
        "total": report.executions,
        "first_counterexample": (
            None if first is None else [*first.labels, first.starts[1], first.delay]
        ),
    }


def _ablations_measure(quick: bool) -> Mapping[str, Any]:
    ring = oriented_ring(RING_SIZE)
    ring_exploration = RingExploration(RING_SIZE)
    star = star_graph(6)
    star_exploration = KnownMapDFS(star)
    short_wait_delays = (
        ABLATIONS_QUICK_SHORT_WAIT_DELAYS if quick
        else ABLATIONS_SHORT_WAIT_DELAYS
    )
    no_doubling_delays = (
        ABLATIONS_QUICK_NO_DOUBLING_DELAYS if quick
        else ABLATIONS_NO_DOUBLING_DELAYS
    )
    real = Fast(ring_exploration, ABLATIONS_LABEL_SPACE)
    ablated = FastNoDoubling(ring_exploration, ABLATIONS_LABEL_SPACE)
    return {
        "no-delimiter": {
            "detail": "01 delimiter (prefix-freeness)",
            "algorithm": "Fast",
            "graph": f"ring-{RING_SIZE}",
            **_ablations_count_failures(
                ring,
                FastNoDelimiter(ring_exploration, ABLATIONS_LABEL_SPACE),
                delays=(0,),
            ),
        },
        "short-wait": {
            "detail": "wait 2lE (not lE)",
            "algorithm": "Cheap",
            "graph": "star-6",
            **_ablations_count_failures(
                star,
                CheapShortWait(star_exploration, ABLATIONS_LABEL_SPACE),
                delays=short_wait_delays,
            ),
        },
        "no-doubling": {
            "detail": "bit doubling in T",
            "algorithm": "Fast",
            "graph": f"ring-{RING_SIZE}",
            **_ablations_count_failures(
                ring, ablated, delays=no_doubling_delays
            ),
        },
        "schedule_rounds": {
            "fast": real.schedule_length(ABLATIONS_LABEL_SPACE),
            "fast_no_doubling": ablated.schedule_length(ABLATIONS_LABEL_SPACE),
        },
    }


def _ablations_assess(ctx: ExperimentContext) -> list[Check]:
    measurements = ctx.measurements
    return [
        check(
            "removing the delimiter breaks prefix label pairs",
            measurements["no-delimiter"]["failures"] > 0,
            f"{measurements['no-delimiter']['failures']} non-meeting configs",
        ),
        check(
            "halving the wait breaks delayed starts",
            measurements["short-wait"]["failures"] > 0,
            f"{measurements['short-wait']['failures']} non-meeting configs",
        ),
        check(
            "removing bit doubling shows no counterexample at this scale",
            measurements["no-doubling"]["failures"] == 0,
            f"0 of {measurements['no-doubling']['total']} configs fail "
            "(documented negative result)",
        ),
    ]


def _ablations_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "Ablations: remove one construction detail, run the adversary",
        ["removed detail", "algorithm", "graph", "non-meeting configs",
         "configs searched", "first counterexample (a,b,start,delay)"],
    )
    for key in ("no-delimiter", "short-wait", "no-doubling"):
        row = report.measurements[key]
        first = row["first_counterexample"]
        table.add_row(
            row["detail"], row["algorithm"], row["graph"],
            row["failures"], row["total"],
            "-" if first is None else tuple(first),
        )
    rounds = report.measurements["schedule_rounds"]
    return [
        table.render(),
        "The delimiter and the 2lE wait are load-bearing: removing either",
        "yields concrete non-meeting executions.  The bit-doubling has no",
        "counterexample at this scale -- it is what makes the containment",
        "argument of Proposition 2.2 airtight for every graph and delay, at",
        f"a ~2x schedule cost ({rounds['fast']} vs "
        f"{rounds['fast_no_doubling']} rounds for label "
        f"{ABLATIONS_LABEL_SPACE}).",
    ]


ABLATIONS = _register(
    Experiment(
        id="ablations",
        exp_id="EXT-ABL",
        title="Ablations of Section 2's construction details",
        claim="Each construction detail of Section 2 is load-bearing",
        source="Section 2 (ablation study)",
        verdict_text=(
            "reproduced — the delimiter and the 2lE wait are load-bearing; "
            "bit-doubling shows no counterexample at this scale"
        ),
        assess=_ablations_assess,
        measure=_ablations_measure,
        render=_ablations_render,
    ),
    order=13,
)


# ----------------------------------------------------------------------
# EXT-MEM  Memory accounting of Section 1.2
# ----------------------------------------------------------------------

MEMORY_LABEL_SPACE = 64
MEMORY_RING_SIZE = 64
MEMORY_STAR_SIZE = 16
MEMORY_UXS_STAR_SIZE = 6
MEMORY_UXS_SEED = 1


def _memory_measure(quick: bool) -> Mapping[str, Any]:
    profiles = []
    ring_algorithm = Fast(
        RingExploration(MEMORY_RING_SIZE), MEMORY_LABEL_SPACE
    )
    profiles.append(
        profile(
            f"oriented ring n={MEMORY_RING_SIZE} (knows n)",
            ring_size_bits(MEMORY_RING_SIZE),
            ring_algorithm.schedule_length(MEMORY_LABEL_SPACE),
            MEMORY_LABEL_SPACE,
        )
    )
    star = star_graph(MEMORY_STAR_SIZE)
    star_algorithm = Fast(KnownMapDFS(star), MEMORY_LABEL_SPACE)
    schedule = star_algorithm.schedule_length(MEMORY_LABEL_SPACE)
    profiles.append(
        profile(
            f"star n={MEMORY_STAR_SIZE}, DFS walk as port sequence",
            dfs_walk_bits(star), schedule, MEMORY_LABEL_SPACE,
        )
    )
    profiles.append(
        profile(
            f"star n={MEMORY_STAR_SIZE}, full port-labeled map",
            map_bits(star), schedule, MEMORY_LABEL_SPACE,
        )
    )
    small = star_graph(MEMORY_UXS_STAR_SIZE)
    sequence = build_verified_uxs([small], rng=random.Random(MEMORY_UXS_SEED))
    uxs_schedule = Fast(
        KnownMapDFS(small), MEMORY_LABEL_SPACE
    ).schedule_length(MEMORY_LABEL_SPACE)
    profiles.append(
        profile(
            f"star n={MEMORY_UXS_STAR_SIZE}, stored verified UXS "
            "(substitution)",
            uxs_bits(len(sequence), small.max_degree()), uxs_schedule,
            MEMORY_LABEL_SPACE,
        )
    )
    return {
        "profiles": [
            {
                "scenario": item.scenario,
                "exploration_bits": item.exploration_bits,
                "counter_bits": item.counter_bits,
                "total_bits": item.total_bits,
            }
            for item in profiles
        ]
    }


def _memory_assess(ctx: ExperimentContext) -> list[Check]:
    profiles = ctx.measurements["profiles"]
    ring, walk, full_map = profiles[0], profiles[1], profiles[2]
    return [
        check(
            "ring representation is smaller than the DFS walk",
            ring["exploration_bits"] < walk["exploration_bits"],
            f"{ring['exploration_bits']} < {walk['exploration_bits']} bits",
        ),
        check(
            "DFS walk is smaller than the full port-labeled map",
            walk["exploration_bits"] < full_map["exploration_bits"],
            f"{walk['exploration_bits']} < {full_map['exploration_bits']} bits",
        ),
    ]


def _memory_render(report: ExperimentReport) -> list[str]:
    table = Table(
        "Section 1.2 memory accounting: exploration representation dominates",
        ["scenario", "exploration bits", "counter bits (log E + log L)",
         "total bits"],
    )
    for item in report.measurements["profiles"]:
        table.add_row(
            item["scenario"], item["exploration_bits"], item["counter_bits"],
            item["total_bits"],
        )
    return [
        table.render(),
        "Counters stay logarithmic in E and L in every scenario; stored UXS",
        "trades Reingold's O(log m) working space for plain storage (see",
        "DESIGN.md, Substitutions).",
    ]


MEMORY = _register(
    Experiment(
        id="memory",
        exp_id="EXT-MEM",
        title="Agent memory accounting",
        claim="Agent memory per knowledge scenario (Section 1.2 discussion)",
        source="Section 1.2",
        verdict_text=(
            "reproduced — counters stay logarithmic; the exploration "
            "representation dominates"
        ),
        assess=_memory_assess,
        measure=_memory_measure,
        render=_memory_render,
    ),
    order=14,
)


# ----------------------------------------------------------------------
# EXT-GATH  k-agent gathering under merge semantics
# ----------------------------------------------------------------------

GATHERING_LABEL_SPACE = 8
GATHERING_KS = (2, 3, 4)
GATHERING_QUICK_KS = (2, 3)
#: Every 3rd label subset -- enough spread without the full combinatorial
#: blow-up (the bench's historical stride).
GATHERING_SUBSET_STRIDE = 3


def _gathering_worst(table, k):
    worst_time = worst_cost = 0
    label_sets = list(
        itertools.combinations(range(1, GATHERING_LABEL_SPACE + 1), k)
    )[::GATHERING_SUBSET_STRIDE]
    for labels in label_sets:
        starts = tuple((i * (RING_SIZE // k)) % RING_SIZE for i in range(k))
        result = gather(table, labels, starts)
        if not result.gathered:
            raise AssertionError(f"not gathered: {labels} {starts}")
        worst_time = max(worst_time, result.time)
        worst_cost = max(worst_cost, result.cost)
    return worst_time, worst_cost


def _gathering_measure(quick: bool) -> Mapping[str, Any]:
    ks = GATHERING_QUICK_KS if quick else GATHERING_KS
    ring = oriented_ring(RING_SIZE)
    exploration = RingExploration(RING_SIZE)
    rows = []
    for algorithm in (
        CheapSimultaneous(exploration, GATHERING_LABEL_SPACE),
        FastSimultaneous(exploration, GATHERING_LABEL_SPACE),
    ):
        table = TrajectoryTable(ring, algorithm)
        for k in ks:
            time, cost = _gathering_worst(table, k)
            rows.append(
                {
                    "algorithm": algorithm.name,
                    "k": k,
                    "time": time,
                    "cost": cost,
                    "two_agent_time_bound": algorithm.time_bound(),
                }
            )
    return {"rows": rows}


def _gathering_assess(ctx: ExperimentContext) -> list[Check]:
    return [
        check(
            f"{row['algorithm']} k={row['k']}: gathering within the "
            "two-agent time bound",
            row["time"] <= row["two_agent_time_bound"],
            f"time={row['time']} <= {row['two_agent_time_bound']}",
        )
        for row in ctx.measurements["rows"]
    ]


def _gathering_render(report: ExperimentReport) -> list[str]:
    table = Table(
        f"Extension: k-agent gathering (merge semantics) on ring-{RING_SIZE}, "
        f"L = {GATHERING_LABEL_SPACE}",
        ["algorithm", "k", "worst gather time", "worst cost",
         "2-agent time bound"],
    )
    for row in report.measurements["rows"]:
        table.add_row(
            row["algorithm"], row["k"], row["time"], row["cost"],
            row["two_agent_time_bound"],
        )
    return [
        table.render(),
        "Gathering time never exceeds the two-agent bound regardless of k:",
        "all leaders run their schedules from round 1, so any two surviving",
        "groups replicate the two-agent execution of their leaders.",
    ]


GATHERING = _register(
    Experiment(
        id="gathering",
        exp_id="EXT-GATH",
        title="k-agent gathering extension",
        claim=(
            "Pairwise-correct simultaneous algorithms gather k agents "
            "within the two-agent time bound"
        ),
        source="extension (merge semantics)",
        verdict_text=(
            "reproduced — k-agent gathering stays within the two-agent "
            "time bound"
        ),
        assess=_gathering_assess,
        measure=_gathering_measure,
        render=_gathering_render,
    ),
    order=15,
)


# ----------------------------------------------------------------------
# EXT-OPEN  The Conclusion's open problem: the interior of the curve
# ----------------------------------------------------------------------

OPEN_PROBLEM_LABEL_SPACE = 4096
OPEN_PROBLEM_WEIGHTS = (1, 2, 3, 4, 5, 6)
OPEN_PROBLEM_QUICK_LABEL_SPACE = 256
OPEN_PROBLEM_QUICK_WEIGHTS = (1, 2, 3)


def _open_problem_grid(quick: bool) -> tuple[int, tuple[int, ...]]:
    if quick:
        return OPEN_PROBLEM_QUICK_LABEL_SPACE, OPEN_PROBLEM_QUICK_WEIGHTS
    return OPEN_PROBLEM_LABEL_SPACE, OPEN_PROBLEM_WEIGHTS


def _open_problem_scenarios(quick: bool):
    label_space, weights = _open_problem_grid(quick)
    return [
        (
            f"w{weight}",
            ring_scenario(
                "fwr-sim", label_space, weight=weight,
                label_pairs=adversarial_pairs(label_space),
            ),
        )
        for weight in weights
    ]


def _open_problem_measure(quick: bool) -> Mapping[str, Any]:
    label_space, weights = _open_problem_grid(quick)
    return {
        "label_space": label_space,
        "weights": list(weights),
        "label_length": {
            f"w{weight}": smallest_t(label_space, weight) for weight in weights
        },
    }


def _open_problem_assess(ctx: ExperimentContext) -> list[Check]:
    weights = ctx.measurements["weights"]
    w1_time = ctx.result(f"w{weights[0]}")["max_time"]
    w3_time = ctx.result(f"w{weights[2]}")["max_time"]
    return [
        check(
            f"w={weights[0]} -> w={weights[2]} is a big time win",
            w1_time > w3_time,
            f"time(w={weights[0]})={w1_time} > time(w={weights[2]})={w3_time}",
        )
    ]


def _open_problem_render(report: ExperimentReport) -> list[str]:
    label_space = report.measurements["label_space"]
    table = Table(
        "Open problem (Conclusion): the interior curve traced by "
        f"FastWithRelabeling(w), L = {label_space}",
        ["w", "t = |new label|", "worst cost", "cost/E", "worst time",
         "time/E"],
    )
    for unit in report.units:
        res = unit["result"]
        budget = res["exploration_budget"]
        table.add_row(
            unit["scenario"]["algorithm"]["weight"],
            report.measurements["label_length"][unit["key"]],
            res["max_cost"], f"{res['max_cost'] / budget:.1f}",
            res["max_time"], f"{res['max_time'] / budget:.1f}",
        )
    return [
        table.render(),
        "Each row is an achievable (cost, time) point; whether this curve is",
        "optimal between the two proven endpoints is exactly the paper's open",
        "problem.  The diminishing returns pattern (t = L^(1/w) flattens fast)",
        "suggests most of the curve's value sits at small w.",
    ]


OPEN_PROBLEM = _register(
    Experiment(
        id="open-problem",
        exp_id="EXT-OPEN",
        title="The interior of the tradeoff curve",
        claim=(
            "FastWithRelabeling(w) traces achievable interior points of "
            "the open tradeoff curve"
        ),
        source="Conclusion (open problem)",
        verdict_text=(
            "reproduced — the interior curve shows diminishing returns in w"
        ),
        assess=_open_problem_assess,
        scenarios=_open_problem_scenarios,
        measure=_open_problem_measure,
        render=_open_problem_render,
    ),
    order=16,
)


__all__ = [
    "ABLATIONS",
    "EXP01",
    "EXP02",
    "EXP03",
    "EXP04",
    "EXP05",
    "EXP06",
    "EXP07",
    "EXP08",
    "EXP09",
    "EXP10",
    "EXP11",
    "EXP12",
    "GATHERING",
    "MEMORY",
    "OPEN_PROBLEM",
    "RING_BUDGET",
    "RING_SIZE",
    "adversarial_pairs",
    "ring_scenario",
]
