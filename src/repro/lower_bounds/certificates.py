"""End-to-end certificates for the two lower-bound theorems.

A *certificate* runs the full proof machinery of Section 3 against the
(trimmed) behaviour vectors of a concrete algorithm and reports every
intermediate fact: which hold, which fail, and the quantitative bound the
chain of facts produces.  For an algorithm satisfying a theorem's
hypothesis (e.g. Cheap's cost ``E + o(E)`` for Theorem 3.1) all facts must
hold and the produced bound must be dominated by the algorithm's measured
complexity; for an algorithm violating the hypothesis (e.g. Fast has cost
``Theta(E log L)``) the certificate shows exactly which fact breaks.

At simulation scale the pigeonhole step of Theorem 3.2 (Fact 3.16) is
vacuous -- ``ceil(L / ceil(6 c log L))`` is 1 for any feasible ``L`` -- so
the certificate reports the pigeonhole numbers for transparency and
instead verifies the load-bearing inequality, Fact 3.17, on every label:
``k`` preserved progress pairs force solo cost at least ``k E / 6``.
DESIGN.md Section 5 discusses this in detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Mapping

from repro.lower_bounds.aggregate import (
    aggregate_vector,
    block_length,
    check_fact_39,
)
from repro.lower_bounds.behaviour import forward_and_back, is_clockwise_heavy, mirror
from repro.lower_bounds.progress import (
    define_progress,
    progress_weight,
    verify_progress_invariants,
)
from repro.lower_bounds.ring_exec import solo_cost
from repro.lower_bounds.tournament import (
    chain_executions,
    gap_f,
    hamiltonian_path,
    tournament_edges,
)
from repro.lower_bounds.trim import TrimmedAlgorithm


# ----------------------------------------------------------------------
# Theorem 3.1:  cost E + o(E)  =>  time Omega(EL)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem31Certificate:
    """Every intermediate quantity of the Theorem 3.1 argument."""

    ring_size: int
    label_space: int
    exploration_budget: int  # E = n - 1
    gap: int  # F = ceil(E / 2)
    slack: int  # phi: the adversary's worst cost minus E
    mirrored: bool  # orientation flipped to make clockwise-heavy the majority
    heavy_labels: tuple[int, ...]
    back_values: Mapping[int, int]
    fact_33_holds: bool  # back(x) <= phi for all heavy labels
    fact_35_holds: bool  # exactly one eager agent per pair
    path: tuple[int, ...]
    chain_times: tuple[int, ...]  # |alpha_i| along the Hamiltonian path
    fact_36_holds: bool  # non-eager displacement <= (F + phi) / 2 per link
    fact_37_holds: bool  # chain times strictly increase
    fact_38_holds: bool  # |alpha_i| >= i (F - 3 phi) / 2
    predicted_time_lower: float  # (len(chain)) * (F - 3 phi) / 2
    realized_final_time: int

    @property
    def all_facts_hold(self) -> bool:
        return (
            self.fact_33_holds
            and self.fact_35_holds
            and self.fact_36_holds
            and self.fact_37_holds
            and self.fact_38_holds
        )

    def to_dict(self) -> dict:
        """Canonical JSON form (mapping keys stringified for stability)."""
        return {
            "theorem": "3.1",
            "ring_size": self.ring_size,
            "label_space": self.label_space,
            "exploration_budget": self.exploration_budget,
            "gap": self.gap,
            "slack": self.slack,
            "mirrored": self.mirrored,
            "heavy_labels": list(self.heavy_labels),
            "back_values": {
                str(label): value for label, value in self.back_values.items()
            },
            "facts": {
                "3.3": self.fact_33_holds,
                "3.5": self.fact_35_holds,
                "3.6": self.fact_36_holds,
                "3.7": self.fact_37_holds,
                "3.8": self.fact_38_holds,
            },
            "all_facts_hold": self.all_facts_hold,
            "path": list(self.path),
            "chain_times": list(self.chain_times),
            "predicted_time_lower": self.predicted_time_lower,
            "realized_final_time": self.realized_final_time,
        }

    def summary_lines(self) -> list[str]:
        check = {True: "ok", False: "VIOLATED"}
        return [
            f"Theorem 3.1 certificate on the oriented {self.ring_size}-ring "
            f"(E={self.exploration_budget}, L={self.label_space}, F={self.gap})",
            f"  measured cost slack phi = {self.slack}"
            + (" (orientation mirrored)" if self.mirrored else ""),
            f"  clockwise-heavy labels: {len(self.heavy_labels)}/{self.label_space}",
            f"  Fact 3.3  (back <= phi):            {check[self.fact_33_holds]}",
            f"  Fact 3.5  (unique eager agent):     {check[self.fact_35_holds]}",
            f"  Fact 3.6  (non-eager disp bound):   {check[self.fact_36_holds]}",
            f"  Fact 3.7  (chain times increase):   {check[self.fact_37_holds]}",
            f"  Fact 3.8  (growth >= (F-3phi)/2):   {check[self.fact_38_holds]}",
            f"  chain: {len(self.chain_times)} executions, final time "
            f"{self.realized_final_time} >= predicted {self.predicted_time_lower:.1f}",
        ]


def certify_theorem_31(trimmed: TrimmedAlgorithm) -> Theorem31Certificate:
    """Run the Theorem 3.1 machinery over trimmed behaviour vectors."""
    n = trimmed.ring_size
    exploration_budget = n - 1
    f = gap_f(n)
    slack = max(0, trimmed.max_cost - exploration_budget)

    vectors = {label: list(trimmed.vector(label)) for label in trimmed.labels}
    heavy = [label for label, vec in vectors.items() if is_clockwise_heavy(vec)]
    mirrored = False
    if len(heavy) < ceil(len(vectors) / 2):
        # WLOG step of the paper: analyse the mirror-image algorithm.
        vectors = {label: mirror(vec) for label, vec in vectors.items()}
        heavy = [label for label, vec in vectors.items() if is_clockwise_heavy(vec)]
        mirrored = True

    heavy_vectors = {label: vectors[label] for label in heavy}
    back_values = {
        label: forward_and_back(vec)[1] for label, vec in heavy_vectors.items()
    }
    fact_33 = all(back <= slack for back in back_values.values())

    reports = tournament_edges(heavy_vectors, n)
    fact_35 = all(report.well_defined for report in reports.values())

    def beats(u: int, v: int) -> bool:
        a, b = min(u, v), max(u, v)
        report = reports[(a, b)]
        if report.eager is None:
            # Fact 3.5 failed for this pair; fall back to a deterministic
            # orientation so the path construction still terminates.
            return u == a
        return report.eager == u

    path = hamiltonian_path(sorted(heavy_vectors), beats)
    chain = chain_executions(path, heavy_vectors, n)
    chain_times = tuple(report.meeting_time for report in chain)

    # Fact 3.6: in each chain execution the non-eager agent's displacement
    # stays at most (F + phi) / 2 (only meaningful when the hypothesis of
    # the theorem -- cost-boundedness -- holds, which fact_36_bound checks).
    from repro.lower_bounds.lemmas import fact_36_bound

    fact_36 = all(
        fact_36_bound(
            list(heavy_vectors[min(u, v)]),
            list(heavy_vectors[max(u, v)]),
            n,
            f,
            slack,
        )
        for u, v in zip(path, path[1:])
    )

    fact_37 = all(later > earlier for earlier, later in zip(chain_times, chain_times[1:]))
    growth = (f - 3 * slack) / 2
    fact_38 = all(
        time >= (index + 1) * growth for index, time in enumerate(chain_times)
    )
    predicted = len(chain_times) * growth

    return Theorem31Certificate(
        ring_size=n,
        label_space=len(trimmed.labels),
        exploration_budget=exploration_budget,
        gap=f,
        slack=slack,
        mirrored=mirrored,
        heavy_labels=tuple(sorted(heavy)),
        back_values=back_values,
        fact_33_holds=fact_33,
        fact_35_holds=fact_35,
        path=tuple(path),
        chain_times=chain_times,
        fact_36_holds=fact_36,
        fact_37_holds=fact_37,
        fact_38_holds=fact_38,
        predicted_time_lower=predicted,
        realized_final_time=chain_times[-1] if chain_times else 0,
    )


# ----------------------------------------------------------------------
# Theorem 3.2:  time O(E log L)  =>  cost Omega(E log L)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem32Certificate:
    """Every intermediate quantity of the Theorem 3.2 argument."""

    ring_size: int
    label_space: int
    exploration_budget: int
    block_rounds: int  # n / 6
    deadlines: Mapping[int, int]  # m_x
    deadline_blocks: Mapping[int, int]  # B(x), 1-based block containing m_x
    classes: Mapping[int, tuple[int, ...]]  # block index -> labels
    largest_class: tuple[int, ...]
    progress_vectors: Mapping[int, tuple[int, ...]]
    progress_weights: Mapping[int, int]  # preserved pairs k per label
    fact_39_holds: bool
    invariants_hold: bool  # Facts 3.12-3.14 for every label
    distinct_within_classes: bool  # consequence of Fact 3.15
    fact_317_holds: bool  # solo cost >= k E / 6 for every label
    max_weight: int
    implied_cost_lower: float  # max over labels of k E / 6
    measured_max_cost: int  # max solo cost of a trimmed vector
    effective_time_constant: float  # c with observed time <= c E log L
    pigeonhole_class_target: int  # ceil(L / ceil(6 c log L)) -- the paper's l

    @property
    def all_facts_hold(self) -> bool:
        return (
            self.fact_39_holds
            and self.invariants_hold
            and self.distinct_within_classes
            and self.fact_317_holds
        )

    def to_dict(self) -> dict:
        """Canonical JSON form (mapping keys stringified for stability)."""
        return {
            "theorem": "3.2",
            "ring_size": self.ring_size,
            "label_space": self.label_space,
            "exploration_budget": self.exploration_budget,
            "block_rounds": self.block_rounds,
            "deadlines": {
                str(label): value for label, value in self.deadlines.items()
            },
            "deadline_blocks": {
                str(label): value
                for label, value in self.deadline_blocks.items()
            },
            "classes": {
                str(block): list(members)
                for block, members in self.classes.items()
            },
            "largest_class": list(self.largest_class),
            "progress_vectors": {
                str(label): list(vector)
                for label, vector in self.progress_vectors.items()
            },
            "progress_weights": {
                str(label): weight
                for label, weight in self.progress_weights.items()
            },
            "facts": {
                "3.9": self.fact_39_holds,
                "3.12-14": self.invariants_hold,
                "3.15": self.distinct_within_classes,
                "3.17": self.fact_317_holds,
            },
            "all_facts_hold": self.all_facts_hold,
            "max_weight": self.max_weight,
            "implied_cost_lower": self.implied_cost_lower,
            "measured_max_cost": self.measured_max_cost,
            "effective_time_constant": self.effective_time_constant,
            "pigeonhole_class_target": self.pigeonhole_class_target,
        }

    def summary_lines(self) -> list[str]:
        check = {True: "ok", False: "VIOLATED"}
        return [
            f"Theorem 3.2 certificate on the oriented {self.ring_size}-ring "
            f"(E={self.exploration_budget}, L={self.label_space}, "
            f"block={self.block_rounds} rounds)",
            f"  Fact 3.9   (sector locality):        {check[self.fact_39_holds]}",
            f"  Facts 3.12-3.14 (progress invariants): {check[self.invariants_hold]}",
            f"  Fact 3.15  (distinct progress/class): {check[self.distinct_within_classes]}",
            f"  Fact 3.17  (cost >= k E / 6):          {check[self.fact_317_holds]}",
            f"  max progress weight k = {self.max_weight} "
            f"=> cost lower bound {self.implied_cost_lower:.1f}; "
            f"measured max solo cost {self.measured_max_cost}",
            f"  effective time constant c = {self.effective_time_constant:.2f}; "
            f"pigeonhole class size target l = {self.pigeonhole_class_target} "
            "(asymptotic step; vacuous at simulation scale)",
        ]


def certify_theorem_32(trimmed: TrimmedAlgorithm) -> Theorem32Certificate:
    """Run the Theorem 3.2 machinery over trimmed behaviour vectors."""
    n = trimmed.ring_size
    exploration_budget = n - 1
    block_rounds = block_length(n)
    labels = trimmed.labels
    label_space = len(labels)

    deadlines = {label: trimmed.deadline(label) for label in labels}
    deadline_blocks = {
        label: max(1, -(-deadline // block_rounds))
        for label, deadline in deadlines.items()
    }
    classes: dict[int, list[int]] = {}
    for label, block in deadline_blocks.items():
        classes.setdefault(block, []).append(label)
    largest_class = max(classes.values(), key=len)

    fact_39 = all(
        check_fact_39(list(trimmed.vector(label)), n) for label in labels
    )

    progress_vectors: dict[int, tuple[int, ...]] = {}
    progress_weights: dict[int, int] = {}
    invariants_ok = True
    for label in labels:
        blocks = deadline_blocks[label]
        aggregate = aggregate_vector(list(trimmed.vector(label)), n, blocks=blocks)
        progress = define_progress(aggregate)
        if verify_progress_invariants(aggregate, progress):
            invariants_ok = False
        progress_vectors[label] = tuple(progress)
        progress_weights[label] = progress_weight(progress)

    distinct = True
    for members in classes.values():
        if len(members) < 2:
            continue
        seen = set()
        for label in members:
            if progress_vectors[label] in seen:
                distinct = False
            seen.add(progress_vectors[label])

    solo_costs = {
        label: solo_cost(trimmed.vector(label)) for label in labels
    }
    fact_317 = all(
        solo_costs[label] >= progress_weights[label] * exploration_budget / 6
        for label in labels
    )

    max_weight = max(progress_weights.values())
    implied_lower = max_weight * exploration_budget / 6
    measured_max_cost = max(solo_costs.values())

    max_time = max(deadlines.values())
    log_l = max(log2(label_space), 1.0)
    effective_c = max_time / (exploration_budget * log_l)
    blocks_l_prime = ceil(6 * effective_c * log_l)
    pigeonhole_target = ceil(label_space / max(1, blocks_l_prime))

    return Theorem32Certificate(
        ring_size=n,
        label_space=label_space,
        exploration_budget=exploration_budget,
        block_rounds=block_rounds,
        deadlines=deadlines,
        deadline_blocks=deadline_blocks,
        classes={block: tuple(sorted(members)) for block, members in classes.items()},
        largest_class=tuple(sorted(largest_class)),
        progress_vectors=progress_vectors,
        progress_weights=progress_weights,
        fact_39_holds=fact_39,
        invariants_hold=invariants_ok,
        distinct_within_classes=distinct,
        fact_317_holds=fact_317,
        max_weight=max_weight,
        implied_cost_lower=implied_lower,
        measured_max_cost=measured_max_cost,
        effective_time_constant=effective_c,
        pigeonhole_class_target=pigeonhole_target,
    )
