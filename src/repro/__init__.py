"""repro -- a reproduction of Miller & Pelc (PODC 2014),
"Time Versus Cost Tradeoffs for Deterministic Rendezvous in Networks".

Two mobile agents with distinct labels from ``{1..L}`` must meet at a node
of an anonymous, port-labeled network.  Given an exploration procedure
with budget ``E``, the paper gives Algorithm **Cheap** (cost ``O(E)``,
time ``O(EL)``), Algorithm **Fast** (time and cost ``O(E log L)``) and
Algorithm **FastWithRelabeling** (cost ``O(E)``, time ``o(EL)``), plus two
lower bounds showing Cheap and Fast are (almost) exactly the ends of the
time/cost tradeoff curve.

Quickstart -- a scenario is plain data naming registry entries, and
``run()`` routes it through the (serial or sharded-parallel) runtime::

    from repro import Scenario

    scenario = Scenario(graph="ring", graph_params={"n": 24},
                        algorithm="fast", label_space=16)
    outcome = scenario.run()           # engine="auto"
    row = outcome.row
    print(row.max_time, "<=", row.time_bound)
    print(outcome.to_json())           # canonical, machine-readable report

One concrete execution instead of a worst-case sweep::

    result = scenario.simulate(labels=(5, 12), starts=(0, 11))
    print(result.summary)

See README.md for the full tour and DESIGN.md for the architecture.
"""

from repro.api import (
    Scenario,
    ScenarioRun,
    Sweep,
    SweepRow,
    SweepRun,
    canonical_json,
)
from repro.core import (
    Cheap,
    CheapSimultaneous,
    Fast,
    FastSimultaneous,
    FastWithRelabeling,
    FastWithRelabelingSimultaneous,
    IteratedDoublingRendezvous,
    RendezvousAlgorithm,
    bounds,
)
from repro.experiments import (
    Campaign,
    CampaignResult,
    Experiment,
    ExperimentReport,
    run_experiment,
)
from repro.exploration import (
    ExplorationProcedure,
    KnowledgeModel,
    KnownMapDFS,
    RingExploration,
    UXSExploration,
    best_exploration,
)
from repro.graphs import PortLabeledGraph, oriented_ring
from repro.obs import (
    JsonlSink,
    MemorySink,
    ProgressSink,
    Telemetry,
    strip_timing,
)
from repro.registry import (
    ALGORITHMS,
    EXPERIMENTS,
    EXPLORATIONS,
    GRAPH_FAMILIES,
    KNOWLEDGE_MODELS,
    PRESENCE_MODELS,
    Registry,
    SpecError,
)
from repro.runtime import ParallelExecutor, RunStore, SerialExecutor
from repro.sim import (
    PresenceModel,
    RendezvousResult,
    Simulator,
    simulate_rendezvous,
    worst_case_search,
)

__version__ = "1.5.0"

__all__ = [
    "ALGORITHMS",
    "Campaign",
    "CampaignResult",
    "Cheap",
    "CheapSimultaneous",
    "EXPERIMENTS",
    "EXPLORATIONS",
    "Experiment",
    "ExperimentReport",
    "ExplorationProcedure",
    "Fast",
    "FastSimultaneous",
    "FastWithRelabeling",
    "FastWithRelabelingSimultaneous",
    "GRAPH_FAMILIES",
    "IteratedDoublingRendezvous",
    "JsonlSink",
    "KNOWLEDGE_MODELS",
    "KnowledgeModel",
    "KnownMapDFS",
    "MemorySink",
    "PRESENCE_MODELS",
    "ParallelExecutor",
    "PortLabeledGraph",
    "PresenceModel",
    "ProgressSink",
    "Registry",
    "RendezvousAlgorithm",
    "RendezvousResult",
    "RingExploration",
    "RunStore",
    "Scenario",
    "ScenarioRun",
    "SerialExecutor",
    "Simulator",
    "SpecError",
    "Sweep",
    "SweepRow",
    "SweepRun",
    "Telemetry",
    "UXSExploration",
    "__version__",
    "best_exploration",
    "bounds",
    "canonical_json",
    "oriented_ring",
    "run_experiment",
    "simulate_rendezvous",
    "strip_timing",
    "worst_case_search",
]
