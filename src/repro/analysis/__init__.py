"""Analysis tooling: tables, memory profiles and ASCII plots.

These are the building blocks of the experiment renderers in
:mod:`repro.experiments`: each experiment sweeps a parameter grid with
the adversary (through :mod:`repro.api`), renders a plain-text table of
measured-vs-paper columns, and (for curve-shaped claims) an ASCII
scatter plot.  Worst-case sweeps themselves live elsewhere:
:meth:`repro.api.Scenario.run` for named scenarios and
:func:`repro.sim.adversary.worst_case_search` for live objects.
"""

from repro.analysis.ascii_plot import scatter_plot
from repro.analysis.memory import MemoryProfile, counter_bits, dfs_walk_bits, map_bits
from repro.analysis.tables import Table, format_ratio
from repro.api import SweepRow

__all__ = [
    "MemoryProfile",
    "SweepRow",
    "Table",
    "counter_bits",
    "dfs_walk_bits",
    "format_ratio",
    "map_bits",
    "scatter_plot",
]
