"""Base class shared by all rendezvous algorithms in this library.

A :class:`RendezvousAlgorithm` is constructed from an exploration
procedure (which fixes ``E``) and the label-space size ``L``.  It is itself
a :data:`~repro.sim.program.ProgramFactory`: calling it with an
:class:`~repro.sim.program.AgentContext` yields the agent program for the
context's label, so an instance can be handed directly to the simulator or
the adversary.

Subclasses declare the per-label :class:`~repro.core.schedule.Schedule`;
time/cost bounds come from :mod:`repro.core.bounds`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.schedule import Schedule, schedule_body, schedule_program
from repro.exploration.base import ExplorationProcedure
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, AgentGenerator, SubBehaviour


class RendezvousAlgorithm(ABC):
    """A deterministic rendezvous algorithm parameterised by ``(EXPLORE, L)``."""

    #: Short name used in tables and reports.
    name: str = "rendezvous"

    #: True for algorithms whose correctness requires simultaneous start
    #: (the simultaneous-start variants of Section 2).
    requires_simultaneous_start: bool = False

    #: True for algorithms whose whole behaviour is the declared
    #: :meth:`schedule` run through ``schedule_program``: the trajectory
    #: of an agent depends only on its ``(label, start)``, never on the
    #: other agent.  Such algorithms are eligible for the compiled and
    #: cube engines (:mod:`repro.sim.compiled`, :mod:`repro.sim.cube`).
    #: Derived, never declared: :meth:`__init_subclass__` sets it exactly
    #: when a subclass overrides neither ``__call__`` nor ``body``.
    is_oblivious: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.is_oblivious = schedule_driven(cls)

    def __init__(self, exploration: ExplorationProcedure, label_space: int):
        if label_space < 2:
            raise ValueError(
                f"rendezvous needs at least two labels, got L={label_space}"
            )
        self.exploration = exploration
        self.label_space = label_space
        self._schedule_lengths: dict[int, int] = {}

    # ------------------------------------------------------------------

    @property
    def exploration_budget(self) -> int:
        """The bound ``E`` the algorithm is instantiated with."""
        return self.exploration.budget

    def _check_label(self, label: int) -> None:
        if not 1 <= label <= self.label_space:
            raise ValueError(
                f"label {label} outside the label space 1..{self.label_space}"
            )

    @abstractmethod
    def schedule(self, label: int) -> Schedule:
        """The wait/explore schedule executed by agent ``label``."""

    # ------------------------------------------------------------------
    # Program-factory interface (what the simulator consumes)
    # ------------------------------------------------------------------

    def __call__(self, ctx: AgentContext) -> AgentGenerator:
        self._check_label(ctx.label)
        return schedule_program(self.schedule(ctx.label), self.exploration, ctx)

    def body(self, ctx: AgentContext, obs: Observation) -> SubBehaviour:
        """The algorithm as a composable sub-behaviour.

        Used by :class:`~repro.core.unknown_e.IteratedDoublingRendezvous`
        to chain one instance per size estimate.
        """
        self._check_label(ctx.label)
        return schedule_body(self.schedule(ctx.label), self.exploration, ctx, obs)

    def schedule_length(self, label: int) -> int:
        """Exact number of rounds in agent ``label``'s schedule.

        ``simulate_rendezvous`` uses this to derive a sufficient horizon:
        a correct algorithm meets before both schedules end.  Memoised per
        label: adversary sweeps ask for it once per configuration, and
        rebuilding the :class:`~repro.core.schedule.Schedule` each time
        would dominate the compiled engine's per-configuration work.
        """
        cached = self._schedule_lengths.get(label)
        if cached is None:
            cached = self.schedule(label).total_rounds(self.exploration_budget)
            self._schedule_lengths[label] = cached
        return cached

    # ------------------------------------------------------------------
    # Declared complexity (each subclass wires the right formula in)
    # ------------------------------------------------------------------

    @abstractmethod
    def time_bound(self, smaller_label: int | None = None) -> int:
        """The paper's worst-case time bound (label-specific if given)."""

    @abstractmethod
    def cost_bound(self, smaller_label: int | None = None) -> int:
        """The paper's worst-case combined-cost bound."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(E={self.exploration_budget}, "
            f"L={self.label_space})"
        )


def schedule_driven(cls: type) -> bool:
    """Whether ``cls``'s program is its :meth:`~RendezvousAlgorithm.schedule`.

    The structural rule behind :attr:`RendezvousAlgorithm.is_oblivious`:
    true exactly for subclasses that override neither ``__call__`` nor
    ``body``, so every agent runs ``schedule_program(self.schedule(label),
    self.exploration, ctx)``.  The compiled engine asks this rule, never
    the flag, before compiling a trajectory segment by segment.
    """
    return (
        issubclass(cls, RendezvousAlgorithm)
        and cls.__call__ is RendezvousAlgorithm.__call__
        and cls.body is RendezvousAlgorithm.body
    )
