"""Base class, execution harness and solo recorder of exploration procedures.

An exploration procedure is a reusable sub-behaviour (see
:mod:`repro.sim.program`): given its context and current observation it
yields actions.  :meth:`ExplorationProcedure.execute` wraps the raw
movement generator so that the behaviour lasts *exactly* ``budget``
rounds -- the paper's ``EXPLORE`` always takes exactly ``E`` rounds,
waiting out any remainder -- and fails loudly if the movement would
exceed the budget (an incorrect budget must never be papered over).

``execute`` hands the procedure an exploration-local view (the map, the
position capability and a clock from 0), so a walk is a function of the
node and entry port it starts from: what :func:`record_route` records.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

from repro.sim.actions import Action, validate_action
from repro.sim.observation import Observation
from repro.sim.program import AgentContext, ExplorationContext, SubBehaviour, idle


class ExplorationBudgetError(RuntimeError):
    """An exploration emitted more actions than its declared budget ``E``."""


class ExplorationProcedure(ABC):
    """A procedure that visits every node within ``budget`` rounds.

    Subclasses implement :meth:`moves`, the raw movement generator; users
    call :meth:`execute`, which enforces and pads to the exact budget and
    gives :meth:`moves` an exploration-local view.
    """

    #: Human-readable name used in reports.
    name: str = "exploration"

    #: True when :meth:`moves` emits a port sequence that depends only on
    #: the observation stream (exploration-local clock, degree, entry
    #: ports) -- never on the agent's position or a map lookup keyed by
    #: node identity.
    #: On a graph whose rotation is a port-preserving automorphism, such a
    #: procedure traces rotated copies of one route from every start,
    #: which is what lets the cube engine (:mod:`repro.sim.prune`) derive
    #: all-start trajectories from a single compilation.  Deliberately
    #: conservative: ``False`` here; a procedure must only declare ``True``
    #: when the property holds by construction (fixed port sequences).
    start_oblivious: bool = False

    @property
    @abstractmethod
    def budget(self) -> int:
        """The bound ``E``: the procedure finishes within this many rounds."""

    @abstractmethod
    def moves(self, ctx: ExplorationContext, obs: Observation) -> SubBehaviour:
        """Yield the exploration's actions; return the final observation."""

    def execute(
        self, ctx: AgentContext | ExplorationContext, obs: Observation
    ) -> SubBehaviour:
        """Run :meth:`moves`, then idle until exactly ``budget`` rounds passed.

        :meth:`moves` sees only the map and the position capability of
        ``ctx``, and observations whose clock counts from 0 at this call.

        Usage inside an agent program::

            obs = yield from procedure.execute(ctx, obs)
        """
        budget = self.budget
        base = obs.clock
        inner = self.moves(
            ExplorationContext(ctx.graph, ctx.position_oracle),
            Observation(0, obs.degree, obs.entry_port) if base else obs,
        )
        taken = 0
        try:
            action = next(inner)
            while True:
                if taken == budget:
                    raise ExplorationBudgetError(
                        f"{self.name} tried to act in round {taken + 1} "
                        f"of a budget of {budget}"
                    )
                obs = yield action
                taken += 1
                action = inner.send(
                    Observation(taken, obs.degree, obs.entry_port) if base else obs
                )
        except StopIteration:
            pass
        obs = yield from idle(budget - taken, obs)
        return obs


class Route(NamedTuple):
    """One exploration walk, recorded solo by :func:`record_route`.

    Round ``r``'s action (padding waits included), the node after it and
    the edge traversals through it are ``actions``, ``positions`` and
    ``cumulative`` at ``r - 1``; ``moves`` and ``entry_port`` hold after
    the last round.  A walk that raised keeps its prefix, the ``error``
    and ``error_at``, the round a build must reach for it to fire: the
    prefix length, or one more for a bad port (checked as its round is
    recorded).
    """

    actions: list[Action]
    positions: list[int]
    cumulative: list[int]
    moves: int
    entry_port: int | None
    error: Exception | None = None
    error_at: int = 0


def record_route(
    procedure: ExplorationProcedure,
    graph,
    node: int,
    entry_port: int | None = None,
    provide_map: bool = True,
    provide_position: bool = True,
) -> Route:
    """Walk ``procedure`` solo from ``node``, last entered through ``entry_port``.

    The one recorder of an exploration walk: it drives
    :meth:`~ExplorationProcedure.execute` (budget enforced) with the
    knowledge the flags grant, checks every port, and keeps an error (an
    overrun budget, a missing map, a bad port) in the :class:`Route`.
    """
    rows = graph.adjacency()
    actions: list[Action] = []
    positions: list[int] = []
    cumulative: list[int] = []
    position, moves, late = node, 0, 0
    context = ExplorationContext(
        graph if provide_map else None,
        (lambda: position) if provide_position else None,
    )
    behaviour = procedure.execute(
        context, Observation(0, len(rows[node]), entry_port)
    )
    try:
        action = next(behaviour)
        while True:
            if action is not None:
                row = rows[position]
                if action.__class__ is not int or not 0 <= action < len(row):
                    late = 1  # a bad port fails as its round is recorded
                    validate_action(action, len(row))  # passes an int subclass
                    late = 0
                position, entry_port = row[action]
                moves += 1
            actions.append(action)
            positions.append(position)
            cumulative.append(moves)
            action = behaviour.send(
                Observation(len(actions), len(rows[position]), entry_port)
            )
    except StopIteration:
        pass
    except Exception as error:  # kept, and raised where a build reaches it
        error_at = len(actions) + late
        return Route(actions, positions, cumulative, moves, entry_port, error, error_at)
    return Route(actions, positions, cumulative, moves, entry_port)


def measure_exploration(
    procedure: ExplorationProcedure,
    graph,
    start_node: int,
    provide_map: bool = True,
    provide_position: bool = True,
) -> tuple[set[int], int]:
    """Run a procedure solo and report ``(visited_nodes, moves_used)``.

    This harness is how tests certify the exploration contract: starting
    from every node, all nodes are visited and at most ``budget`` moves are
    used.  It records the walk with :func:`record_route` (no second agent
    is involved) and raises whatever the procedure raised.
    """
    route = record_route(
        procedure, graph, start_node, None, provide_map, provide_position
    )
    if route.error is not None:
        raise route.error
    return set(route.positions) | {start_node}, route.moves
