"""Agent programs as Python generators.

An agent program is a factory ``AgentContext -> generator``.  The generator
must follow the *observation-first* protocol::

    def my_program(ctx: AgentContext) -> AgentGenerator:
        obs = yield          # receive the wake-up observation, emit nothing
        while condition:
            obs = yield action   # emit an action, receive the next percept

The simulator primes the generator once, then per round sends the latest
:class:`~repro.sim.observation.Observation` and receives the next
:class:`~repro.sim.actions.Action`.  A generator that returns is treated as
"wait forever" -- its agent stays put.  Sub-behaviours compose with
``yield from``: a sub-generator that follows the same protocol *minus the
priming yield* (it takes the current observation as an argument and returns
the final observation) can be embedded with ``obs = yield from sub(...)``.

:func:`idle` is the canonical such sub-behaviour; exploration procedures in
:mod:`repro.exploration` are written the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, TypeAlias

from repro.graphs.port_graph import PortLabeledGraph
from repro.sim.actions import WAIT, Action
from repro.sim.observation import Observation

#: The generator type produced by agent program factories.
AgentGenerator: TypeAlias = Generator[Action, Observation, None]

#: Sub-behaviour generators: yield actions, receive observations, and
#: *return* the observation that follows their last action.
SubBehaviour: TypeAlias = Generator[Action, Observation, Observation]


class _Capabilities:
    """The two knowledge capabilities and the errors that name them."""

    graph: PortLabeledGraph | None
    position_oracle: Callable[[], int] | None

    def require_map(self) -> PortLabeledGraph:
        """The map, or a :class:`ValueError` naming the missing knowledge."""
        if self.graph is None:
            raise ValueError("this procedure requires a map of the graph")
        return self.graph

    def require_position(self) -> int:
        """Current map position, or an error naming the missing capability."""
        if self.position_oracle is None:
            raise ValueError(
                "this procedure requires a map with a marked current position"
            )
        return self.position_oracle()


@dataclass
class AgentContext(_Capabilities):
    """Everything an agent is given before it starts executing.

    Attributes:
        label: the agent's distinct label from ``{1..L}``.
        graph: the agent's map of the network, or ``None`` if the scenario
            grants no map (UXS-based exploration needs none).
        position_oracle: a capability revealing the agent's current node id
            on its map, or ``None``.  Only scenarios where the paper grants
            a map *with a marked position* (Section 1.2) provide it; keeping
            it an explicit capability makes each anonymity relaxation
            visible and testable.
        rng: source of randomness for randomized baselines only.  The
            paper's algorithms are deterministic and never touch it.
    """

    label: int
    graph: PortLabeledGraph | None = None
    position_oracle: Callable[[], int] | None = None
    rng: random.Random | None = None


@dataclass(frozen=True)
class ExplorationContext(_Capabilities):
    """What an exploration procedure is given: the map and the position
    capability of its agent, and neither its label nor an rng.

    :meth:`repro.exploration.base.ExplorationProcedure.execute` builds it,
    so an exploration's route is a function of where it starts.
    """

    graph: PortLabeledGraph | None = None
    position_oracle: Callable[[], int] | None = None


#: Factories the simulator accepts.
ProgramFactory: TypeAlias = Callable[[AgentContext], AgentGenerator]


def idle(rounds: int, obs: Observation) -> SubBehaviour:
    """Wait for exactly ``rounds`` rounds; return the final observation.

    Usage inside a program: ``obs = yield from idle(k, obs)``.
    """
    if rounds < 0:
        raise ValueError(f"cannot wait a negative number of rounds: {rounds}")
    for _ in range(rounds):
        obs = yield WAIT
    return obs


def idle_forever(obs: Observation) -> SubBehaviour:
    """Wait indefinitely (used by programs that finished their schedule)."""
    while True:
        obs = yield WAIT


class ReactiveProgram:
    """Driver wrapper turning a program generator into a step function.

    The simulator interacts with agents exclusively through
    :meth:`step`, which hides generator priming and exhaustion.
    """

    __slots__ = ("_generator", "_primed", "finished")

    def __init__(self, generator: AgentGenerator):
        self._generator = generator
        self._primed = False
        #: True once the generator returned; the agent waits forever after.
        self.finished = False

    def step(self, observation: Observation) -> Action:
        """Feed one observation, obtain the action for the coming round."""
        if self.finished:
            return WAIT
        try:
            if not self._primed:
                self._primed = True
                primer = next(self._generator)
                if primer is not None:
                    raise RuntimeError(
                        "agent program must start with a bare 'obs = yield' "
                        f"(the priming yield produced {primer!r})"
                    )
            return self._generator.send(observation)
        except StopIteration:
            self.finished = True
            return WAIT
