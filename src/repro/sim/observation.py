"""What an agent is allowed to perceive.

Per the paper's model (Section 1.2) an agent entering a node learns the
node's degree and the port through which it entered; it has a clock ticking
from its own wake-up.  Crucially, no node identifier is ever revealed:
enforcing that here (rather than by convention) is what makes the
simulated algorithms honest implementations of the anonymous-network model.
"""

from typing import NamedTuple


class Observation(NamedTuple):
    """The complete legal percept of an agent at one time point.

    Immutable, and a named tuple because engines build one per agent per
    round (and an exploration one more, its local view).

    Attributes:
        clock: rounds elapsed since this agent's wake-up (0 at wake).
            Inside an exploration procedure's ``moves`` it is
            exploration-local: rounds elapsed since that exploration
            started (see
            :meth:`repro.exploration.base.ExplorationProcedure.execute`).
        degree: degree of the node the agent currently occupies.
        entry_port: the port through which the agent last entered its
            current node, or ``None`` if it has not moved yet (it then still
            sits on its starting node).  A waiting round leaves ``entry_port``
            unchanged, which models the agent's own memory of its arrival.
    """

    clock: int
    degree: int
    entry_port: int | None
