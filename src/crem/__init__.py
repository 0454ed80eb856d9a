"""Composable, representable state machines.

Single machines carry an explicit transition topology that is enforced on
every step; machines compose through a small algebra whose trees both
execute and render as diagrams, so the picture of a system can never drift
from the code that runs it.
"""

from .compose import (
    DEFAULT_CONFIG,
    Alternative,
    Basic,
    DuplicateLeafName,
    Feedback,
    FeedbackOverflow,
    Kleisli,
    Left,
    Parallel,
    Right,
    RunConfig,
    Sequential,
    StateMachine,
    TraceError,
    fanin,
    identity_machine,
    lmap,
    rmap,
    run_trace,
)
from .machine import (
    UNIT_VERTEX,
    BaseMachine,
    DisallowedTransition,
    EmptyName,
    MachineState,
    StepResult,
    UnknownVertex,
    stateless,
    unrestricted_mealy,
)
from .render import Diagram, render_base, render_flow
from .topology import EmptyVertexLabel, Topology, trivial_topology

__version__ = "0.1.0"

__all__ = [
    "Alternative",
    "BaseMachine",
    "Basic",
    "DEFAULT_CONFIG",
    "Diagram",
    "DisallowedTransition",
    "DuplicateLeafName",
    "EmptyName",
    "EmptyVertexLabel",
    "Feedback",
    "FeedbackOverflow",
    "Kleisli",
    "Left",
    "MachineState",
    "Parallel",
    "Right",
    "RunConfig",
    "Sequential",
    "StateMachine",
    "StepResult",
    "Topology",
    "TraceError",
    "UNIT_VERTEX",
    "UnknownVertex",
    "fanin",
    "identity_machine",
    "lmap",
    "render_base",
    "render_flow",
    "rmap",
    "run_trace",
    "stateless",
    "trivial_topology",
    "unrestricted_mealy",
]
