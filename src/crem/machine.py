"""Single Mealy machines whose every step is checked against a topology."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .topology import Topology, trivial_topology

UNIT_VERTEX = "Unit"


class EmptyName(ValueError):
    """A machine name was the empty string."""


class UnknownVertex(ValueError):
    """A machine state referenced a vertex outside its topology."""


class DisallowedTransition(Exception):
    """An action tried to move along an edge the topology forbids.

    This signals a bug in the action implementation, not bad input.
    """

    def __init__(self, machine: str, source: str, target: str) -> None:
        super().__init__(
            f"machine {machine!r}: transition {source!r} -> {target!r} "
            "is not allowed by the topology"
        )
        self.machine = machine
        self.source = source
        self.target = target


@dataclass(frozen=True)
class MachineState:
    """Current vertex plus an opaque payload carried alongside it."""

    vertex: str
    payload: Any = None


class StepResult(NamedTuple):
    output: Any
    state: MachineState


@dataclass(frozen=True)
class BaseMachine:
    """A named Mealy machine constrained by an explicit topology.

    ``action`` maps ``(state, input)`` to a :class:`StepResult` and must be
    pure. Stepping returns a new machine value; nothing is mutated.

    Construction checks the invariants once: a non-empty name and a state
    on one of the topology's vertices; the :class:`Topology` checked its own
    labels and normalized itself when it was built. A step then checks only
    the move it makes against the topology.
    """

    name: str
    topology: Topology
    state: MachineState
    action: Callable[[MachineState, Any], StepResult]

    def __post_init__(self) -> None:
        if not self.name:
            raise EmptyName("machine name must be non-empty")
        if not _on_topology(self.topology, self.state.vertex):
            raise UnknownVertex(
                f"vertex {self.state.vertex!r} is not in the topology of {self.name!r}"
            )

    def step(self, value: Any) -> tuple[Any, "BaseMachine"]:
        """Run the action once, enforcing the topology on the implied move."""
        output, next_state = self.action(self.state, value)
        if not self.topology.allows(self.state.vertex, next_state.vertex):
            raise DisallowedTransition(self.name, self.state.vertex, next_state.vertex)
        if next_state is self.state:  # the action kept its state: so does the machine
            return output, self
        # an allowed move lands on a vertex of the topology: nothing to recheck
        return output, _evolve(self, state=next_state)


def _on_topology(topology: Topology, vertex: str) -> bool:
    """True if ``vertex`` is a source or a target of one of ``topology``'s edges."""
    return any(vertex == source or vertex in targets for source, targets in topology.edges)


def _evolve(value, **changes):
    """Copy of an already validated frozen dataclass with ``changes`` applied.

    Unlike :func:`dataclasses.replace` it skips ``__init__`` and
    ``__post_init__``, so the caller must keep the invariants itself.
    """
    copy = object.__new__(type(value))
    copy.__dict__.update(value.__dict__, **changes)
    return copy


def stateless(name: str, func: Callable[[Any], Any]) -> BaseMachine:
    """Machine with a single implicit state; the output is just ``func(input)``."""

    def act(state: MachineState, value: Any) -> StepResult:
        return StepResult(func(value), state)

    return BaseMachine(name, trivial_topology(UNIT_VERTEX), MachineState(UNIT_VERTEX), act)


def unrestricted_mealy(
    name: str,
    initial: Any,
    func: Callable[[Any, Any], tuple[Any, Any]],
) -> BaseMachine:
    """Classic unconstrained Mealy machine; its state lives in the payload.

    ``func`` maps ``(state_value, input)`` to ``(output, new_state_value)``.
    Every step is an identity move on the single vertex, so no transition
    can ever be rejected. A step whose ``func`` hands back the very payload
    it was given keeps its state object, so the machine returns itself.
    """

    def act(state: MachineState, value: Any) -> StepResult:
        output, payload = func(state.payload, value)
        if payload is state.payload:
            return StepResult(output, state)
        return StepResult(output, MachineState(UNIT_VERTEX, payload))

    return BaseMachine(
        name, trivial_topology(UNIT_VERTEX), MachineState(UNIT_VERTEX, initial), act
    )
