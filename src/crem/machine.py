"""Single Mealy machines whose every step is checked against a topology."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .topology import Topology, trivial_topology

UNIT_VERTEX = "Unit"

# the one topology every single-vertex machine below shares: a Topology is an immutable
# value, so one copy serves every leaf that stateless and unrestricted_mealy build
_UNIT_TOPOLOGY = trivial_topology(UNIT_VERTEX)


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

    Construction checks the invariants once: a non-empty ``str`` name, a
    :class:`Topology`, a :class:`MachineState` on one of its vertices and a
    callable action; the topology checked its own labels when it was built. A
    step then checks only the move it makes against the topology, and only if
    it makes one: a stay, an action handing back the very same state object,
    is an identity move, which every topology allows, so it consults no
    topology and returns ``self``. Every other move, a new state object on the
    same vertex included, calls ``Topology.allows`` exactly once.
    """

    name: str
    topology: Topology
    state: MachineState
    action: Callable[[MachineState, Any], StepResult]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise TypeError(f"machine name must be a str, got {self.name!r}")
        if not self.name:
            raise EmptyName("machine name must be non-empty")
        try:
            vertex = self.state.vertex
        except AttributeError:
            raise TypeError(
                f"machine {self.name!r}: state must be a MachineState, got {self.state!r}"
            ) from None
        try:
            vertices = self.topology._vertices  # the order vertices() returns
        except AttributeError:
            raise TypeError(
                f"machine {self.name!r}: topology must be a Topology, got {self.topology!r}"
            ) from None
        if vertex not in vertices:
            raise UnknownVertex(f"vertex {vertex!r} is not in the topology of {self.name!r}")
        if not callable(self.action):
            raise TypeError(
                f"machine {self.name!r}: action must be callable, got {self.action!r}"
            )

    def step(self, value: Any) -> tuple[Any, "BaseMachine"]:
        """Run the action once, enforcing the topology on the implied move."""
        state = self.state
        output, next_state = self.action(state, value)
        if next_state is state:  # a stay: an identity move, allowed by every topology
            return output, self
        if not self.topology.allows(state.vertex, next_state.vertex):
            raise DisallowedTransition(self.name, state.vertex, next_state.vertex)
        # an allowed move lands on a vertex of the topology: nothing to recheck, so copy
        # positionally, with no __init__ and no keyword dict; inline, since a call to a
        # copy helper would cost about half of what the positional copy saves
        copy = object.__new__(type(self))
        fields = copy.__dict__
        fields.update(self.__dict__)
        fields["state"] = next_state
        return output, copy


def stateless(name: str, func: Callable[[Any], Any]) -> BaseMachine:
    """Machine with a single implicit state; the output is just ``func(input)``.

    Its topology is the one unit topology, equal to ``trivial_topology(UNIT_VERTEX)``,
    which every machine built here and by :func:`unrestricted_mealy` shares, so
    building one constructs no :class:`Topology`.
    """

    def act(state: MachineState, value: Any) -> StepResult:
        return StepResult(func(value), state)

    return BaseMachine(name, _UNIT_TOPOLOGY, MachineState(UNIT_VERTEX), act)


def unrestricted_mealy(
    name: str,
    initial: Any,
    func: Callable[[Any, Any], tuple[Any, Any]],
) -> BaseMachine:
    """Classic unconstrained Mealy machine; its state lives in the payload.

    ``func`` maps ``(state_value, input)`` to ``(output, new_state_value)``.
    Every step is an identity move on the single vertex, so no transition
    can ever be rejected. A step whose ``func`` hands back the very payload
    it was given keeps its state object, so the machine returns itself. Its
    topology is the unit topology that :func:`stateless` machines share.
    """

    def act(state: MachineState, value: Any) -> StepResult:
        output, payload = func(state.payload, value)
        if payload is state.payload:
            return StepResult(output, state)
        return StepResult(output, MachineState(UNIT_VERTEX, payload))

    return BaseMachine(name, _UNIT_TOPOLOGY, MachineState(UNIT_VERTEX, initial), act)
