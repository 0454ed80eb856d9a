"""Composition of machines: a small AST with execution semantics.

Trees are immutable; stepping returns the output and a new tree. The six
node kinds are Basic, Sequential, Parallel, Alternative, Feedback and
Kleisli, and a tree holds no other: a composite refuses any other child
with a ``TypeError`` when it is built, and every walk refuses any other
root, so everything that walks a tree is total over trees. Feedback and
Kleisli require list-shaped outputs from their children because they route
individual elements onward.

Leaf names are checked once, when a node is built through its public
constructor, and the check costs only the work that node adds: a new
composite takes over the sets of leaf names its children were built with
(a ``Basic`` child contributes its one name), tests that the two sets are
disjoint and adds the smaller set into the larger one in place, so only the
root of a tree holds a set and any chain builds in O(n log n) without
re-walking its subtrees. A child whose set is gone (a subtree reused in a
second parent) sends the check back to a walk over the new node's leaves,
as does any clash, so the error always names the first duplicate in walk
order. The children give their sets up only once the new node holds its
own, so a refused build leaves its children as they were. Stepping moves
the already validated nodes forward through a private copy, which shares
the root's set, so a step costs only the leaf steps it makes; a later
build can only grow that set into a superset of the copy's names, which
at worst sends a build of the copy through the walk and never hides a
duplicate. A node whose children all came back as the very same objects
is returned as it is, so a stay allocates nothing and a move rebuilds only
its path from the root; every subtree it did not touch is shared by the
old and new tree.

Feedback scheduling is FIFO: the forward machine's outputs are both
accumulated and queued; each queued element goes through the backward
machine, whose outputs are fed back into the forward machine immediately,
in order. The accumulated forward outputs, in production order, are the
result. A configurable budget bounds the loop, since nothing else
guarantees it terminates.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from .machine import BaseMachine, MachineState, _evolve, _on_topology, stateless


class DuplicateLeafName(ValueError):
    """Two leaves of one composition tree share a machine name."""


class FeedbackOverflow(Exception):
    """A feedback loop exceeded its iteration budget for one input."""

    def __init__(self, cap: int) -> None:
        super().__init__(f"feedback loop exceeded {cap} iterations without settling")
        self.cap = cap


class TraceError(Exception):
    """Wraps an error raised while folding a machine over an input trace."""

    def __init__(self, index: int, error: Exception) -> None:
        super().__init__(f"input {index}: {error}")
        self.index = index
        self.error = error


@dataclass(frozen=True)
class RunConfig:
    """Execution limits. ``feedback_cap`` bounds loop iterations per input."""

    feedback_cap: int = 1000

    def __post_init__(self) -> None:
        if self.feedback_cap < 1:
            raise ValueError("feedback_cap must be at least 1")


DEFAULT_CONFIG = RunConfig()


@dataclass(frozen=True)
class Left:
    value: Any

    def __repr__(self) -> str:
        return f"Left({self.value!r})"


@dataclass(frozen=True)
class Right:
    value: Any

    def __repr__(self) -> str:
        return f"Right({self.value!r})"


class StateMachine:
    """A tree node, always one of the six kinds: ``Basic``, ``Sequential``, ``Parallel``,
    ``Alternative``, ``Feedback`` or ``Kleisli``."""

    def step(
        self, value: Any, config: RunConfig = DEFAULT_CONFIG
    ) -> tuple[Any, "StateMachine"]:
        raise NotImplementedError

    def leaves(self) -> Iterator[BaseMachine]:
        """The leaves' machines, left to right."""
        return _iter_leaves(self)


def _walk(tree: StateMachine) -> Iterator[tuple[StateMachine, bool]]:
    """The one traversal of a composition tree, with an explicit stack, not recursion.

    Yields ``(node, False)`` for every node in pre-order, left to right, and ``(node, True)``
    for each composite once its children are done. Nodes are the six kinds; a root of any
    other type raises ``TypeError``, and every child was checked when its parent was built.
    """
    if not isinstance(tree, _KINDS):
        raise TypeError(f"not a composition tree node: {type(tree).__name__}")
    stack = [(tree, False)]
    while stack:
        node, done = item = stack.pop()
        yield item
        if done or isinstance(node, Basic):
            continue
        if isinstance(node, _Binary):
            stack += ((node, True), (node.second, False), (node.first, False))
        else:  # Feedback
            stack += ((node, True), (node.backward, False), (node.forward, False))


def _iter_leaves(tree: StateMachine) -> Iterator[BaseMachine]:
    """Leaves left to right."""
    for node, _ in _walk(tree):
        if isinstance(node, Basic):
            yield node.machine


def _leaf_vertices(tree: StateMachine) -> list[str] | None:
    """The vertices of ``tree``'s leaves in ``_iter_leaves`` order.

    None if vertices alone do not capture the tree's state: a leaf's payload
    is not None.
    """
    vertices = []
    for node, _ in _walk(tree):
        if isinstance(node, Basic):
            if node.machine.state.payload is not None:
                return None
            vertices.append(node.machine.state.vertex)
    return vertices


def _restore_vertices(tree: StateMachine, vertices: Sequence[str]) -> StateMachine | None:
    """``tree`` with its leaves, in ``_iter_leaves`` order, moved onto ``vertices``.

    The inverse of :func:`_leaf_vertices`. Each vertex is checked against
    its leaf's topology as ``BaseMachine`` construction checks it, and the
    tree is rebuilt through ``_evolve``, keeping every leaf already on its
    vertex with no payload and every subtree none of whose leaves moved.
    None for a count of vertices other than the count of leaves, or a
    vertex off its leaf's topology.
    """
    used = 0  # vertices handed out so far
    built: list[StateMachine] = []  # rebuilt subtrees, children before parents
    for node, done in _walk(tree):
        if isinstance(node, Basic):
            machine = node.machine
            if used == len(vertices) or not _on_topology(machine.topology, vertices[used]):
                return None
            vertex = vertices[used]
            used += 1
            if machine.state.vertex != vertex or machine.state.payload is not None:
                node = _evolve(node, machine=_evolve(machine, state=MachineState(vertex)))
            built.append(node)
        elif done:
            second, first = built.pop(), built.pop()
            one, two = node.__match_args__  # the two fields: first, second or forward, backward
            if first is not getattr(node, one) or second is not getattr(node, two):
                node = _evolve(node, **{one: first, two: second})
            built.append(node)
    return built[0] if used == len(vertices) else None


def _fingerprint(tree: StateMachine) -> str:
    """The sha256 of ``tree``'s walk: each node's kind, and each leaf's name, edges and vertex.

    It names the topology, not the actions' code or the payloads. Composites have two
    children, so pre-order fixes the shape.
    """
    walk = [
        (type(node).__name__, node.machine.name, node.machine.topology.edges,
         node.machine.state.vertex) if isinstance(node, Basic) else type(node).__name__
        for node, done in _walk(tree) if not done
    ]
    return hashlib.sha256(repr(walk).encode()).hexdigest()


def _check_leaf_names(node: StateMachine) -> set[str]:
    """The leaf names of ``node``, raising on the first duplicate in walk order: the
    fallback of a build whose child handed up no set, or whose children's sets clash."""
    seen: set[str] = set()
    for leaf in _iter_leaves(node):
        if leaf.name in seen:
            raise DuplicateLeafName(f"machine name {leaf.name!r} appears more than once")
        seen.add(leaf.name)
    return seen


# key of the leaf-name set in a composite's instance __dict__; not a field,
# so ==, hash and repr never see it
_LEAF_NAMES = "_leaf_names"


def _handed_up_names(child: StateMachine) -> set[str] | None:
    """The leaf names ``child`` hands to a new parent, or None if unknown.

    A composite's set is only read here; the parent removes it once the build
    succeeds, so a subtree's set lives only on its current root and memory
    stays linear in the tree's size. A child that is not one of the six
    kinds raises ``TypeError``: this closes the tree.
    """
    if isinstance(child, Basic):
        return {child.machine.name}
    if isinstance(child, _KINDS):
        return child.__dict__.get(_LEAF_NAMES)
    raise TypeError(f"not a composition tree node: {type(child).__name__}")


def _adopt_leaf_names(node: StateMachine, first: StateMachine, second: StateMachine) -> None:
    """Check that ``node``'s children share no leaf name; store their union.

    The children give their sets up only after ``node`` holds its own, so a
    refused build leaves both children as they were.
    """
    first_names = _handed_up_names(first)
    second_names = _handed_up_names(second)
    if first_names is None or second_names is None or not first_names.isdisjoint(second_names):
        # a set is missing or the sets clash: the walk names the first duplicate
        names = _check_leaf_names(node)
    elif len(first_names) >= len(second_names):  # add the smaller set into the larger, in place
        names = first_names
        names |= second_names
    else:
        names = second_names
        names |= first_names
    node.__dict__[_LEAF_NAMES] = names
    first.__dict__.pop(_LEAF_NAMES, None)
    second.__dict__.pop(_LEAF_NAMES, None)


def _require_list(value: Any, where: str) -> None:
    if not isinstance(value, list):
        raise TypeError(f"{where} must produce a list, got {type(value).__name__}")


@dataclass(frozen=True)
class Basic(StateMachine):
    machine: BaseMachine

    def step(self, value, config=DEFAULT_CONFIG):
        output, machine = self.machine.step(value)
        if machine is self.machine:
            return output, self
        return output, _evolve(self, machine=machine)


@dataclass(frozen=True)
class _Binary(StateMachine):
    """A node over two subtrees, ``first`` and ``second``.

    Subclasses add only ``step``; the generated ``__init__``, ``repr`` and
    equality come from here and use the subclass's own name and type.
    """

    first: StateMachine
    second: StateMachine

    def __post_init__(self):
        _adopt_leaf_names(self, self.first, self.second)


class Sequential(_Binary):
    """Feed each input through ``first``, then its output through ``second``."""

    def step(self, value, config=DEFAULT_CONFIG):
        intermediate, first = self.first.step(value, config)
        output, second = self.second.step(intermediate, config)
        if first is self.first and second is self.second:
            return output, self
        return output, _evolve(self, first=first, second=second)


class Parallel(_Binary):
    """Step both children on the two halves of a pair; first steps first."""

    def step(self, value, config=DEFAULT_CONFIG):
        a, c = value
        b, first = self.first.step(a, config)
        d, second = self.second.step(c, config)
        if first is self.first and second is self.second:
            return (b, d), self
        return (b, d), _evolve(self, first=first, second=second)


class Alternative(_Binary):
    """Route Left inputs to ``first`` and Right inputs to ``second``.

    The child that was not addressed is returned untouched.
    """

    def step(self, value, config=DEFAULT_CONFIG):
        if isinstance(value, Left):
            output, first = self.first.step(value.value, config)
            if first is self.first:
                return Left(output), self
            return Left(output), _evolve(self, first=first)
        if isinstance(value, Right):
            output, second = self.second.step(value.value, config)
            if second is self.second:
                return Right(output), self
            return Right(output), _evolve(self, second=second)
        raise TypeError(f"Alternative expects Left or Right, got {value!r}")


@dataclass(frozen=True)
class Feedback(StateMachine):
    """Loop two machines: forward outputs are emitted and also bounced back.

    Processing is breadth-first. Every forward output joins a FIFO queue;
    each queued element is run through the backward machine, and each of
    the backward outputs is immediately run through the forward machine,
    whose new outputs are appended to both the result and the queue. One
    external input yields the forward outputs in production order.

    Each step of either machine spends one unit of ``config.feedback_cap``;
    work still queued once the cap is spent raises :class:`FeedbackOverflow`.
    """

    forward: StateMachine
    backward: StateMachine

    def __post_init__(self):
        _adopt_leaf_names(self, self.forward, self.backward)

    def step(self, value, config=DEFAULT_CONFIG):
        forward = self.forward
        backward = self.backward
        collected: list[Any] = []
        inputs: deque[Any] = deque([value])  # waiting for the forward machine
        outputs: deque[Any] = deque()  # forward outputs waiting for the backward one
        for _ in range(config.feedback_cap):
            if inputs:
                produced, forward = forward.step(inputs.popleft(), config)
                _require_list(produced, "the forward machine of Feedback")
                collected.extend(produced)
                outputs.extend(produced)
            elif outputs:
                reinjected, backward = backward.step(outputs.popleft(), config)
                _require_list(reinjected, "the backward machine of Feedback")
                inputs.extend(reinjected)
            else:
                break
        if inputs or outputs:
            raise FeedbackOverflow(config.feedback_cap)
        if forward is self.forward and backward is self.backward:
            return collected, self
        return collected, _evolve(self, forward=forward, backward=backward)


class Kleisli(_Binary):
    """Flat-map ``first``'s outputs through ``second``.

    The second machine's state threads across all elements of one batch:
    it folds over the whole event stream, it is not reset per element.
    """

    def step(self, value, config=DEFAULT_CONFIG):
        produced, first = self.first.step(value, config)
        _require_list(produced, "the first machine of Kleisli")
        second = self.second
        collected: list[Any] = []
        for item in produced:
            outputs, second = second.step(item, config)
            _require_list(outputs, "the second machine of Kleisli")
            collected.extend(outputs)
        if first is self.first and second is self.second:
            return collected, self
        return collected, _evolve(self, first=first, second=second)


# the six kinds: Basic, the four _Binary nodes and Feedback; no tree holds any other node
_KINDS = (Basic, _Binary, Feedback)


def run_trace(
    machine: StateMachine,
    inputs: Sequence[Any],
    config: RunConfig = DEFAULT_CONFIG,
) -> list[Any]:
    """Fold ``step`` over the inputs, collecting one output per input.

    The first error aborts the run; it is wrapped in a :class:`TraceError`
    carrying the 0-based index of the offending input.
    """
    outputs: list[Any] = []
    current = machine
    for index, value in enumerate(inputs):
        try:
            output, current = current.step(value, config)
        except Exception as error:
            raise TraceError(index, error) from error
        outputs.append(output)
    return outputs


def identity_machine(name: str = "identity") -> Basic:
    """Machine that passes every input through unchanged."""
    return Basic(stateless(name, lambda value: value))


def lmap(func: Callable[[Any], Any], machine: StateMachine, name: str = "lmap") -> Sequential:
    """Pre-process inputs with a pure function."""
    return Sequential(Basic(stateless(name, func)), machine)


def rmap(machine: StateMachine, func: Callable[[Any], Any], name: str = "rmap") -> Sequential:
    """Post-process outputs with a pure function."""
    return Sequential(machine, Basic(stateless(name, func)))


def split_choice(first: StateMachine, second: StateMachine) -> Alternative:
    """Route Left inputs to ``first`` and Right inputs to ``second``."""
    return Alternative(first, second)


def _collapse(value: Any) -> Any:
    if isinstance(value, (Left, Right)):
        return value.value
    raise TypeError(f"expected Left or Right, got {value!r}")


def fanin(first: StateMachine, second: StateMachine, name: str = "fanin") -> StateMachine:
    """Either-consuming machine whose two branches share one output type."""
    return rmap(Alternative(first, second), _collapse, name=name)
