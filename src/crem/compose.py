"""Composition of machines: a small AST with execution semantics.

Trees are immutable; stepping returns the output and a new tree. The six
node kinds are the Basic leaf and five composites, Sequential, Parallel,
Alternative, Feedback and Kleisli, each over two subtrees ``first`` and
``second``; a tree holds no other, nor a subclass of these: a composite
refuses any other child with a ``TypeError`` when it is built, a subclass
of a composite is refused the same way when it is built, whatever its
children, a ``Basic`` refuses anything but a ``BaseMachine``, and every walk
refuses any other root, so everything that walks a tree is total over trees.
Feedback and Kleisli require list-shaped outputs from their children because
they route individual elements onward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from .machine import BaseMachine, stateless


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
    """Execution limits. ``feedback_cap``, an ``int`` of at least 1 (not a ``bool``),
    bounds loop iterations per input."""

    feedback_cap: int = 1000

    def __post_init__(self) -> None:
        if not isinstance(self.feedback_cap, int) or isinstance(self.feedback_cap, bool):
            raise TypeError(
                f"feedback_cap must be an int, got {type(self.feedback_cap).__name__}"
            )
        if self.feedback_cap < 1:
            raise ValueError("feedback_cap must be at least 1")


DEFAULT_CONFIG = RunConfig()


@dataclass(frozen=True)
class _Tagged:
    """A value tagged for one branch of an ``Alternative``; equal only within its class."""

    value: Any

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value!r})"


class Left(_Tagged):
    """An input for, or an output of, an ``Alternative``'s ``first`` child."""


class Right(_Tagged):
    """An input for, or an output of, an ``Alternative``'s ``second`` child."""


class StateMachine:
    """A tree node, always one of the six kinds: ``Basic``, ``Sequential``, ``Parallel``,
    ``Alternative``, ``Feedback`` or ``Kleisli``."""

    def step(
        self, value: Any, config: RunConfig = DEFAULT_CONFIG
    ) -> tuple[Any, "StateMachine"]:
        raise NotImplementedError

    def leaves(self) -> Iterator[BaseMachine]:
        """The leaves' machines, left to right."""
        for node, _ in _walk(self):
            if isinstance(node, Basic):
                yield node.machine


def _walk(tree: StateMachine) -> Iterator[tuple[StateMachine, bool]]:
    """The one traversal of a composition tree, with an explicit stack, not recursion.

    Yields ``(node, False)`` for every node in pre-order, left to right, and ``(node, True)``
    for each composite once its children are done. A root of any class but the six kinds
    raises ``TypeError``; every child was checked when its parent was built.
    """
    if type(tree) not in _KINDS:
        raise TypeError(f"not a composition tree node: {type(tree).__name__}")
    stack = [(tree, False)]
    while stack:
        node, done = item = stack.pop()
        yield item
        if not done and not isinstance(node, Basic):
            stack += ((node, True), (node.second, False), (node.first, False))


# key of the leaf-name set in a composite's instance __dict__; not a field,
# so ==, hash and repr never see it
_LEAF_NAMES = "_leaf_names"


def _handed_up_names(child: StateMachine) -> set[str] | None:
    """The leaf names ``child`` hands to a new parent, or None if unknown.

    A composite's set is only read here; the parent removes it once the build
    succeeds, so a subtree's set lives only on its current root and memory
    stays linear in the tree's size. A child whose class is not exactly one
    of the six kinds raises ``TypeError``: this closes the tree.
    """
    kind = type(child)
    if kind is Basic:
        return {child.machine.name}
    if kind in _KINDS:
        return child.__dict__.get(_LEAF_NAMES)
    raise TypeError(f"not a composition tree node: {kind.__name__}")


def _require_list(value: Any, where: str) -> None:
    if not isinstance(value, list):
        raise TypeError(f"{where} must produce a list, got {type(value).__name__}")


@dataclass(frozen=True)
class Basic(StateMachine):
    machine: BaseMachine

    def __post_init__(self):
        if not isinstance(self.machine, BaseMachine):
            raise TypeError(f"Basic needs a BaseMachine, got {type(self.machine).__name__}")

    def step(self, value, config=DEFAULT_CONFIG):
        output, machine = self.machine.step(value)
        if machine is self.machine:
            return output, self
        copy = object.__new__(type(self))  # a positional copy of the one field
        copy.__dict__["machine"] = machine
        return output, copy


@dataclass(frozen=True)
class _Binary(StateMachine):
    """A node over two subtrees, ``first`` and ``second``: every composite.

    Subclasses add only ``step``; the generated ``__init__``, ``repr`` and
    equality come from here and use the subclass's own name and type.
    """

    first: StateMachine
    second: StateMachine

    def __post_init__(self):
        """The leaf-name rule, in one place: check that the children share no leaf name
        and store their union. The children give their sets up only after ``self``
        holds its own, so a refused build leaves both as they were. A subclass of a
        composite is refused before any of that, whatever its children."""
        if type(self) not in _COMPOSITES:
            raise TypeError(f"not a composition tree node: {type(self).__name__}")
        first, second = self.first, self.second
        first_names = _handed_up_names(first)
        second_names = _handed_up_names(second)
        if first_names is None or second_names is None or not first_names.isdisjoint(second_names):
            # a set is missing or the sets clash: a walk names the first duplicate in walk order
            names = set()
            for leaf in self.leaves():
                if leaf.name in names:
                    raise DuplicateLeafName(f"machine name {leaf.name!r} appears more than once")
                names.add(leaf.name)
        elif len(first_names) >= len(second_names):
            # add the smaller set into the larger, in place: any chain builds in O(n log n)
            names = first_names
            names |= second_names
        else:
            names = second_names
            names |= first_names
        self.__dict__[_LEAF_NAMES] = names
        first.__dict__.pop(_LEAF_NAMES, None)
        second.__dict__.pop(_LEAF_NAMES, None)

    def _with(self, first: StateMachine, second: StateMachine) -> "_Binary":
        """A positional copy of ``self`` over ``first`` and ``second``: no ``__init__``, so
        no leaf-name set. A tree a step or restore made is walked like a reused subtree
        when built into another."""
        copy = object.__new__(type(self))
        fields = copy.__dict__
        fields["first"] = first
        fields["second"] = second
        return copy


class Sequential(_Binary):
    """Feed each input through ``first``, then its output through ``second``."""

    def step(self, value, config=DEFAULT_CONFIG):
        intermediate, first = self.first.step(value, config)
        output, second = self.second.step(intermediate, config)
        if first is self.first and second is self.second:  # a stay: no rebuild call
            return output, self
        return output, self._with(first, second)


class Parallel(_Binary):
    """Step both children on the two halves of a pair; first steps first.

    Any two-item iterable is a pair; any other input raises ``TypeError``.
    """

    def step(self, value, config=DEFAULT_CONFIG):
        try:
            a, c = value
        except (TypeError, ValueError):
            raise TypeError(f"Parallel expects a pair, got {value!r}") from None
        b, first = self.first.step(a, config)
        d, second = self.second.step(c, config)
        if first is self.first and second is self.second:
            return (b, d), self
        return (b, d), self._with(first, second)


class Alternative(_Binary):
    """Route Left inputs to ``first`` and Right inputs to ``second``.

    The child that was not addressed is returned untouched.
    """

    def step(self, value, config=DEFAULT_CONFIG):
        if isinstance(value, Left):
            output, first = self.first.step(value.value, config)
            if first is self.first:
                return Left(output), self
            return Left(output), self._with(first, self.second)
        if isinstance(value, Right):
            output, second = self.second.step(value.value, config)
            if second is self.second:
                return Right(output), self
            return Right(output), self._with(self.first, second)
        raise TypeError(f"Alternative expects Left or Right, got {value!r}")


class Feedback(_Binary):
    """Loop two machines: forward outputs are emitted and also bounced back.

    Processing is breadth-first. The result list is also the FIFO queue:
    each of its elements, in order, is run through the backward machine,
    and each of the backward outputs is immediately run through the forward
    machine, whose new outputs are appended to the result. One external
    input yields the forward outputs in production order.

    Each step of either machine spends one unit of ``config.feedback_cap``;
    a step due once the cap is spent raises :class:`FeedbackOverflow`.
    ``first`` is the forward machine and ``second`` the backward one.
    """

    def step(self, value, config=DEFAULT_CONFIG):
        produced, forward = self.first.step(value, config)  # spends the cap's first unit
        _require_list(produced, "the forward machine of Feedback")
        if not produced:  # a silent forward step settles at once, as the loop would
            if forward is self.first:
                return [], self
            return [], self._with(forward, self.second)
        backward = self.second
        budget = config.feedback_cap - 1
        collected = list(produced)  # the result; its unread tail is the backward queue
        for bounced in collected:  # a list iterator re-reads the length, so it sees extends
            if not budget:
                raise FeedbackOverflow(config.feedback_cap)
            budget -= 1
            reinjected, backward = backward.step(bounced, config)
            _require_list(reinjected, "the backward machine of Feedback")
            for item in reinjected:
                if not budget:
                    raise FeedbackOverflow(config.feedback_cap)
                budget -= 1
                produced, forward = forward.step(item, config)
                _require_list(produced, "the forward machine of Feedback")
                collected.extend(produced)
        if forward is self.first and backward is self.second:
            return collected, self
        return collected, self._with(forward, backward)


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
        return collected, self._with(first, second)


# the six kinds, by exact class: no tree holds any other node, nor a subclass of these
_KINDS = (Basic, Sequential, Parallel, Alternative, Feedback, Kleisli)
_COMPOSITES = _KINDS[1:]


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


def _collapse(value: Left | Right) -> Any:
    return value.value  # Alternative.step only ever outputs Left or Right


def fanin(first: StateMachine, second: StateMachine, name: str = "fanin") -> StateMachine:
    """Either-consuming machine whose two branches share one output type."""
    return rmap(Alternative(first, second), _collapse, name=name)
