"""Transition topologies: the explicit set of moves a machine may make."""

from __future__ import annotations

from dataclasses import dataclass


class EmptyVertexLabel(ValueError):
    """A vertex label was the empty string."""


class _lazy:
    """A non-data descriptor: the first read of the attribute calls ``func`` and stores the
    result in the instance ``__dict__``, where every later read finds it with no call.
    ``functools.cached_property`` does the same, but on Python 3.11 takes a lock first."""

    def __init__(self, func) -> None:
        self.func = func

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.func.__name__] = self.func(instance)
        return value


@dataclass(frozen=True)
class Topology:
    """Allowed transitions as ``(source, targets)`` groups, each ``targets`` a sequence of
    labels; staying on a vertex is always allowed and never listed.

    A topology has one form, fixed when it is built: one group per source and each target
    once, in first-appearance order, so ``==`` compares that form, order included, as
    order drives rendering. A label that is not a ``str``, targets given as a ``str``, and
    groups or targets given as a ``set`` or ``frozenset`` raise ``TypeError``; an empty
    label raises :class:`EmptyVertexLabel`. :meth:`vertices` returns the vertex order,
    which is no field and takes no part in ``==``, ``hash`` or ``repr``.
    """

    edges: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        """Check and normalize the groups in one pass, recording the vertex order.

        ``edges`` that already are the normal tuple are kept, not rebuilt. Labels are
        checked once, over all of them, in ``finally``, so a bad label is reported ahead of
        whatever fault a later group raised, as a check per group would report it. A merge
        lists a group's targets later than they were written, so after one the order is
        rebuilt from the merged groups.
        """
        merged: dict[str, tuple[str, ...]] = {}
        # every label in first-appearance order; a target maps to the last group that
        # listed it, so a target repeated inside its own group is one lookup
        order: dict[str, object] = {}
        normal = isinstance(self.edges, tuple)  # the groups as written are the normal ones
        remerged = False
        try:
            if not normal and isinstance(self.edges, (set, frozenset)):
                raise TypeError(f"the groups must be in order, not a {type(self.edges).__name__}")
            for group in self.edges:
                source, targets = group
                if not isinstance(targets, tuple):
                    if isinstance(targets, str):  # a bare label would split into its characters
                        raise TypeError(f"the targets of {source!r} must be labels, not a str")
                    if isinstance(targets, (set, frozenset)):  # its order changes per process
                        raise TypeError(
                            f"the targets of {source!r} must be in order, "
                            f"not a {type(targets).__name__}"
                        )
                    targets = tuple(targets)
                    normal = False
                elif not isinstance(group, tuple):
                    normal = False
                if source not in order:
                    order[source] = None
                repeated = False
                for target in targets:
                    if order.get(target) is group:
                        repeated = True
                    order[target] = group
                if source in merged:
                    targets = tuple(dict.fromkeys(merged[source] + targets))
                    remerged = True
                elif repeated:
                    targets = tuple(dict.fromkeys(targets))
                    normal = False
                merged[source] = targets
        finally:
            _check_labels(order)
        if remerged or not normal:
            edges = tuple(merged.items())
            object.__setattr__(self, "edges", edges)
            if remerged:
                order = dict.fromkeys(
                    vertex for source, targets in edges for vertex in (source, *targets)
                )
        object.__setattr__(self, "_vertices", tuple(order))

    def normalize(self) -> Topology:
        """The topology itself: construction already normalized it."""
        return self

    def allows(self, source: str, target: str) -> bool:
        """True if the move ``source -> target`` is permitted.

        Identity moves are always allowed, listed or not.
        """
        return source == target or target in self._targets.get(source, ())

    @_lazy
    def _targets(self) -> dict[str, tuple[str, ...]]:
        """Targets per source, built on first use: a topology that is only rendered never
        reads it."""
        return dict(self.edges)

    def vertices(self) -> tuple[str, ...]:
        """All vertices (sources and targets) in first-appearance order.

        Construction recorded this order; every call returns the same tuple.
        """
        return self._vertices

    def transitions(self) -> tuple[tuple[str, str], ...]:
        """Explicit edges flattened to ``(source, target)`` pairs."""
        return tuple(
            (source, target) for source, targets in self.edges for target in targets
        )


def _check_labels(labels: dict[str, object]) -> None:
    """Refuse the first label, in order, that is not a ``str`` or is empty. Good labels
    cost one join, which raises ``TypeError`` on any that is not a ``str``, and one lookup."""
    try:
        "".join(labels)
        if "" not in labels:
            return
    except TypeError:
        pass
    for label in labels:
        if not isinstance(label, str):
            raise TypeError(f"vertex labels must be str, got {label!r}") from None
        if not label:
            raise EmptyVertexLabel("vertex labels must be non-empty") from None


def trivial_topology(vertex: str) -> Topology:
    """Topology with a single vertex and no explicit edges."""
    return Topology(((vertex, ()),))
