"""Transition topologies: the explicit set of moves a machine may make.

A topology is a list of directed edges grouped by source vertex. Staying on
the current vertex is always permitted and never listed; only genuine moves
between distinct vertices need an explicit edge. A topology has one form:
it is checked and normalized once, when it is built, and the same pass
records its vertex order, which renders and machine checks then read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class EmptyVertexLabel(ValueError):
    """A vertex label was the empty string."""


@dataclass(frozen=True)
class Topology:
    """Allowed transitions as ``(source, targets)`` groups.

    Construction checks every label and normalizes the groups in one pass:
    targets given as one ``str``, groups or targets given as a ``set`` or
    ``frozenset``, whose order changes from one process to the next, and a
    label that is not a ``str`` raise ``TypeError``, an empty label raises
    :class:`EmptyVertexLabel`, duplicate source groups are merged and
    duplicate targets dropped, first appearance winning for both, so a
    topology written with duplicate groups is equal to its normal form. That
    order is part of the value because it drives rendering. The groups are
    stored as tuples; ``edges`` that already are the normal tuple are kept as
    they are. Labels are checked once, over all of them, yet of two faults the
    one in the earlier group is reported, as a check per group would.

    The same pass records the vertex order that :meth:`vertices` returns; it
    is derived from ``edges``, so it is no field and takes no part in ``==``,
    ``hash`` or ``repr``. :meth:`allows` is a single lookup in a per-source
    index built on first use.
    """

    edges: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
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
            # every label is checked once, here, so a bad one is reported ahead of whatever
            # fault a later group raised
            _check_labels(order)
        if remerged or not normal:  # an already normal tuple is kept, not rebuilt
            edges = tuple(merged.items())
            object.__setattr__(self, "edges", edges)
            if remerged:  # a merged group lists its targets later than they were written
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

    @cached_property
    def _targets(self) -> dict[str, tuple[str, ...]]:
        """Targets per source."""
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
