"""Transition topologies: the explicit set of moves a machine may make.

A topology is a list of directed edges grouped by source vertex. Staying on
the current vertex is always permitted and never listed; only genuine moves
between distinct vertices need an explicit edge. A topology has one form:
it is checked and normalized once, when it is built.
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
    targets given as one ``str`` raise ``TypeError``, an empty label raises
    :class:`EmptyVertexLabel`, duplicate source groups are merged and
    duplicate targets dropped, first appearance winning for both, so a
    topology written with duplicate groups is equal to its normal form. That
    order is part of the value because it drives rendering. The groups are
    stored as tuples; ``edges`` that already are the normal tuple are kept as
    they are. :meth:`allows` is a single lookup in a per-source index built
    on first use.
    """

    edges: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[str, tuple[str, ...]] = {}
        for source, targets in self.edges:
            if not isinstance(targets, tuple):
                if isinstance(targets, str):  # a bare label would split into its characters
                    raise TypeError(f"the targets of {source!r} must be labels, not a str")
                targets = tuple(targets)
            if not source or not all(targets):
                raise EmptyVertexLabel("vertex labels must be non-empty")
            if source in merged:
                targets = merged[source] + targets
            if len(set(targets)) != len(targets):
                targets = tuple(dict.fromkeys(targets))
            merged[source] = targets
        edges = tuple(merged.items())
        if edges != self.edges:  # an already normal tuple is kept, not rebuilt
            object.__setattr__(self, "edges", edges)

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
        """All vertices (sources and targets) in first-appearance order."""
        seen: dict[str, None] = {}
        for source, targets in self.edges:
            seen.setdefault(source)
            for target in targets:
                seen.setdefault(target)
        return tuple(seen)

    def transitions(self) -> tuple[tuple[str, str], ...]:
        """Explicit edges flattened to ``(source, target)`` pairs."""
        return tuple(
            (source, target) for source, targets in self.edges for target in targets
        )


def trivial_topology(vertex: str) -> Topology:
    """Topology with a single vertex and no explicit edges."""
    return Topology(((vertex, ()),))
