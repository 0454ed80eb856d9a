"""Transition topologies: the explicit set of moves a machine may make.

A topology is a list of directed edges grouped by source vertex. Staying on
the current vertex is always permitted and never listed; only genuine moves
between distinct vertices need an explicit edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class EmptyVertexLabel(ValueError):
    """A vertex label was the empty string."""


@dataclass(frozen=True)
class Topology:
    """Allowed transitions as ``(source, targets)`` groups.

    The order in which sources and targets first appear is preserved; it is
    part of the value because it drives rendering. Construction turns the
    groups into tuples, keeping ``edges`` as it is when it already is a
    tuple of ``(source, tuple of targets)`` pairs. Labels are checked once,
    by :meth:`normalize`; :meth:`allows` is then a single lookup in a
    per-source index built on first use.
    """

    edges: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        edges = self.edges
        if type(edges) is tuple:
            for group in edges:
                if type(group) is not tuple or len(group) != 2 or type(group[1]) is not tuple:
                    break
            else:
                return  # already canonical: a tuple of (source, tuple of targets) pairs
        groups = tuple((source, tuple(targets)) for source, targets in edges)
        object.__setattr__(self, "edges", groups)

    def normalize(self) -> Topology:
        """Merge duplicate source groups and drop duplicate targets.

        First-appearance order wins for both sources and targets, so the
        result is stable and normalizing twice changes nothing. A topology
        with nothing to merge or drop is returned as it is.
        """
        merged: dict[str, tuple[str, ...]] = {}
        changed = False
        for source, targets in self.edges:
            if not source or not all(targets):
                raise EmptyVertexLabel("vertex labels must be non-empty")
            if source in merged:
                targets = merged[source] + targets
            elif len(set(targets)) == len(targets):
                merged[source] = targets
                continue
            merged[source] = tuple(dict.fromkeys(targets))
            changed = True
        return Topology(tuple(merged.items())) if changed else self

    def allows(self, source: str, target: str) -> bool:
        """True if the move ``source -> target`` is permitted.

        Identity moves are always allowed, listed or not.
        """
        return source == target or target in self._targets.get(source, ())

    @cached_property
    def _targets(self) -> dict[str, tuple[str, ...]]:
        """Targets per source; duplicate source groups are merged."""
        index: dict[str, tuple[str, ...]] = {}
        for source, targets in self.edges:
            index[source] = index.get(source, ()) + targets
        return index

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
    return Topology(((vertex, ()),)).normalize()
