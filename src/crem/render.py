"""Deterministic DOT and Mermaid renderings of machines and compositions.

Diagrams derive from the same values that execute, so they cannot drift
from the behavior. Output is byte-stable across runs: ordering follows the
first-appearance order of the underlying values and nothing time- or
environment-dependent is emitted. A render reads each leaf's topology once.
It joins the leaf's vertex labels with newlines, escapes (DOT) or sanitises
and downgrades quotes (Mermaid) in one pass over the joined text, and splits
the result back into one piece per label. A leaf with a label that holds a
newline of its own has each label escaped apart. No diagram text is cached
between calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Any, Iterable

from .compose import (
    Alternative,
    Basic,
    Feedback,
    Kleisli,
    Parallel,
    Sequential,
    StateMachine,
    _walk,
)
from .machine import BaseMachine

FORMATS = ("dot", "mermaid")


@dataclass(frozen=True)
class Diagram:
    format: str
    text: str

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown diagram format {self.format!r}")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _mermaid_text(text: str) -> str:
    return text.replace('"', "'")


# Mermaid ids keep only these; like quoting, sanitising maps each character on its own,
# so either can run over labels joined by newlines, which _LINE_UNSAFE leaves in place
_MERMAID_UNSAFE = re.compile(r"[^0-9A-Za-z_]")
_LINE_UNSAFE = re.compile(r"[^0-9A-Za-z_\n]")


def _joined(vertices: tuple[str, ...]) -> str | None:
    """The labels joined by newlines, or None if a label holds a newline of its own."""
    joined = "\n".join(vertices)
    return None if joined.count("\n") >= len(vertices) else joined


def _dot_tails(vertices: tuple[str, ...]) -> list[str]:
    """Each label quoted for DOT, without its opening quote: one escape over the joined
    labels, or one per label if they cannot be joined."""
    joined = _joined(vertices)
    if joined is None:
        return [_quote(vertex)[1:] for vertex in vertices]
    joined = joined.replace("\\", "\\\\").replace('"', '\\"')
    return (joined.replace("\n", '"\n') + '"').split("\n")


def _mermaid_labels(vertices: tuple[str, ...]) -> tuple[list[str], list[str]]:
    """Each label sanitised for a Mermaid id, and each label as Mermaid shows it; like
    ``_dot_tails``, one pass over the joined labels unless they cannot be joined."""
    joined = _joined(vertices)
    if joined is None:
        return ([_MERMAID_UNSAFE.sub("_", vertex) for vertex in vertices],
                list(map(_mermaid_text, vertices)))
    return _LINE_UNSAFE.sub("_", joined).split("\n"), _mermaid_text(joined).split("\n")


def _mermaid_lead(safe: str) -> str:
    """A sanitised label, with ``v_`` in front if it starts with a digit."""
    return "v_" + safe if safe[0].isdigit() else safe


def _mermaid_ids(bases: Iterable[str], used: set[str]) -> list[str]:
    """Distinct Mermaid ids for sanitised ``bases``: a taken one gets ``_2``, ``_3``, ..."""
    ids: list[str] = []
    for base in bases:
        candidate = base
        suffix = 2
        while candidate in used:
            candidate = f"{base}_{suffix}"
            suffix += 1
        ids.append(candidate)
        used.add(candidate)
    return ids


def _claim(used: set[str], node: str) -> str:
    """``node``, a quoted id, with ``_`` put after its opening quote until no id in ``used``
    equals it (the quoted id with ``_`` in front); adds it to ``used``."""
    while node in used:
        node = '"_' + node[1:]
    used.add(node)
    return node


def render_base(machine: BaseMachine, format: str) -> Diagram:
    """State diagram of one machine: its vertices, edges and initial marker.

    Implicit identity self-loops are not drawn; only explicit topology
    edges appear.
    """
    if format == "dot":
        return Diagram("dot", _base_dot(machine))
    if format == "mermaid":
        return Diagram("mermaid", _base_mermaid(machine))
    raise ValueError(f"unknown diagram format {format!r}")


def _base_dot(machine: BaseMachine) -> str:
    topology = machine.topology
    vertices = topology.vertices()
    nodes = dict(zip(vertices, map('"'.__add__, _dot_tails(vertices))))
    marker = _claim(set(nodes.values()), '"__initial"')
    lines = [
        f"digraph {_quote(machine.name)} {{",
        "  rankdir=LR;",
        "  node [shape=box, style=rounded];",
        f'  {marker} [shape=point, label=""];',
    ]
    lines += [f"  {node};" for node in nodes.values()]
    lines.append(f"  {marker} -> {nodes[machine.state.vertex]};")
    lines += [f"  {nodes[source]} -> {nodes[target]};"
              for source, targets in topology.edges for target in targets]
    lines += ["}", ""]
    return "\n".join(lines)


def _base_mermaid(machine: BaseMachine) -> str:
    topology = machine.topology
    vertices = topology.vertices()
    safe, texts = _mermaid_labels(vertices)
    ids = dict(zip(vertices, _mermaid_ids(map(_mermaid_lead, safe), set())))
    lines = ["stateDiagram-v2"]
    lines += [f'    state "{text}" as {node}' for text, node in zip(texts, ids.values())]
    lines.append(f"    [*] --> {ids[machine.state.vertex]}")
    lines += [f"    {ids[source]} --> {ids[target]}"
              for source, targets in topology.edges for target in targets]
    lines.append("")
    return "\n".join(lines)


def render_flow(machine: StateMachine, format: str) -> Diagram:
    """Architecture diagram of a composition tree.

    One cluster per leaf, containing that machine's own state diagram.
    Sequential and Kleisli contribute a labeled edge from the first
    subtree's representative cluster to the second's; Feedback contributes
    an edge in each direction; Parallel and Alternative wrap their children
    in a labeled bracketing cluster. Clusters appear depth-first,
    left to right.
    """
    if format == "dot":
        return Diagram("dot", _flow_dot(*_layout(machine)))
    if format == "mermaid":
        return Diagram("mermaid", _flow_mermaid(*_layout(machine)))
    raise ValueError(f"unknown diagram format {format!r}")


_COMBINATOR_EDGES = {Sequential: "seq", Kleisli: "kleisli"}
_BRACKET_LABELS = {Parallel: "parallel", Alternative: "alternative"}

# A layout item is ("leaf", depth, machine), ("open", depth, (label, number))
# or ("close", depth, None); an edge is (source leaf, target leaf, label).
_Item = tuple[str, int, Any]
_Edge = tuple[BaseMachine, BaseMachine, str]


def _layout(tree: StateMachine) -> tuple[list[_Item], list[_Edge]]:
    """Walk the tree once into the clusters and edges that both formats print.

    Clusters and brackets come in pre-order, so brackets are numbered in
    pre-order, and a bracket's depth is the count of brackets open around
    it; edges come in post-order. An edge joins the representatives (first
    leaves) of two subtrees: ``reps`` holds each finished subtree's.
    """
    items: list[_Item] = []
    edges: list[_Edge] = []
    brackets = count(1)
    depth = 0
    reps: list[BaseMachine] = []
    for node, done in _walk(tree):
        if isinstance(node, Basic):
            items.append(("leaf", depth, node.machine))
            reps.append(node.machine)
        elif type(node) in _BRACKET_LABELS and not done:
            items.append(("open", depth, (_BRACKET_LABELS[type(node)], next(brackets))))
            depth += 1
        elif done:
            second = reps.pop()  # the first child's representative stays, as the node's
            if type(node) in _BRACKET_LABELS:
                depth -= 1
                items.append(("close", depth, None))
            elif isinstance(node, Feedback):
                edges += [(reps[-1], second, "feedback"), (second, reps[-1], "feedback")]
            else:
                edges.append((reps[-1], second, _COMBINATOR_EDGES[type(node)]))
    return items, edges


def _flow_dot(items: list[_Item], edges: list[_Edge]) -> str:
    lines = [
        'digraph "architecture" {',
        "  compound=true;",
        "  rankdir=LR;",
        "  node [shape=box, style=rounded];",
    ]
    # node ids are unique across the diagram, and so are subgraph ids, a namespace of
    # their own; Graphviz draws a subgraph as a cluster only if its id starts with
    # "cluster", so a clash puts the "_" after that word; every id here is quoted
    used: set[str] = set()
    clusters: set[str] = set()  # subgraph ids without the "cluster" after their quote
    by_leaf: dict[str, dict[str, str]] = {}  # per leaf, vertex -> node id
    cluster_of: dict[str, str] = {}  # per leaf, its subgraph id
    for kind, depth, value in items:
        indent = "  " * (depth + 1)
        if kind == "open":
            label, number = value
            cluster = '"cluster' + _claim(clusters, _quote(f"_{label}_{number}"))[1:]
            lines.append(f"{indent}subgraph {cluster} {{")
            lines.append(f"{indent}  label={_quote(label)};")
        elif kind == "close":
            lines.append(f"{indent}}}")
        else:
            leaf = value
            name = _quote(leaf.name)
            head = name[:-1] + "__"  # quoting maps each character on its own
            vertices = leaf.topology.vertices()
            tails = _dot_tails(vertices)
            ids = list(map(head.__add__, tails))
            if not used.isdisjoint(ids):
                ids = [_claim(used, node) for node in ids]
            used.update(ids)
            initial = _claim(used, head + 'initial"')
            nodes = by_leaf[leaf.name] = dict(zip(vertices, ids))
            cluster = cluster_of[leaf.name] = '"cluster' + _claim(clusters, '"_' + name[1:])[1:]
            lines += [
                f"{indent}subgraph {cluster} {{",
                f"{indent}  label={name};",
                f'{indent}  {initial} [shape=point, label=""];',
            ]
            lines += [f'{indent}  {node} [label="{tail}];' for node, tail in zip(ids, tails)]
            lines.append(f"{indent}  {initial} -> {nodes[leaf.state.vertex]};")
            lines += [f"{indent}  {nodes[source]} -> {nodes[target]};"
                      for source, targets in leaf.topology.edges for target in targets]
            lines.append(f"{indent}}}")
    lines += [
        f"  {by_leaf[source.name][source.state.vertex]} -> "
        f"{by_leaf[target.name][target.state.vertex]} "
        f"[ltail={cluster_of[source.name]}, lhead={cluster_of[target.name]}, "
        f"label={_quote(label)}];"
        for source, target, label in edges
    ]
    lines += ["}", ""]
    return "\n".join(lines)


def _flow_mermaid(items: list[_Item], edges: list[_Edge]) -> str:
    # each leaf name sanitised once; every cluster id is taken before any node id
    safe = {value.name: _MERMAID_UNSAFE.sub("_", value.name)
            for kind, _, value in items if kind == "leaf"}
    used: set[str] = set()
    cluster_ids = dict(zip(safe, _mermaid_ids(["sg_" + name for name in safe.values()], used)))
    lines = ["flowchart TD"]
    for kind, depth, value in items:
        indent = "    " * (depth + 1)
        if kind == "open":
            label, number = value
            lines.append(f'{indent}subgraph bracket_{number}["{label}"]')
        elif kind == "close":
            lines.append(f"{indent}end")
        else:
            leaf = value
            head = _mermaid_lead(safe[leaf.name]) + "__"
            vertices = leaf.topology.vertices()
            bases, texts = _mermaid_labels(vertices)
            initial, *ids = _mermaid_ids([head + "initial", *map(head.__add__, bases)], used)
            nodes = dict(zip(vertices, ids))
            lines += [
                f'{indent}subgraph {cluster_ids[leaf.name]}["{_mermaid_text(leaf.name)}"]',
                f'{indent}    {initial}((" "))',
            ]
            lines += [f'{indent}    {node}["{text}"]' for node, text in zip(ids, texts)]
            lines.append(f"{indent}    {initial} --> {nodes[leaf.state.vertex]}")
            lines += [f"{indent}    {nodes[source]} --> {nodes[target]}"
                      for source, targets in leaf.topology.edges for target in targets]
            lines.append(f"{indent}end")
    lines += [f"    {cluster_ids[source.name]} -->|{label}| {cluster_ids[target.name]}"
              for source, target, label in edges]
    lines.append("")
    return "\n".join(lines)
