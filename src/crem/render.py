"""Deterministic DOT and Mermaid renderings of machines and compositions.

Diagrams derive from the same values that execute, so they cannot drift
from the behavior. Output is byte-stable across runs: ordering follows the
first-appearance order of the underlying values and nothing time- or
environment-dependent is emitted.
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
    _KINDS,
    _check_leaf_names,
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


def _mermaid_id_list(labels: Iterable[str], used: set[str]) -> list[str]:
    """Turn labels into distinct Mermaid-safe identifiers, deterministically."""
    ids: list[str] = []
    for label in labels:
        base = re.sub(r"[^0-9A-Za-z_]", "_", label) or "v"
        if base[0].isdigit():
            base = "v_" + base
        candidate = base
        suffix = 2
        while candidate in used:
            candidate = f"{base}_{suffix}"
            suffix += 1
        ids.append(candidate)
        used.add(candidate)
    return ids


def _claim(used: set[str], base: str) -> str:
    """``base``, prefixed with ``_`` until no id in ``used`` equals it; adds it to ``used``."""
    node = base
    while node in used:
        node = "_" + node
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
    marker = _claim(set(vertices), "__initial")
    lines = [
        f"digraph {_quote(machine.name)} {{",
        "  rankdir=LR;",
        "  node [shape=box, style=rounded];",
        f'  {_quote(marker)} [shape=point, label=""];',
    ]
    for vertex in vertices:
        lines.append(f"  {_quote(vertex)};")
    lines.append(f"  {_quote(marker)} -> {_quote(machine.state.vertex)};")
    for source, target in topology.transitions():
        lines.append(f"  {_quote(source)} -> {_quote(target)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _base_mermaid(machine: BaseMachine) -> str:
    topology = machine.topology
    vertices = topology.vertices()
    ids = dict(zip(vertices, _mermaid_id_list(vertices, set())))
    lines = ["stateDiagram-v2"]
    for vertex, node in ids.items():
        lines.append(f'    state "{_mermaid_text(vertex)}" as {node}')
    lines.append(f"    [*] --> {ids[machine.state.vertex]}")
    for source, target in topology.transitions():
        lines.append(f"    {ids[source]} --> {ids[target]}")
    return "\n".join(lines) + "\n"


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
        elif not isinstance(node, _KINDS):
            # a hand-rolled root's names were never checked (a child's were, with its parent)
            _check_leaf_names(node)
            raise TypeError(f"not a composition tree node: {node!r}")
        elif isinstance(node, (Parallel, Alternative)) and not done:
            items.append(("open", depth, (_BRACKET_LABELS[type(node)], next(brackets))))
            depth += 1
        elif done:
            second = reps.pop()  # the first child's representative stays, as the node's
            if isinstance(node, (Parallel, Alternative)):
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
    # "cluster", so a clash puts the "_" after that word
    used: set[str] = set()
    clusters: set[str] = set()  # subgraph ids without their "cluster" head
    by_leaf: dict[str, dict[str, str]] = {}  # per leaf, vertex -> quoted node id
    cluster_of: dict[str, str] = {}  # per leaf, its quoted subgraph id
    for kind, depth, value in items:
        indent = "  " * (depth + 1)
        if kind == "open":
            label, number = value
            cluster = _quote("cluster" + _claim(clusters, f"_{label}_{number}"))
            lines.append(f"{indent}subgraph {cluster} {{")
            lines.append(f"{indent}  label={_quote(label)};")
        elif kind == "close":
            lines.append(f"{indent}}}")
        else:
            leaf, prefix = value, value.name + "__"
            vertices = leaf.topology.vertices()
            ids = [prefix + vertex for vertex in vertices]
            if not used.isdisjoint(ids):
                ids = [_claim(used, node) for node in ids]
            used.update(ids)
            initial = _quote(_claim(used, prefix + "initial"))
            nodes = by_leaf[leaf.name] = dict(zip(vertices, map(_quote, ids)))
            cluster = cluster_of[leaf.name] = _quote("cluster" + _claim(clusters, "_" + leaf.name))
            lines += [
                f"{indent}subgraph {cluster} {{",
                f"{indent}  label={_quote(leaf.name)};",
                f'{indent}  {initial} [shape=point, label=""];',
                *(f"{indent}  {node} [label={_quote(vertex)}];" for vertex, node in nodes.items()),
                f"{indent}  {initial} -> {nodes[leaf.state.vertex]};",
                *(f"{indent}  {nodes[source]} -> {nodes[target]};"
                  for source, target in leaf.topology.transitions()),
                f"{indent}}}",
            ]
    for source, target, label in edges:
        source_node = by_leaf[source.name][source.state.vertex]
        target_node = by_leaf[target.name][target.state.vertex]
        lines.append(
            f"  {source_node} -> {target_node} "
            f"[ltail={cluster_of[source.name]}, lhead={cluster_of[target.name]}, "
            f"label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _flow_mermaid(items: list[_Item], edges: list[_Edge]) -> str:
    leaves = [value for kind, _, value in items if kind == "leaf"]
    used: set[str] = set()
    # every cluster id is taken before any node id
    names = [leaf.name for leaf in leaves]
    cluster_ids = dict(zip(names, _mermaid_id_list((f"sg_{name}" for name in names), used)))
    # per leaf, vertex -> node id; None marks the initial marker
    node_ids: dict[str, dict[str | None, str]] = {}
    for leaf in leaves:
        vertices = (None, *leaf.topology.vertices())
        labels = (f"{leaf.name}__{'initial' if vertex is None else vertex}" for vertex in vertices)
        node_ids[leaf.name] = dict(zip(vertices, _mermaid_id_list(labels, used)))

    lines = ["flowchart TD"]
    for kind, depth, value in items:
        indent = "    " * (depth + 1)
        if kind == "open":
            label, number = value
            lines.append(f'{indent}subgraph bracket_{number}["{label}"]')
        elif kind == "close":
            lines.append(f"{indent}end")
        else:
            leaf, ids = value, node_ids[value.name]
            lines += [
                f'{indent}subgraph {cluster_ids[leaf.name]}["{_mermaid_text(leaf.name)}"]',
                f'{indent}    {ids[None]}((" "))',
                *(f'{indent}    {node}["{_mermaid_text(vertex)}"]'
                  for vertex, node in ids.items() if vertex is not None),
                f"{indent}    {ids[None]} --> {ids[leaf.state.vertex]}",
                *(f"{indent}    {ids[source]} --> {ids[target]}"
                  for source, target in leaf.topology.transitions()),
                f"{indent}end",
            ]
    for source, target, label in edges:
        lines.append(
            f"    {cluster_ids[source.name]} -->|{label}| {cluster_ids[target.name]}"
        )
    return "\n".join(lines) + "\n"
