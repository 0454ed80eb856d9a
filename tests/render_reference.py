"""Reference printers that escape, quote and sanitise each label on its own.

These are crem's DOT and Mermaid printers as they were before they learnt to
escape a leaf's labels in one pass over the joined text. ``test_render.py``
checks that ``render_flow`` and ``render_base`` print what these do, byte for
byte. The walk of the tree, ``_layout``, is shared with crem.
"""

from __future__ import annotations

import re
from typing import Iterable

from crem import BaseMachine
from crem.render import _Edge, _Item, _layout


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _mermaid_text(text: str) -> str:
    return text.replace('"', "'")


# Mermaid ids keep only these; like quoting, sanitising maps each character on its own
_MERMAID_UNSAFE = re.compile(r"[^0-9A-Za-z_]")


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


def _base_dot(machine: BaseMachine) -> str:
    topology = machine.topology
    vertices = topology.vertices()
    nodes = dict(zip(vertices, map(_quote, vertices)))
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
    safe = [_mermaid_lead(_MERMAID_UNSAFE.sub("_", vertex)) for vertex in vertices]
    ids = dict(zip(vertices, _mermaid_ids(safe, set())))
    lines = ["stateDiagram-v2"]
    lines += [f'    state "{_mermaid_text(vertex)}" as {node}' for vertex, node in ids.items()]
    lines.append(f"    [*] --> {ids[machine.state.vertex]}")
    lines += [f"    {ids[source]} --> {ids[target]}"
              for source, targets in topology.edges for target in targets]
    lines.append("")
    return "\n".join(lines)




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
            labels = list(map(_quote, vertices))
            ids = [head + label[1:] for label in labels]
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
            lines += [f"{indent}  {node} [label={label}];" for node, label in zip(ids, labels)]
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
            bases = [head + _MERMAID_UNSAFE.sub("_", vertex) for vertex in vertices]
            initial, *ids = _mermaid_ids([head + "initial"] + bases, used)
            nodes = dict(zip(vertices, ids))
            lines += [
                f'{indent}subgraph {cluster_ids[leaf.name]}["{_mermaid_text(leaf.name)}"]',
                f'{indent}    {initial}((" "))',
            ]
            lines += [f'{indent}    {node}["{_mermaid_text(vertex)}"]'
                      for vertex, node in nodes.items()]
            lines.append(f"{indent}    {initial} --> {nodes[leaf.state.vertex]}")
            lines += [f"{indent}    {nodes[source]} --> {nodes[target]}"
                      for source, targets in leaf.topology.edges for target in targets]
            lines.append(f"{indent}end")
    lines += [f"    {cluster_ids[source.name]} -->|{label}| {cluster_ids[target.name]}"
              for source, target, label in edges]
    lines.append("")
    return "\n".join(lines)


def flow(machine, format: str) -> str:
    return (_flow_dot if format == "dot" else _flow_mermaid)(*_layout(machine))


def base(machine, format: str) -> str:
    return (_base_dot if format == "dot" else _base_mermaid)(machine)
