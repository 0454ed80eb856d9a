"""Seeded composition trees: description, reference interpreter and crem construction.

A tree is first generated as a plain description made of tuples:

    ("leaf", Leaf)                 a Basic node
    ("seq" | "par" | "alt" | "fb" | "kl", first, second)

The reference interpreter steps that description directly, with its own
composition semantics, so crem's output can be checked against something
that never touches a crem object. ``build`` turns the same description
into crem values.

Values flowing through a tree are ``(payload, ttl)`` pairs of small ints.
The ttl only ever shrinks (backward machines of Feedback decrement it and
stop at 0; joins and folds keep the largest input ttl), so every feedback
loop terminates within a bound fixed by the generator.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

MASK = 0xFFFF
OUT_DEGREE = 2  # edges leaving each leaf vertex
SHAPES = ("left", "right", "balanced")


@dataclass(frozen=True)
class Leaf:
    """One leaf machine: its value function, topology and start vertex."""

    name: str
    kind: str  # map split join choose merge burst bounce fold
    a: int
    b: int
    fanout: int  # list length of a burst; for choose, 0 = heavy side Left, 1 = Right
    succ: tuple[tuple[int, ...], ...]  # successors of each vertex index
    initial: int


@dataclass(frozen=True)
class TreeSpec:
    """Structural parameters of one generated tree; the seed fills in the rest."""

    leaves: int
    shape: str
    vertices: int  # topology size of every leaf
    fanout: int  # Feedback forward fan-out
    batch: int  # Kleisli batch size
    ttl: int  # feedback depth carried by each input


def ladder(low: int, high: int, count: int) -> list[int]:
    """``count`` sizes spaced geometrically from ``low`` to ``high``."""
    ratio = (high / low) ** (1 / (count - 1))
    return [round(low * ratio**k) for k in range(count)]


def ladder_specs(low: int, high: int, count: int) -> list[TreeSpec]:
    """A fixed grid of tree shapes; only the seed varies between runs."""
    return [
        TreeSpec(
            leaves=size,
            shape=SHAPES[k % 3],
            vertices=(4, 8, 16, 32, 64)[k % 5],
            fanout=(1, 2, 3)[k // 3 % 3],
            batch=(1, 2, 4)[(k // 3 + 1) % 3],
            ttl=1 + k // 2 % 2,
        )
        for k, size in enumerate(ladder(low, high, count))
    ]


# -- leaf semantics, shared by the crem actions and the reference -----------


def _key(value) -> int:
    while isinstance(value, tuple):
        value = value[1] if isinstance(value[0], str) else value[0]
    return len(value) if isinstance(value, list) else value


def leaf_apply(leaf: Leaf, i: int, value):
    """Output and next vertex index of ``leaf`` at vertex ``i`` on ``value``.

    Choices are tagged ``("L", v)`` / ``("R", v)``; the crem adapter maps
    them to crem's Left and Right.
    """
    kind, a, b = leaf.kind, leaf.a, leaf.b
    if kind == "map":
        p, t = value
        out = ((a * p + b + i) & MASK, t)
    elif kind == "split":
        p, t = value
        out = (((p + i) & MASK, t), ((a * p + b) & MASK, t))
    elif kind == "join":
        (p1, t1), (p2, t2) = value
        out = (((p1 ^ p2) + i) & MASK, max(t1, t2))
    elif kind == "choose":
        # one input in eight takes the light side, so the subtree a chain
        # hangs on stays on the path of most steps
        p, t = value
        heavy, light = ("L", "R") if leaf.fanout == 0 else ("R", "L")
        out = (light if (p + i) & 7 == 0 else heavy, (p, t))
    elif kind == "merge":
        side, (p, t) = value
        out = ((p + (1 if side == "L" else 2) + i) & MASK, t)
    elif kind == "burst":
        p, t = value
        out = [((p + k * a + i) & MASK, t) for k in range(leaf.fanout)]
    elif kind == "bounce":
        p, t = value
        out = [((a * p + i) & MASK, t - 1)] if t > 0 else []
    elif kind == "fold":
        out = ((sum(p for p, _ in value) + i) & MASK, max((t for _, t in value), default=0))
    else:
        raise ValueError(f"unknown leaf kind {kind!r}")
    successors = leaf.succ[i]
    return out, successors[(_key(value) + b) % len(successors)]


# -- generation --------------------------------------------------------------


class _Namer:
    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.count = 0

    def __call__(self, kind: str) -> str:
        self.count += 1
        return f"{self.prefix}{kind}{self.count}"


def _leaf(rng: random.Random, name: str, kind: str, vertices: int, fanout: int = 1):
    # a fixed out-degree keeps the size of a topology, and so the cost of
    # checking and drawing it, the same for every seed
    succ = tuple(
        tuple(rng.sample([j for j in range(vertices) if j != i], OUT_DEGREE))
        for i in range(vertices)
    )
    leaf = Leaf(name, kind, rng.randrange(1, MASK, 2), rng.randrange(MASK), fanout, succ,
                rng.randrange(vertices))
    return ("leaf", leaf)


def unit_counts(leaves: int) -> dict[str, int]:
    """How many of each building block a tree of ``leaves`` leaves holds.

    Gadgets (one Feedback or Kleisli with its adapters) take 4 leaves, each
    Parallel or Alternative adds a split/choose and a join/merge leaf.
    """
    if leaves < 16:
        counts = {"fb": 1, "kl": 0, "par": 1, "alt": 0} if leaves % 2 == 0 else {
            "fb": 0, "kl": 1, "par": 0, "alt": 1}
    else:
        gadgets, brackets = max(1, leaves // 64), max(1, leaves // 32)
        counts = {"fb": gadgets, "kl": gadgets, "par": brackets, "alt": brackets}
    counts["map"] = leaves - 4 * (counts["fb"] + counts["kl"]) - 2 * (counts["par"] + counts["alt"])
    if counts["map"] < 1:
        raise ValueError(f"{leaves} leaves is too few for a generated tree")
    return counts


def generate(spec: TreeSpec, rng: random.Random, prefix: str = "",
             layout: random.Random | None = None):
    """A seeded tree description following ``spec`` exactly.

    The spec fixes the number of leaves and of every node kind, the nesting
    shape and the parameters; ``rng`` picks topologies and leaf constants,
    and node positions too unless a separate ``layout`` is given.
    """
    layout = layout or rng
    name = _Namer(prefix)
    v = spec.vertices

    def leaf(kind, fanout=1):
        return _leaf(rng, name(kind), kind, v, fanout)

    def gadget(kind):
        if kind == "map":
            return leaf("map")
        if kind == "fb":
            forward = ("seq", leaf("map"), leaf("burst", spec.fanout))
            return ("seq", ("fb", forward, leaf("bounce")), leaf("fold"))
        per_item = ("seq", leaf("map"), leaf("burst"))
        return ("seq", ("kl", leaf("burst", spec.batch), per_item), leaf("fold"))

    def combine(kind, first, second):
        if kind == "seq":
            return ("seq", first, second)
        if kind == "par":
            return ("seq", leaf("split"), ("seq", ("par", first, second), leaf("join")))
        heavy_right = 1 if spec.shape == "right" else 0
        return ("seq", leaf("choose", heavy_right),
                ("seq", ("alt", first, second), leaf("merge")))

    counts = unit_counts(spec.leaves)
    units = ["map"] * counts["map"] + ["fb"] * counts["fb"] + ["kl"] * counts["kl"]
    layout.shuffle(units)
    joins = ["par"] * counts["par"] + ["alt"] * counts["alt"]
    joins += ["seq"] * (len(units) - 1 - len(joins))
    layout.shuffle(joins)
    parts = [gadget(kind) for kind in units]
    if spec.shape == "left":
        tree = parts[0]
        for kind, part in zip(joins, parts[1:]):
            tree = combine(kind, tree, part)
        return tree
    if spec.shape == "right":
        tree = parts[-1]
        for kind, part in zip(joins, reversed(parts[:-1])):
            tree = combine(kind, part, tree)
        return tree
    kinds = iter(joins)

    def balanced(lo, hi):
        if hi - lo == 1:
            return parts[lo]
        mid = (lo + hi) // 2
        return combine(next(kinds), balanced(lo, mid), balanced(mid, hi))

    return balanced(0, len(parts))


def iter_leaves(tree):
    """Leaf specs of a description, left to right, without recursion."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] == "leaf":
            yield node[1]
        else:
            stack.append(node[2])
            stack.append(node[1])


# -- reference interpreter ---------------------------------------------------


class Reference:
    """Steps a description with plain dicts and lists.

    ``state`` maps leaf names to vertex indices; ``leaf_steps`` counts leaf
    moves so throughput can be reported in leaf steps.
    """

    def __init__(self, tree, feedback_cap: int = 1000) -> None:
        self.tree = tree
        self.cap = feedback_cap
        self.state = {leaf.name: leaf.initial for leaf in iter_leaves(tree)}
        self.leaf_steps = 0

    def step(self, value):
        return self._run(self.tree, value)

    def _run(self, node, value):
        kind = node[0]
        if kind == "leaf":
            leaf = node[1]
            out, self.state[leaf.name] = leaf_apply(leaf, self.state[leaf.name], value)
            self.leaf_steps += 1
            return out
        first, second = node[1], node[2]
        if kind == "seq":
            return self._run(second, self._run(first, value))
        if kind == "par":
            return (self._run(first, value[0]), self._run(second, value[1]))
        if kind == "alt":
            side, inner = value
            return (side, self._run(first if side == "L" else second, inner))
        if kind == "kl":
            out = []
            for item in self._run(first, value):
                out.extend(self._run(second, item))
            return out
        if kind == "fb":
            spent = 1
            collected = list(self._run(first, value))
            pending = deque(collected)
            while pending:
                spent += 1
                for item in self._run(second, pending.popleft()):
                    spent += 1
                    produced = self._run(first, item)
                    collected.extend(produced)
                    pending.extend(produced)
            if spent > self.cap:
                raise RuntimeError(f"reference feedback used {spent} > {self.cap} iterations")
            return collected
        raise ValueError(f"unknown node kind {kind!r}")


# -- crem construction -------------------------------------------------------


def crem_parts(tree, crem):
    """Per-leaf topology edges and actions, prepared outside any timing.

    ``crem`` is the imported package; the action adapts tagged choices to
    crem's Left and Right.
    """
    Left, Right = crem.Left, crem.Right
    MachineState, StepResult = crem.MachineState, crem.StepResult
    parts = {}
    for leaf in iter_leaves(tree):
        names = tuple(f"v{i}" for i in range(len(leaf.succ)))
        index = {name: i for i, name in enumerate(names)}
        edges = tuple((names[i], tuple(names[j] for j in targets))
                      for i, targets in enumerate(leaf.succ))

        def act(state, value, leaf=leaf, names=names, index=index):
            if leaf.kind == "merge":
                if isinstance(value, Left):
                    value = ("L", value.value)
                elif isinstance(value, Right):
                    value = ("R", value.value)
                else:
                    raise TypeError(f"merge expects Left or Right, got {value!r}")
            out, j = leaf_apply(leaf, index[state.vertex], value)
            if leaf.kind == "choose":
                out = (Left if out[0] == "L" else Right)(out[1])
            return StepResult(out, MachineState(names[j]))

        parts[leaf.name] = (edges, names[leaf.initial], act)
    return parts


def build(tree, parts, crem):
    """Construct the crem tree for a description: constructor calls only."""
    nodes = {"seq": crem.Sequential, "par": crem.Parallel, "alt": crem.Alternative,
             "fb": crem.Feedback, "kl": crem.Kleisli}
    Basic, BaseMachine, MachineState, Topology = (
        crem.Basic, crem.BaseMachine, crem.MachineState, crem.Topology)
    # post-order without recursion: (node, children built?) pairs
    stack, built = [(tree, False)], []
    while stack:
        node, ready = stack.pop()
        if node[0] == "leaf":
            edges, initial, act = parts[node[1].name]
            built.append(Basic(BaseMachine(node[1].name, Topology(edges),
                                           MachineState(initial), act)))
        elif ready:
            second = built.pop()
            first = built.pop()
            built.append(nodes[node[0]](first, second))
        else:
            stack.extend(((node, True), (node[2], False), (node[1], False)))
    return built[0]
