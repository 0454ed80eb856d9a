"""Invariants are checked once, at construction; a step checks only its move.

These tests pin that down without timings: counting wrappers prove that a
step reaches no validating code and that building a chain walks no leaves,
an oracle proves that the privately copied trees equal the ones the public
constructors build, identity checks prove that a step shares every subtree
it did not change, and deep trees prove that the one tree walk, and with it
the leaf list, the vertex snapshot and restore, the fingerprint and the
diagram layout, needs no recursion.
"""

import re
import sys
from collections import Counter
from dataclasses import fields, replace
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crem import (
    Alternative,
    Basic,
    BaseMachine,
    DisallowedTransition,
    DuplicateLeafName,
    Feedback,
    Kleisli,
    Left,
    MachineState,
    Parallel,
    Right,
    Sequential,
    StateMachine,
    StepResult,
    Topology,
    UNIT_VERTEX,
    identity_machine,
    render_flow,
    stateless,
    trivial_topology,
    unrestricted_mealy,
)
from crem import compose, eventlog
from crem.cart import (
    PAYMENT_COMPLETE,
    CartCommand,
    CartView,
    ShippingCommand,
    cart,
    cart_and_shipping,
    shipping,
    whole_cart_domain,
)

NODE_KINDS = (Basic, Sequential, Parallel, Alternative, Feedback, Kleisli)
RING = Topology((("r0", ("r1",)), ("r1", ("r2",)), ("r2", ("r0",))))


def ring(name, log):
    """Leaf that moves around RING once per step and counts its steps."""

    def act(state, value):
        log.append(name)
        steps = state.payload + 1
        return StepResult(value + steps, MachineState(f"r{steps % 3}", steps))

    return Basic(BaseMachine(name, RING, MachineState("r0", 0), act))


def emit(name, func):
    return Basic(stateless(name, func))


def left_chain(size, leaf=lambda i: identity_machine(f"leaf{i}")):
    tree = leaf(0)
    for i in range(1, size):
        tree = Sequential(tree, leaf(i))
    return tree


def right_chain(size, leaf=lambda i: identity_machine(f"leaf{i}")):
    tree = leaf(size - 1)
    for i in reversed(range(size - 1)):
        tree = Sequential(leaf(i), tree)
    return tree


def on_ring(i):
    """Leaf ``leaf<i>`` on RING with no payload, so its vertex alone is its state."""
    return Basic(BaseMachine(f"leaf{i}", RING, MachineState("r0"), lambda s, x: StepResult(x, s)))


# -- no validation on the step path --------------------------------------------


@pytest.fixture
def validation_calls(monkeypatch):
    """Install counting wrappers on every validating entry point; return the counts."""
    counts = Counter()

    def wrap(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    def install():
        wrap(Topology, "__init__", "Topology.__init__")
        wrap(BaseMachine, "__init__", "BaseMachine.__init__")
        wrap(BaseMachine, "__post_init__", "BaseMachine.__post_init__")
        for cls in NODE_KINDS:
            wrap(cls, "__init__", f"{cls.__name__}.__init__")
            if hasattr(cls, "__post_init__"):
                wrap(cls, "__post_init__", f"{cls.__name__}.__post_init__")
        return counts

    return install


def test_chain_step_validates_nothing(validation_calls):
    log = []
    tree = left_chain(128, lambda i: ring(f"ring{i}", log))
    counts = validation_calls()
    for value in range(3):
        output, tree = tree.step(value)
    assert dict(counts) == {}
    assert len(log) == 3 * 128
    assert all(leaf.state == MachineState("r0", 3) for leaf in tree.leaves())


def test_cart_domain_step_validates_nothing(validation_calls):
    domain = whole_cart_domain()
    counts = validation_calls()
    outputs = []
    for command in (CartCommand.PayCart, CartCommand.MarkCartAsPaid, CartCommand.PayCart):
        output, domain = domain.step(command)
        outputs.append(output)
    assert dict(counts) == {}
    assert outputs == [[CartView.PaymentInProgress, CartView.PaymentDone], [], []]
    assert [leaf.state.vertex for leaf in domain.leaves()] == [PAYMENT_COMPLETE, "Unit", "Done"]


def own_topology(i):
    """Leaf ``leaf<i>`` that builds a topology of its own."""
    return Basic(BaseMachine(
        f"leaf{i}", trivial_topology("v"), MachineState("v"), lambda s, x: StepResult(x, s)
    ))


def test_public_constructors_still_validate(validation_calls, leaves_walked):
    counts = validation_calls()
    left_chain(4, own_topology)
    assert counts["BaseMachine.__post_init__"] == 4
    assert counts["Topology.__init__"] == 4  # one per leaf, checked and normalized there
    assert counts["Basic.__post_init__"] == 4
    assert counts["Sequential.__post_init__"] == 3  # where the leaf-name rule lives
    assert leaves_walked["leaves"] == 0  # the children handed their names up


def test_identity_leaves_build_no_topology(validation_calls):
    counts = validation_calls()
    left_chain(4)
    assert counts["BaseMachine.__post_init__"] == 4
    assert counts["Topology.__init__"] == 0  # each shares the one unit topology


def test_single_vertex_machines_share_one_unit_topology():
    leaves = [
        stateless("s", str),
        unrestricted_mealy("u", 0, lambda total, x: (total, total + x)),
        identity_machine("i").machine,
    ]
    shared = leaves[0].topology
    assert all(leaf.topology is shared for leaf in leaves)
    fresh = trivial_topology(UNIT_VERTEX)
    assert fresh == shared
    assert fresh is not shared and fresh is not trivial_topology(UNIT_VERTEX)  # a new value


# -- a step shares every subtree it did not change ------------------------------


@pytest.mark.parametrize(
    "factory, warm_up, inputs",
    [
        (whole_cart_domain, [CartCommand.PayCart], list(CartCommand)),
        (
            cart_and_shipping,
            [Left(CartCommand.PayCart), Right(ShippingCommand.MarkAsDelivered)],
            [*map(Left, CartCommand), *map(Right, ShippingCommand)],
        ),
    ],
    ids=["whole-cart-domain", "cart-and-shipping"],
)
def test_terminal_domain_steps_to_the_same_tree(factory, warm_up, inputs, monkeypatch):
    tree = factory()
    for value in warm_up:
        _, tree = tree.step(value)
    checks = Counter()
    for owner, attr in ((BaseMachine, "step"), (Topology, "allows"), (compose._Binary, "_with")):
        original = getattr(owner, attr)

        def counting(*args, _original=original, _key=attr, **kwargs):
            checks[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    for value in inputs:
        _, stepped = tree.step(value)
        assert stepped is tree
    # every leaf still stepped, but a stay is an identity move: no topology is consulted,
    # and no composite makes a rebuild call
    assert checks["step"] >= len(inputs)
    assert checks["allows"] == 0
    assert checks["_with"] == 0


def counts(name, out=lambda x: [x]):
    """Leaf that moves on every step: its payload counts the steps."""
    return Basic(unrestricted_mealy(name, 0, lambda n, x: (out(x), n + 1)))


def never_back(x):
    return []


@pytest.mark.parametrize(
    "tree, value, stayed",
    [
        (Sequential(Sequential(emit("a", list), emit("b", list)), counts("c")), [1], "first"),
        (Sequential(counts("a"), emit("b", list)), [1], "second"),
        (Parallel(emit("a", list), counts("b")), ([1], [2]), "first"),
        (Parallel(counts("a"), emit("b", list)), ([1], [2]), "second"),
        (Alternative(counts("a"), counts("b")), Left(1), "second"),
        (Alternative(counts("a"), counts("b")), Right(1), "first"),
        (Kleisli(emit("a", lambda x: [x]), counts("b")), 1, "first"),
        (Kleisli(counts("a"), emit("b", lambda x: [x])), 1, "second"),
        (Feedback(emit("a", lambda x: [x]), counts("b", never_back)), 1, "first"),
        (Feedback(counts("a"), emit("b", never_back)), 1, "second"),
    ],
    ids=[f"{kind}-keeps-{side}" for kind in ("seq", "par", "alt", "kleisli", "feedback")
         for side in ("first", "second")],
)
def test_a_move_rebuilds_only_its_path(tree, value, stayed):
    _, stepped = tree.step(value)
    names = [field.name for field in fields(tree)]
    moved = names[1 - names.index(stayed)]
    assert getattr(stepped, stayed) is getattr(tree, stayed)
    assert getattr(stepped, moved) != getattr(tree, moved)
    assert stepped == public_copy(stepped)


def nodes(tree):
    """Every node of ``tree`` in pre-order, each ``Basic`` followed by its machine."""
    for node, done in compose._walk(tree):
        if not done:
            yield node
            if isinstance(node, Basic):
                yield node.machine


def wrap(x):
    return [x]


@pytest.mark.parametrize(
    "make, value",
    [
        (lambda: ring("a", []), 1),
        (lambda: Sequential(Sequential(ring("a", []), emit("b", wrap)), emit("c", list)), 1),
        (lambda: Parallel(Sequential(ring("a", []), emit("b", wrap)), emit("c", wrap)), (1, 2)),
        (lambda: Alternative(Sequential(ring("a", []), emit("b", wrap)), emit("c", wrap)), Left(1)),
        (lambda: Feedback(Sequential(ring("a", []), emit("b", wrap)), emit("c", never_back)), 1),
        (lambda: Kleisli(Sequential(ring("a", []), emit("b", wrap)), emit("c", wrap)), 1),
    ],
    ids=[kind.__name__ for kind in NODE_KINDS],
)
def test_a_stepped_node_keeps_its_type_and_keys(make, value):
    tree = make()
    names = vars(tree).get(compose._LEAF_NAMES)
    before = [(node, dict(node.__dict__)) for node in nodes(tree)]
    _, stepped = tree.step(value)
    assert next(stepped.leaves()).state.vertex == "r1"  # the ring leaf moved
    for (old, fields_before), new in zip(before, nodes(stepped), strict=True):
        assert type(new) is type(old)
        if isinstance(new, StateMachine):  # a tree node's keys are its fields, nothing more
            assert new.__dict__.keys() == {field.name for field in fields(new)}
        else:
            assert new.__dict__.keys() == old.__dict__.keys()
        # the original kept every field, by identity
        assert old.__dict__.keys() == fields_before.keys()
        assert all(old.__dict__[key] is field for key, field in fields_before.items())
    # no stepped node holds leaf names: the original root keeps its own set
    assert [node for node in nodes(stepped) if compose._LEAF_NAMES in vars(node)] == []
    holders = [node for node in nodes(tree) if compose._LEAF_NAMES in vars(node)]
    if isinstance(tree, Basic):
        assert holders == [] and names is None
    else:
        assert holders == [tree]
        assert vars(tree)[compose._LEAF_NAMES] is names
        assert names == {leaf.name for leaf in tree.leaves()}


def test_a_cart_move_rebuilds_only_its_path():
    tree = Alternative(cart(), Sequential(shipping(), identity_machine("c")))
    _, moved = tree.step(Left(CartCommand.PayCart))
    assert moved.first != tree.first and moved.second is tree.second
    _, moved_again = moved.step(Right(ShippingCommand.StartShipping))
    assert moved_again.first is moved.first
    assert moved_again.second.first != moved.second.first
    assert moved_again.second.second is tree.second.second
    _, stayed = moved_again.step(Left(CartCommand.PayCart))  # the cart only stays now
    assert stayed is moved_again


def test_unrestricted_mealy_that_keeps_its_payload_shares():
    m = unrestricted_mealy("m", 0, lambda s, x: (x, s))
    assert m.step(1)[1] is m
    tree = Sequential(Basic(m), identity_machine("id"))
    assert tree.step(1) == (1, tree)
    assert tree.step(1)[1] is tree


# -- the stepped tree equals the one the public constructors build ------------

shapes = st.recursive(
    st.just("leaf"),
    lambda children: st.tuples(
        st.sampled_from(("sequential", "parallel", "alternative", "feedback", "kleisli")),
        children,
        children,
    ),
    max_leaves=8,
)


def build(shape, log, names=None):
    """An int -> int tree of ``shape``; every kind is adapted with stateless leaves."""
    names = count() if names is None else names

    def leaf(func):
        return emit(f"glue{next(names)}", func)

    if shape == "leaf":
        return ring(f"ring{next(names)}", log)
    kind, first_shape, second_shape = shape
    first = build(first_shape, log, names)
    second = build(second_shape, log, names)
    if kind == "sequential":
        return Sequential(first, second)
    if kind == "parallel":
        body = Parallel(first, second)
        return Sequential(leaf(lambda x: (x, x + 1)), Sequential(body, leaf(sum)))
    if kind == "alternative":
        body = Alternative(first, second)
        route = leaf(lambda x: Right(x) if x % 2 else Left(x))
        return Sequential(route, Sequential(body, leaf(lambda either: either.value)))
    if kind == "kleisli":
        body = Kleisli(
            Sequential(first, leaf(lambda x: [x, x + 1])),
            Sequential(second, leaf(lambda x: [x])),
        )
        return Sequential(body, leaf(sum))
    # feedback: every second backward output is bounced into forward again
    bounce = Basic(
        unrestricted_mealy(f"bounce{next(names)}", False, lambda on, y: ([] if on else [y], not on))
    )
    body = Feedback(Sequential(first, leaf(lambda x: [x])), Sequential(second, bounce))
    return Sequential(body, leaf(sum))


def rebuild(node, leaves):
    """``node``'s shape rebuilt through the public constructors around ``leaves``."""
    if isinstance(node, Basic):
        leaf = next(leaves)
        return Basic(BaseMachine(leaf.name, leaf.topology, leaf.state, leaf.action))
    first = rebuild(node.first, leaves)
    return type(node)(first, rebuild(node.second, leaves))


def public_copy(tree):
    return rebuild(tree, iter(list(tree.leaves())))


traces = st.lists(st.integers(min_value=0, max_value=99), max_size=6)


@settings(deadline=None)
@given(shapes, traces)
def test_stepped_tree_equals_publicly_built_tree(shape, trace):
    log = []
    tree = build(shape, log)
    for value in trace:
        _, tree = tree.step(value)
    expected = public_copy(tree)
    assert tree == expected
    assert hash(tree) == hash(expected)
    assert repr(tree) == repr(expected)
    steps = Counter(log)
    for leaf in tree.leaves():
        if leaf.topology == RING:
            assert leaf.state == MachineState(f"r{steps[leaf.name] % 3}", steps[leaf.name])


def trap():
    """Leaf whose second step tries the forbidden move ``end -> start``."""

    def act(state, value):
        return StepResult(value, MachineState("end" if state.vertex == "start" else "start"))

    return Basic(BaseMachine("trap", Topology((("start", ("end",)),)), MachineState("start"), act))


@settings(deadline=None)
@given(shapes, st.booleans(), st.integers(min_value=0, max_value=99))
def test_forbidden_move_raises_and_leaves_tree_unchanged(shape, trap_first, value):
    body = build(shape, [])
    tree = Sequential(trap(), body) if trap_first else Sequential(body, trap())
    _, tree = tree.step(value)
    before, text = public_copy(tree), repr(tree)
    with pytest.raises(DisallowedTransition) as raised:
        tree.step(value)
    assert (raised.value.machine, raised.value.source, raised.value.target) == (
        "trap",
        "end",
        "start",
    )
    assert tree == before
    assert repr(tree) == text


# -- a stay costs only its routing; a move is checked once ----------------------


@pytest.fixture
def step_calls(monkeypatch):
    """Record the move of every ``Topology.allows`` call and count ``_Binary._with`` calls."""
    calls = {"allows": [], "_with": 0}
    allows, rebuild_with = Topology.allows, compose._Binary._with

    def counting_allows(self, source, target):
        calls["allows"].append((source, target))
        return allows(self, source, target)

    def counting_with(self, first, second):
        calls["_with"] += 1
        return rebuild_with(self, first, second)

    monkeypatch.setattr(Topology, "allows", counting_allows)
    monkeypatch.setattr(compose._Binary, "_with", counting_with)
    return calls


def test_every_move_consults_its_topology_once(step_calls):
    _, moved = ring("a", []).step(1)
    assert (moved.machine.state, step_calls["allows"]) == (MachineState("r1", 1), [("r0", "r1")])
    # a move through a new state object on the same vertex: a payload change
    step_calls["allows"].clear()
    _, moved = counts("m").step(1)
    assert moved.machine.state == MachineState(UNIT_VERTEX, 1)
    assert step_calls["allows"] == [(UNIT_VERTEX, UNIT_VERTEX)]
    # the cart's first PayCart: six leaf steps, of which the four moves are each checked once
    tree = whole_cart_domain()  # building checks each table row against its topology
    step_calls["allows"].clear()
    _, moved = tree.step(CartCommand.PayCart)
    assert step_calls == {
        "allows": [
            ("WaitingForPaymentVertex", "InitiatingPaymentVertex"),
            ("InitiatingPaymentVertex", PAYMENT_COMPLETE),
            ("Pending", "InProgress"),
            ("InProgress", "Done"),
        ],
        "_with": 2,  # the Feedback and the Kleisli above the leaves that moved
    }
    step_calls.update(allows=[], _with=0)
    assert moved.step(CartCommand.PayCart)[1] is moved  # now every leaf stays
    assert step_calls == {"allows": [], "_with": 0}


def test_a_disallowed_move_consults_its_topology_once_and_raises(step_calls):
    _, tree = trap().step(0)
    step_calls["allows"].clear()
    with pytest.raises(DisallowedTransition) as raised:
        tree.step(0)
    assert str(raised.value) == (
        "machine 'trap': transition 'end' -> 'start' is not allowed by the topology"
    )
    assert step_calls["allows"] == [("end", "start")]


@pytest.mark.parametrize(
    "tree, value, output",
    [
        (Sequential(emit("a", wrap), emit("b", list)), 1, [1]),
        (Parallel(emit("a", wrap), emit("b", wrap)), (1, 2), ([1], [2])),
        (Alternative(emit("a", wrap), emit("b", wrap)), Left(1), Left([1])),
        (Alternative(emit("a", wrap), emit("b", wrap)), Right(2), Right([2])),
        (Feedback(emit("a", lambda x: [x] if x < 3 else []), emit("b", lambda x: [x + 1])), 1,
         [1, 2]),
        (Feedback(emit("a", list), emit("b", wrap)), [], []),  # a silent forward step
        (Kleisli(emit("a", lambda x: [x, x]), emit("b", wrap)), 1, [1, 1]),
    ],
    ids=["sequential", "parallel", "alternative-left", "alternative-right", "feedback",
         "feedback-silent", "kleisli"],
)
def test_a_stay_returns_the_same_tree_with_no_rebuild_call(tree, value, output, step_calls):
    assert tree.step(value) == (output, tree)
    assert tree.step(value)[1] is tree
    assert step_calls == {"allows": [], "_with": 0}


# -- the leaf walk -------------------------------------------------------------


@pytest.fixture
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


@pytest.mark.parametrize("chain", [left_chain, right_chain])
def test_thousand_leaf_chain_builds_and_lists_its_leaves(chain, default_recursion_limit):
    tree = chain(1000)
    names = [leaf.name for leaf in tree.leaves()]
    assert names == [f"leaf{i}" for i in range(1000)]


@pytest.mark.parametrize("chain", [left_chain, right_chain])
def test_thousand_leaf_chain_renders(chain, default_recursion_limit):
    tree = chain(1000)
    for format in ("dot", "mermaid"):
        text = render_flow(tree, format).text
        assert text.count("seq") == 999
        assert "leaf999" in text


@pytest.mark.parametrize("chain", [left_chain, right_chain])
def test_thousand_leaf_chain_round_trips_its_vertices(chain, default_recursion_limit):
    # no ==, hash or repr here: on a tree this deep they recurse
    tree = chain(1000, on_ring)
    start = eventlog._leaf_vertices(tree)
    assert start == ["r0"] * 1000
    assert eventlog._restore_vertices(tree, start) is tree
    spread = [f"r{i % 3}" for i in range(1000)]
    moved = eventlog._restore_vertices(tree, spread)
    assert eventlog._leaf_vertices(moved) == spread
    assert [leaf.name for leaf in moved.leaves()] == [f"leaf{i}" for i in range(1000)]
    assert eventlog._leaf_vertices(eventlog._restore_vertices(moved, start)) == start
    assert eventlog._restore_vertices(tree, spread[:-1]) is None
    assert eventlog._fingerprint(tree) == eventlog._fingerprint(chain(1000, on_ring))
    assert eventlog._fingerprint(moved) != eventlog._fingerprint(tree)


def balanced(size, first=0, depth=0):
    """A balanced tree over ``on_ring`` leaves ``first`` on, a different composite per level."""
    if size == 1:
        return on_ring(first)
    half = size // 2
    kind = NODE_KINDS[1 + depth % 5]
    return kind(balanced(half, first, depth + 1), balanced(size - half, first + half, depth + 1))


@pytest.mark.parametrize("moved", range(13))
def test_a_restore_shares_every_subtree_it_did_not_move(moved):
    tree = balanced(13)
    vertices = ["r0"] * 13
    vertices[moved] = "r1"
    restored = eventlog._restore_vertices(tree, vertices)
    assert eventlog._leaf_vertices(restored) == vertices
    # both trees have one shape, so their walks pair up node by node
    for (old, _), (new, _) in zip(compose._walk(tree), compose._walk(restored)):
        if f"leaf{moved}" in {leaf.name for leaf in old.leaves()}:
            assert new is not old  # on the path from the root to the moved leaf
        else:
            assert new is old


@pytest.fixture
def leaves_walked(monkeypatch):
    """Count the leaves ``StateMachine.leaves`` yields from now on."""
    walked = Counter()
    original = StateMachine.leaves

    def counting(node):
        for leaf in original(node):
            walked["leaves"] += 1
            yield leaf

    monkeypatch.setattr(StateMachine, "leaves", counting)
    return walked


@pytest.mark.parametrize("chain", [left_chain, right_chain])
def test_thousand_leaf_chain_builds_without_walking_leaves(chain, leaves_walked):
    tree = chain(1000)
    assert leaves_walked["leaves"] == 0
    assert len(list(tree.leaves())) == 1000


@pytest.mark.parametrize("chain", [left_chain, right_chain])
def test_ten_thousand_leaf_chain_extends_one_name_set_in_place(chain, leaves_walked):
    tree = chain(10_000)
    names = vars(tree)[compose._LEAF_NAMES]
    assert len(names) == 10_000
    # the larger child's set becomes the parent's, whichever side it is on
    grown = Sequential(tree, identity_machine("after"))
    assert vars(grown)[compose._LEAF_NAMES] is names
    assert vars(Sequential(identity_machine("before"), grown))[compose._LEAF_NAMES] is names
    assert leaves_walked["leaves"] == 0
    assert len(names) == 10_002
    # a duplicate added as the last leaf is still named
    with duplicate("leaf9999"):
        Sequential(chain(10_000), identity_machine("leaf9999"))


def test_a_stepped_root_and_its_copy_both_build_as_children(leaves_walked):
    log = []
    root = Sequential(ring("a", log), ring("b", log))
    _, stepped = root.step(0)
    assert stepped is not root and log == ["a", "b"]
    # the root hands up its set, which the first build grows in place to {a, b, c}
    first = Sequential(root, identity_machine("c"))
    assert leaves_walked["leaves"] == 0
    # the copy holds no set, so like a reused subtree its build walks the leaves once
    second = Sequential(stepped, identity_machine("c"))
    assert leaves_walked["leaves"] == 3
    for tree in (first, second):
        assert [leaf.name for leaf in tree.leaves()] == ["a", "b", "c"]
        assert vars(tree)[compose._LEAF_NAMES] == {"a", "b", "c"}
    assert [leaf.state.vertex for leaf in second.leaves()] == ["r1", "r1", "Unit"]
    with duplicate("b"):
        Sequential(second, identity_machine("b"))
    with duplicate("a"):
        Parallel(first, identity_machine("a"))
    assert [leaf.name for leaf in Sequential(first, identity_machine("d")).leaves()] == list("abcd")


def test_a_moved_tree_holds_no_name_set_and_builds_by_one_walk(leaves_walked):
    log = []
    root = Sequential(ring("a", log), ring("b", log))
    _, moved = root.step(0)
    restored = eventlog._restore_vertices(root, ["r1", "r2"])
    for tree in (moved, restored):
        assert tree is not root
        assert [node for node in nodes(tree) if compose._LEAF_NAMES in vars(node)] == []
    grown = Sequential(root, identity_machine("c"))
    assert vars(grown)[compose._LEAF_NAMES] == {"a", "b", "c"}
    # the root's set grew, and nothing reachable from the moved tree names "c"
    assert not any("c" in vars(node).get(compose._LEAF_NAMES, ()) for node in nodes(moved))
    assert [leaf.name for leaf in moved.leaves()] == ["a", "b"]
    walked = leaves_walked["leaves"]
    built = Sequential(moved, identity_machine("d"))
    assert leaves_walked["leaves"] == walked + 3  # one walk of the new node's leaves
    assert vars(built)[compose._LEAF_NAMES] == {"a", "b", "d"}
    assert [leaf.state.vertex for leaf in built.leaves()] == ["r1", "r1", "Unit"]
    with duplicate("a"):
        Sequential(restored, identity_machine("a"))


@pytest.mark.parametrize("kind", NODE_KINDS, ids=[kind.__name__ for kind in NODE_KINDS])
def test_a_subclass_of_a_node_kind_is_refused_like_a_foreign_node(kind, leaves_walked):
    subclass = type(f"Sub{kind.__name__}", (kind,), {})
    if kind is not Basic:
        # a composite subclass is refused as it is built, whatever its children: fresh
        # leaves, a subtree that still hands up its name set, or one reused elsewhere
        pair = Sequential(identity_machine("p"), identity_machine("q"))
        shared = Sequential(identity_machine("x"), identity_machine("y"))
        Parallel(shared, identity_machine("z"))  # takes shared's name set
        for children in [
            (identity_machine("a"), identity_machine("b")),
            (pair, identity_machine("c")),
            (shared, identity_machine("c")),
        ]:
            with not_a_node(subclass.__name__):
                subclass(*children)
        # the refused builds took nothing from pair: it still hands up its set, unwalked
        assert [leaf.name for leaf in Sequential(pair, identity_machine("c")).leaves()] == list("pqc")
        assert leaves_walked["leaves"] == 3  # the one listing above
        return
    node = subclass(identity_machine("a").machine)
    with not_a_node(subclass.__name__):
        Sequential(node, identity_machine("c"))
    with not_a_node(subclass.__name__):
        list(node.leaves())
    for format in ("dot", "mermaid"):
        with not_a_node(subclass.__name__):
            render_flow(node, format)
    with not_a_node(subclass.__name__):
        eventlog._fingerprint(node)


class Wrapped(StateMachine):
    """A node outside the six kinds: it wraps one subtree and forwards to it."""

    def __init__(self, inner):
        self.inner = inner

    def step(self, value, config=compose.DEFAULT_CONFIG):
        output, inner = self.inner.step(value, config)
        return output, Wrapped(inner)

    def leaves(self):
        return self.inner.leaves()


def not_a_node(name):
    """Expect the construction-time refusal of a child of type ``name``."""
    return pytest.raises(TypeError, match=f"^not a composition tree node: {name}$")


def test_duplicate_name_under_hand_rolled_child_is_rejected():
    # the hand-rolled child is refused before any leaf name is compared
    with not_a_node("Wrapped"):
        Sequential(Wrapped(identity_machine("dup")), Basic(stateless("dup", lambda x: x)))
    with not_a_node("Wrapped"):
        Feedback(
            emit("dup", lambda x: [x]),
            Wrapped(Sequential(identity_machine("a"), emit("dup", lambda x: [x]))),
        )
    # without the wrapper, the same trees name the duplicate
    with duplicate("dup"):
        Sequential(identity_machine("dup"), Basic(stateless("dup", lambda x: x)))
    with duplicate("dup"):
        Feedback(
            emit("dup", lambda x: [x]),
            Sequential(identity_machine("a"), emit("dup", lambda x: [x])),
        )


def test_a_refused_hand_rolled_wrapper_takes_nothing_from_the_subtree_it_wraps(leaves_walked):
    inner = Sequential(identity_machine("b"), identity_machine("c"))
    with not_a_node("Wrapped"):
        Sequential(identity_machine("a"), Wrapped(inner))
    # the refused build took nothing from inner: it still hands up its set, unwalked
    tree = Sequential(identity_machine("a"), inner)
    assert leaves_walked["leaves"] == 0
    assert [leaf.name for leaf in tree.leaves()] == ["a", "b", "c"]
    output, tree = tree.step(5)
    assert output == 5
    assert [leaf.name for leaf in tree.leaves()] == ["a", "b", "c"]


# -- leaf-name sets handed up to the parent ------------------------------------


class Bag(StateMachine):
    """A hand-rolled node that lists the leaves it is given, duplicates too."""

    def __init__(self, *names):
        self.machines = [stateless(name, lambda x: x) for name in names]

    def leaves(self):
        return iter(self.machines)


def duplicate(name):
    """Expect the exact message naming ``name`` as the first duplicate in walk order."""
    message = f"machine name {name!r} appears more than once"
    return pytest.raises(DuplicateLeafName, match=f"^{re.escape(message)}$")


def test_reused_subtree_is_walked():
    shared = Sequential(identity_machine("x"), identity_machine("y"))
    Parallel(shared, identity_machine("z"))  # takes shared's name set
    with duplicate("x"):
        Sequential(Sequential(identity_machine("y"), identity_machine("x")), shared)
    again = Sequential(shared, identity_machine("w"))
    assert [leaf.name for leaf in again.leaves()] == ["x", "y", "w"]
    with duplicate("w"):
        Alternative(again, identity_machine("w"))


def test_stepped_copy_is_checked():
    root = Sequential(identity_machine("a"), identity_machine("b"))
    _, stepped = root.step(1)
    with duplicate("b"):  # both sets known and clashing on a and b: walk order decides
        Sequential(stepped, Sequential(identity_machine("b"), identity_machine("a")))
    with duplicate("a"):
        Kleisli(root, stepped)
    with duplicate("a"):  # neither side has a name set left
        Feedback(stepped, root)
    _, stepped_again = root.step(2)
    with duplicate("b"):
        Sequential(identity_machine("b"), stepped_again)


def test_replaced_tree_is_checked():
    pair = Sequential(identity_machine("a"), identity_machine("b"))
    tree = Sequential(pair, identity_machine("c"))
    with duplicate("b"):
        replace(tree, second=identity_machine("b"))
    with duplicate("a"):
        replace(tree.first, second=identity_machine("a"))
    renamed = replace(tree, second=identity_machine("d"))
    assert [leaf.name for leaf in renamed.leaves()] == ["a", "b", "d"]
    with duplicate("d"):
        Sequential(renamed, identity_machine("d"))


def test_hand_rolled_children_are_refused_and_reused_subtrees_name_duplicates_in_walk_order():
    # a hand-rolled child is refused whatever leaves it lists, duplicates too
    with not_a_node("Bag"):
        Sequential(identity_machine("a"), Bag("b", "c", "b", "a"))
    with not_a_node("Bag"):
        Feedback(Bag("p", "q"), Sequential(identity_machine("r"), identity_machine("q")))
    with not_a_node("Wrapped"):
        Parallel(Wrapped(Bag("s", "t")), Sequential(identity_machine("u"), identity_machine("s")))
    # the walk-order cases that need no hand-rolled node: reused subtrees hand up no set
    pair_pq = Sequential(identity_machine("p"), identity_machine("q"))
    pair_st = Sequential(identity_machine("s"), identity_machine("t"))
    Parallel(pair_pq, pair_st)
    with duplicate("q"):
        Feedback(pair_pq, Sequential(identity_machine("r"), identity_machine("q")))
    with duplicate("s"):
        Parallel(pair_st, Sequential(identity_machine("u"), identity_machine("s")))
    tree = Sequential(identity_machine("a"), Sequential(identity_machine("b"), identity_machine("c")))
    with duplicate("c"):
        Sequential(tree, identity_machine("c"))


def test_leaf_name_sets_never_show_in_the_value():
    a, b, c = (identity_machine(name).machine for name in "abc")

    def build_tree():
        return Sequential(Parallel(Basic(a), Basic(b)), Basic(c))

    root, inner = build_tree(), build_tree()
    parent = Sequential(inner, identity_machine("d"))
    assert compose._LEAF_NAMES in vars(root)
    # only a root keeps a set, so memory stays linear in the tree's size
    assert compose._LEAF_NAMES in vars(parent)
    assert all(compose._LEAF_NAMES not in vars(node) for node in (inner, inner.first))
    assert root == inner
    assert hash(root) == hash(inner)
    assert repr(root) == repr(inner)
    assert "_leaf_names" not in repr(root)
    assert [field.name for field in fields(root)] == ["first", "second"]
    _, stepped = root.step((1, 2))
    assert stepped == root and repr(stepped) == repr(root)
    assert vars(stepped)[compose._LEAF_NAMES] == frozenset("abc")


@pytest.mark.parametrize(
    "other, error",
    [(42, TypeError), (identity_machine("a"), DuplicateLeafName)],
    ids=["foreign-child", "duplicate-leaf"],
)
def test_a_refused_build_leaves_its_children_their_name_sets(other, error, leaves_walked):
    x = Sequential(identity_machine("a"), identity_machine("b"))
    names = vars(x)[compose._LEAF_NAMES]
    with pytest.raises(error):
        Sequential(x, other)
    assert vars(x)[compose._LEAF_NAMES] is names
    assert names == {"a", "b"}
    # so the next parent takes the set over without walking the leaves
    walked = leaves_walked["leaves"]
    assert [leaf.name for leaf in Sequential(x, identity_machine("c")).leaves()] == list("abc")
    assert leaves_walked["leaves"] == walked + 3  # the three of .leaves() alone


def quiet(name):
    """Leaf ``name`` on RING with no payload: it moves one vertex per step and outputs ``[]``."""

    def act(state, value):
        return StepResult([], MachineState(f"r{(int(state.vertex[1:]) + 1) % 3}"))

    return Basic(BaseMachine(name, RING, MachineState("r0"), act))


# one input of each shape a node kind takes; a tree refuses the shapes it cannot take
SHAPED_INPUTS = (0, (0, 0), Left(0), Right(0))


def held_names(node):
    return vars(node).get(compose._LEAF_NAMES)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_every_build_holds_the_names_a_walk_finds_or_names_the_walks_first_duplicate(data):
    # trees from fresh leaves, subtrees reused in a second parent, and stepped or restored
    # subtrees, which hold no name set, all drawn from one pool and named from a few names
    pool = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=16))):
        moves = ["leaf", "build", "build", "step", "restore"] if pool else ["leaf"]
        move = data.draw(st.sampled_from(moves))
        if move == "leaf":
            pool.append(quiet(data.draw(st.sampled_from("abcde"))))
            continue
        tree = data.draw(st.sampled_from(pool))
        names = [leaf.name for leaf in tree.leaves()]
        if move == "step":
            try:
                _, tree = tree.step(data.draw(st.sampled_from(SHAPED_INPUTS)))
            except TypeError:
                continue
            pool.append(tree)
        elif move == "restore":
            vertices = data.draw(st.lists(st.sampled_from(RING.vertices()),
                                          min_size=len(names), max_size=len(names)))
            pool.append(eventlog._restore_vertices(tree, vertices))
        else:
            kind = data.draw(st.sampled_from(NODE_KINDS[1:]))
            second = data.draw(st.sampled_from(pool))
            names += [leaf.name for leaf in second.leaves()]
            clash = next((name for i, name in enumerate(names) if name in names[:i]), None)
            before = [(held_names(child), set(held_names(child) or ())) for child in (tree, second)]
            if clash is None:
                node = kind(tree, second)
                assert held_names(node) == set(names)
                assert [n for n in nodes(node) if compose._LEAF_NAMES in vars(n)] == [node]
                pool.append(node)
                continue
            with duplicate(clash):
                kind(tree, second)
            for child, (held, content) in zip((tree, second), before):
                assert held_names(child) is held
                assert set(held or ()) == content
