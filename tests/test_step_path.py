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
    identity_machine,
    render_flow,
    stateless,
    unrestricted_mealy,
)
from crem import compose
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
        wrap(compose, "_adopt_leaf_names", "_adopt_leaf_names")
        wrap(compose, "_check_leaf_names", "_check_leaf_names")
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


def test_public_constructors_still_validate(validation_calls):
    counts = validation_calls()
    left_chain(4)
    assert counts["BaseMachine.__post_init__"] == 4
    assert counts["Topology.__init__"] == 4  # one per leaf, checked and normalized there
    assert counts["_adopt_leaf_names"] == 3
    assert counts["_check_leaf_names"] == 0  # the children handed their names up


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
    for owner, attr in ((BaseMachine, "step"), (Topology, "allows")):
        original = getattr(owner, attr)

        def counting(*args, _original=original, _key=attr, **kwargs):
            checks[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    for value in inputs:
        _, stepped = tree.step(value)
        assert stepped is tree
    # every leaf step still checked its move against the topology
    assert checks["step"] >= len(inputs)
    assert checks["allows"] == checks["step"]


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
        (Feedback(emit("a", lambda x: [x]), counts("b", never_back)), 1, "forward"),
        (Feedback(counts("a"), emit("b", never_back)), 1, "backward"),
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
    if isinstance(node, Feedback):
        forward = rebuild(node.forward, leaves)
        return Feedback(forward, rebuild(node.backward, leaves))
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
    start = compose._leaf_vertices(tree)
    assert start == ["r0"] * 1000
    assert compose._restore_vertices(tree, start) is tree
    spread = [f"r{i % 3}" for i in range(1000)]
    moved = compose._restore_vertices(tree, spread)
    assert compose._leaf_vertices(moved) == spread
    assert [leaf.name for leaf in moved.leaves()] == [f"leaf{i}" for i in range(1000)]
    assert compose._leaf_vertices(compose._restore_vertices(moved, start)) == start
    assert compose._restore_vertices(tree, spread[:-1]) is None
    assert compose._fingerprint(tree) == compose._fingerprint(chain(1000, on_ring))
    assert compose._fingerprint(moved) != compose._fingerprint(tree)


@pytest.fixture
def leaves_walked(monkeypatch):
    """Count the leaves ``compose._iter_leaves`` yields from now on."""
    walked = Counter()
    original = compose._iter_leaves

    def counting(node):
        for leaf in original(node):
            walked["leaves"] += 1
            yield leaf

    monkeypatch.setattr(compose, "_iter_leaves", counting)
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
    # the copy shares the root's set, which the first build grows in place to {a, b, c}
    first = Sequential(root, identity_machine("c"))
    assert leaves_walked["leaves"] == 0
    # so the copy hands up a superset that clashes with "c": the build walks and succeeds
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


def test_hand_rolled_child_leaves_keep_their_order(leaves_walked):
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


def test_hand_rolled_child_duplicates_are_named_in_walk_order():
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
