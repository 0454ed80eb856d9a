import re
from enum import Enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crem import (
    BaseMachine,
    EmptyVertexLabel,
    MachineState,
    StepResult,
    Topology,
    UnknownVertex,
    render_base,
    trivial_topology,
)
from crem.cart import (
    CART_TOPOLOGY,
    INITIATING_PAYMENT,
    PAYMENT_COMPLETE,
    WAITING_FOR_PAYMENT,
)


def test_construction_merges_duplicate_sources():
    assert Topology((("A", ("B",)), ("A", ("C",)))).edges == (("A", ("B", "C")),)


def test_construction_drops_duplicate_targets():
    assert Topology((("A", ("B", "B")),)).edges == (("A", ("B",)),)


def test_normalize_returns_the_topology_itself():
    assert CART_TOPOLOGY.normalize() is CART_TOPOLOGY
    merged = Topology((("A", ("B",)), ("A", ("B", "C"))))
    assert merged.normalize() is merged


def test_construction_rejects_empty_labels():
    with pytest.raises(EmptyVertexLabel):
        Topology((("", ("B",)),))
    with pytest.raises(EmptyVertexLabel):
        Topology((("A", ("",)),))


class Colour(Enum):
    RED = "red"


@pytest.mark.parametrize(
    "label", [1, 0, None, Colour.RED, b"A"], ids=["int", "zero", "none", "enum", "bytes"]
)
def test_a_label_that_is_not_a_str_is_refused(label):
    # a machine on such a topology could step, yet no render of it could print
    message = f"vertex labels must be str, got {label!r}"
    for edges in (((label, ("B",)),), (("A", (label,)),), [["A", ["B"]], ["B", [label]]]):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Topology(edges)


@pytest.mark.parametrize(
    "edges",
    [
        (("closed", "open"), ("open", ("closed",))),
        [("open", ["closed"]), ("closed", "")],
    ],
    ids=["tuple", "list"],
)
def test_a_bare_string_as_targets_is_refused(edges):
    # tuple("open") would read as the four labels o, p, e, n
    source = next(source for source, targets in edges if isinstance(targets, str))
    message = f"the targets of {source!r} must be labels, not a str"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        Topology(edges)


def test_duplicate_groups_equal_their_normal_form():
    duplicated = Topology((("A", ("B", "B")), ("C", ("A",)), ("A", ("C", "B"))))
    normal = Topology((("A", ("B", "C")), ("C", ("A",))))
    assert duplicated == normal
    assert hash(duplicated) == hash(normal)
    assert repr(duplicated) == repr(normal)


def test_allows_listed_edge():
    assert CART_TOPOLOGY.allows(WAITING_FOR_PAYMENT, INITIATING_PAYMENT)


def test_allows_identity_even_when_unlisted():
    assert CART_TOPOLOGY.allows(PAYMENT_COMPLETE, PAYMENT_COMPLETE)


def test_denies_unlisted_edge():
    assert not CART_TOPOLOGY.allows(PAYMENT_COMPLETE, WAITING_FOR_PAYMENT)


def test_vertices_of_cart_topology():
    assert CART_TOPOLOGY.vertices() == (
        WAITING_FOR_PAYMENT,
        INITIATING_PAYMENT,
        PAYMENT_COMPLETE,
    )


def test_vertices_of_empty_topology():
    assert Topology().vertices() == ()


def test_vertices_include_target_only_vertices():
    # by definition of the union: enumerate sources, then targets
    topo = Topology((("A", ("B",)),))
    sources = {source for source, _ in topo.edges}
    targets = {t for _, targets in topo.edges for t in targets}
    assert set(topo.vertices()) == sources | targets == {"A", "B"}


def test_trivial_topology():
    topo = trivial_topology("Unit")
    assert topo.allows("Unit", "Unit")
    assert topo.vertices() == ("Unit",)
    assert not topo.allows("Unit", "Other")
    assert topo.transitions() == ()


labels = st.text(min_size=1, max_size=4)
# groups as written, before construction: sources and targets may repeat
raw_edges = st.lists(
    st.tuples(labels, st.lists(labels, max_size=4).map(tuple)), max_size=6
).map(tuple)


@given(raw_edges)
def test_construction_is_idempotent(edges):
    once = Topology(edges)
    assert Topology(once.edges).edges is once.edges


@given(raw_edges)
def test_construction_preserves_vertex_set(edges):
    assert set(Topology(edges).vertices()) == {v for s, ts in edges for v in (s, *ts)}


@given(raw_edges, labels)
def test_reflexivity(edges, vertex):
    assert Topology(edges).allows(vertex, vertex)


@given(raw_edges)
def test_normalized_sources_are_distinct_and_targets_deduped(edges):
    topo = Topology(edges)
    sources = [source for source, _ in topo.edges]
    assert len(sources) == len(set(sources))
    for _, targets in topo.edges:
        assert len(targets) == len(set(targets))


def test_raw_allows_merges_duplicate_sources():
    raw = Topology((("A", ("B",)), ("C", ("A",)), ("A", ("C",))))
    assert raw.allows("A", "B") and raw.allows("A", "C") and raw.allows("C", "A")
    assert not raw.allows("B", "A")


@given(raw_edges, labels, labels)
def test_raw_allows_matches_membership(edges, a, b):
    # allowance is exactly identity or membership in the groups as written
    member = a == b or any(source == a and b in targets for source, targets in edges)
    assert Topology(edges).allows(a, b) == member


@given(raw_edges, labels, labels)
def test_allows_leaves_the_value_unchanged(edges, a, b):
    topology = Topology(edges)
    fresh = Topology(edges)
    topology.allows(a, b)
    assert topology == fresh
    assert hash(topology) == hash(fresh)
    assert repr(topology) == repr(fresh)


# -- construction against the label-by-label oracle ---------------------------


def reference_normalize(edges):
    """The label-by-label loop normalizing used to be; returns the normal edges.

    Group by group, a bare ``str`` of targets is refused before the group's labels
    are checked, as construction refused it when each group checked its own labels.
    """
    merged = {}
    for source, targets in edges:
        if isinstance(targets, str):
            raise TypeError(f"the targets of {source!r} must be labels, not a str")
        if not source:
            raise EmptyVertexLabel("vertex labels must be non-empty")
        bucket = merged.setdefault(source, [])
        for target in targets:
            if not target:
                raise EmptyVertexLabel("vertex labels must be non-empty")
            if target not in bucket:
                bucket.append(target)
    return tuple((source, tuple(targets)) for source, targets in merged.items())


# few labels, so sources and targets repeat; "" is an empty label
clashing_labels = st.sampled_from(["", "A", "B", "C"]) | st.text(max_size=2)


def list_or_tuple(elements, max_size):
    return st.lists(elements, max_size=max_size).flatmap(
        lambda items: st.sampled_from([items, tuple(items)])
    )


edge_lists = list_or_tuple(
    st.tuples(clashing_labels, list_or_tuple(clashing_labels, 5)).flatmap(
        lambda group: st.sampled_from([group, list(group)])
    ),
    6,
)


def checked_build(edges):
    """``Topology(edges)`` and the oracle's edges, or None if both refuse an empty label."""
    try:
        expected = reference_normalize(edges)
    except EmptyVertexLabel as error:
        with pytest.raises(EmptyVertexLabel, match=f"^{re.escape(str(error))}$"):
            Topology(edges)
        return None
    return Topology(edges), expected


@given(edge_lists)
def test_normalize_matches_the_reference(edges):
    built = checked_build(edges)
    if built is None:
        return
    topology, expected = built
    assert topology.edges == expected
    assert topology.normalize() is topology


@given(edge_lists)
def test_list_and_tuple_shaped_edges_give_one_value(edges):
    built = checked_build(edges)
    if built is None:
        return
    shaped, expected = built
    normal = Topology(expected)
    assert normal.edges is expected  # already normal: kept, not rebuilt
    assert shaped.edges == expected
    assert type(shaped.edges) is tuple
    assert all(type(group) is tuple and type(group[1]) is tuple for group in shaped.edges)
    # duplicate groups and list shapes give the normal form's value
    assert shaped == normal
    assert hash(shaped) == hash(normal)
    assert repr(shaped) == repr(normal)


def stay(state, value):
    return StepResult(value, state)


@given(edge_lists, clashing_labels.filter(bool))
def test_initial_vertex_is_any_source_or_target(edges, vertex):
    built = checked_build(edges)
    if built is None:
        return
    topology, groups = built
    vertices = {v for source, targets in groups for v in (source, *targets)}
    if vertex in vertices:
        assert BaseMachine("m", topology, MachineState(vertex), stay).state.vertex == vertex
    else:
        message = f"vertex {vertex!r} is not in the topology of 'm'"
        with pytest.raises(UnknownVertex, match=f"^{re.escape(message)}$"):
            BaseMachine("m", topology, MachineState(vertex), stay)


def test_initial_vertex_may_be_a_target_only():
    topology = Topology((("A", ("B",)),))
    assert BaseMachine("m", topology, MachineState("B"), stay).state == MachineState("B")
    with pytest.raises(UnknownVertex, match="^vertex 'C' is not in the topology of 'm'$"):
        BaseMachine("m", topology, MachineState("C"), stay)


# -- the recorded vertex order against the loop it replaced -------------------


def reference_vertices(edges):
    """The ``setdefault`` loop ``vertices()`` ran on every call before construction
    recorded the order."""
    seen = {}
    for source, targets in edges:
        seen.setdefault(source)
        for target in targets:
            seen.setdefault(target)
    return tuple(seen)


few_labels = st.sampled_from(["A", "B", "C", "D"])


@st.composite
def raw_groups(draw):
    """Edges as written: sources that repeat (groups to merge), targets that repeat
    inside a group, self-loops, list and tuple shapes, and one targets tuple handed
    to several groups."""
    shared = draw(st.lists(few_labels, max_size=4).map(tuple))
    groups = []
    for _ in range(draw(st.integers(0, 6))):
        source = draw(few_labels)
        targets = draw(
            st.just(shared)
            | st.lists(few_labels, max_size=5)
            | st.lists(few_labels, max_size=5).map(lambda ts, s=source: (s, *ts, s))
        )
        groups.append(draw(st.sampled_from([(source, targets), [source, targets]])))
    return draw(st.sampled_from([groups, tuple(groups)]))


@given(raw_groups())
def test_vertices_match_the_reference_loop_over_the_normal_edges(edges):
    topology = Topology(edges)
    assert topology.vertices() == reference_vertices(topology.edges)
    assert topology.vertices() == reference_vertices(reference_normalize(edges))
    assert topology.vertices() is topology.vertices()  # recorded once, not rebuilt


@given(raw_groups())
def test_edges_are_kept_exactly_when_they_equal_their_normal_form(edges):
    assert (Topology(edges).edges is edges) == (reference_normalize(edges) == edges)


def test_a_merged_group_orders_vertices_as_its_normal_form():
    # written: A B C D E; merged, the A group lists E before C
    raw = Topology((("A", ("B",)), ("C", ("D",)), ("A", ("E",))))
    assert raw.edges == (("A", ("B", "E")), ("C", ("D",)))
    assert raw.vertices() == ("A", "B", "E", "C", "D")


def test_a_targets_tuple_shared_by_groups_is_no_repeat():
    shared = ("B", "A")
    topology = Topology((("A", shared), ("C", shared), ("B", shared)))
    assert topology.edges == (("A", shared), ("C", shared), ("B", shared))
    assert all(targets is shared for _, targets in topology.edges)
    assert topology.vertices() == ("A", "B", "C")


def test_self_loops_and_repeats_inside_a_group():
    topology = Topology([["A", ["A", "B", "A", "B"]], ("B", ("B",))])
    assert topology.edges == (("A", ("A", "B")), ("B", ("B",)))
    assert topology.vertices() == ("A", "B")


# -- which of two faults is reported ------------------------------------------

EMPTY = (EmptyVertexLabel, "vertex labels must be non-empty")


@pytest.mark.parametrize(
    "edges, expected",
    [
        ((("", ("B",)), ("A", "xy")), EMPTY),
        ([("A", ["B", ""]), ("C", "xy")], EMPTY),
        ((("A", ("B",)), ("A", ("",)), ("C", "xy")), EMPTY),
        ((("A", ("",)), ("B",)), EMPTY),
        ((("", ()), ("B", ("C",), "D")), EMPTY),
        ((("", ()), 5), EMPTY),
        ((("", ()), ("B", 5)), EMPTY),
        ((("A", "xy"), ("", ("B",))), (TypeError, "the targets of 'A' must be labels, not a str")),
        ((("", "xy"),), (TypeError, "the targets of '' must be labels, not a str")),
        ((("A",), ("", ())), (ValueError, "not enough values to unpack (expected 2, got 1)")),
        ((("", ()), ("B", (1,))), EMPTY),
        ((("A", (None,)), ("", ())), (TypeError, "vertex labels must be str, got None")),
        (((0, ()), ("A", "xy")), (TypeError, "vertex labels must be str, got 0")),
        ((("A", "xy"), (0, ())), (TypeError, "the targets of 'A' must be labels, not a str")),
        ((("", ()), ("B", {"C"})), EMPTY),
        ((("A", {"B"}), ("", ())), (TypeError, "the targets of 'A' must be in order, not a set")),
        ([(0, ()), ("A", frozenset("B"))], (TypeError, "vertex labels must be str, got 0")),
        ({("A", ("B",))}, (TypeError, "the groups must be in order, not a set")),
        (frozenset(), (TypeError, "the groups must be in order, not a frozenset")),
    ],
    ids=[
        "empty-source-before-str",
        "empty-target-before-str",
        "empty-in-merged-group-before-str",
        "empty-before-short-group",
        "empty-before-long-group",
        "empty-before-non-iterable-group",
        "empty-before-non-iterable-targets",
        "str-before-empty",
        "str-beside-empty-source",
        "short-group-before-empty",
        "empty-before-non-str",
        "non-str-before-empty",
        "non-str-before-str",
        "str-before-non-str",
        "empty-before-set-targets",
        "set-targets-before-empty",
        "non-str-before-frozenset-targets",
        "set-of-groups",
        "empty-frozenset-of-groups",
    ],
)
def test_the_first_of_two_faults_is_reported(edges, expected):
    error, message = expected
    with pytest.raises(Exception, match=f"^{re.escape(message)}$") as raised:
        Topology(edges)
    assert type(raised.value) is error


def test_lists_and_generators_are_ordered_enough():
    # only a set is refused: its order, and so the fingerprint, changes per process
    expected = Topology((("a", ("b", "c", "d")),))
    assert Topology([["a", ["b", "c", "d"]]]) == expected
    assert Topology(((source, iter(targets)) for source, targets in expected.edges)) == expected


faulty_groups = st.lists(
    st.tuples(clashing_labels, st.lists(clashing_labels, max_size=3))
    | st.tuples(clashing_labels, clashing_labels)  # a bare str as targets
    | st.tuples(clashing_labels)  # not a pair
    | st.tuples(clashing_labels, st.just(()), clashing_labels),
    max_size=5,
)


@given(faulty_groups)
def test_faults_are_reported_as_the_per_group_checks_reported_them(edges):
    try:
        expected = reference_normalize(edges)
    except Exception as error:
        with pytest.raises(Exception, match=f"^{re.escape(str(error))}$") as raised:
            Topology(edges)
        assert type(raised.value) is type(error)
        return
    assert Topology(edges).edges == expected


@pytest.mark.parametrize("use", ["render-dot", "render-mermaid", "vertices"])
def test_the_index_of_allows_is_built_on_the_first_allows_and_changes_no_value(use):
    edges = (("A", ("B", "C")), ("B", ("C",)))
    topology, twin = Topology(edges), Topology(edges)
    if use == "vertices":
        assert topology.vertices() == ("A", "B", "C")
    else:
        machine = BaseMachine("m", topology, MachineState("A"), lambda state, x: (x, state))
        render_base(machine, use.removeprefix("render-"))
    assert "_targets" not in vars(topology)
    shown = (hash(topology), repr(topology))
    assert topology.allows("A", "C") and not topology.allows("C", "A")
    assert vars(topology)["_targets"] == {"A": ("B", "C"), "B": ("C",)}
    assert topology == twin and (hash(topology), repr(topology)) == shown
    assert "_targets" not in vars(twin)
