import re

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
    """The label-by-label loop normalizing used to be; returns the normal edges."""
    merged = {}
    for source, targets in edges:
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
