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


def test_normalize_merges_duplicate_sources():
    raw = Topology((("A", ("B",)), ("A", ("C",))))
    assert raw.normalize() == Topology((("A", ("B", "C")),))


def test_normalize_drops_duplicate_targets():
    raw = Topology((("A", ("B", "B")),))
    assert raw.normalize() == Topology((("A", ("B",)),))


def test_normalize_keeps_already_normal_topology():
    assert CART_TOPOLOGY.normalize() == CART_TOPOLOGY


def test_normalize_rejects_empty_labels():
    with pytest.raises(EmptyVertexLabel):
        Topology((("", ("B",)),)).normalize()
    with pytest.raises(EmptyVertexLabel):
        Topology((("A", ("",)),)).normalize()


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
raw_topologies = st.lists(
    st.tuples(labels, st.lists(labels, max_size=4)), max_size=6
).map(lambda groups: Topology(tuple((s, tuple(ts)) for s, ts in groups)))


@given(raw_topologies)
def test_normalize_is_idempotent(raw):
    once = raw.normalize()
    assert once.normalize() == once


@given(raw_topologies)
def test_normalize_preserves_vertex_set(raw):
    assert set(raw.normalize().vertices()) == set(raw.vertices())


@given(raw_topologies, labels)
def test_reflexivity(raw, vertex):
    assert raw.normalize().allows(vertex, vertex)


@given(raw_topologies, labels, labels)
def test_edge_soundness_matches_membership(raw, a, b):
    # for distinct vertices, allowance is exactly edge-list membership
    if a == b:
        return
    member = any(
        source == a and b in targets for source, targets in raw.edges
    )
    assert raw.normalize().allows(a, b) == member


@given(raw_topologies)
def test_normalized_sources_are_distinct_and_targets_deduped(raw):
    topo = raw.normalize()
    sources = [source for source, _ in topo.edges]
    assert len(sources) == len(set(sources))
    for _, targets in topo.edges:
        assert len(targets) == len(set(targets))


def test_raw_allows_merges_duplicate_sources():
    raw = Topology((("A", ("B",)), ("C", ("A",)), ("A", ("C",))))
    assert raw.allows("A", "B") and raw.allows("A", "C") and raw.allows("C", "A")
    assert not raw.allows("B", "A")


@given(raw_topologies, labels, labels)
def test_raw_allows_matches_membership(raw, a, b):
    member = a == b or any(source == a and b in targets for source, targets in raw.edges)
    assert raw.allows(a, b) == member


@given(raw_topologies, labels, labels)
def test_allows_leaves_the_value_unchanged(raw, a, b):
    fresh = Topology(raw.edges)
    raw.allows(a, b)
    assert raw == fresh
    assert hash(raw) == hash(fresh)
    assert repr(raw) == repr(fresh)


# -- the one-pass normalize against the loop it replaced -----------------------


def reference_normalize(topology):
    """The label-by-label loop ``normalize`` used to be; returns the edges."""
    merged = {}
    for source, targets in topology.edges:
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


@given(edge_lists)
def test_normalize_matches_the_reference(edges):
    raw = Topology(edges)
    try:
        expected = reference_normalize(raw)
    except EmptyVertexLabel as error:
        with pytest.raises(EmptyVertexLabel, match=f"^{re.escape(str(error))}$"):
            raw.normalize()
        return
    once = raw.normalize()
    assert once.edges == expected
    assert once.normalize() == once
    assert once.normalize().edges == expected
    assert raw == Topology(edges)


@given(edge_lists)
def test_list_and_tuple_shaped_edges_give_one_value(edges):
    shaped = Topology(edges)
    groups = tuple((source, tuple(targets)) for source, targets in edges)
    canonical = Topology(groups)
    assert canonical.edges is groups  # already canonical: kept, not rebuilt
    assert shaped.edges == canonical.edges
    assert type(shaped.edges) is tuple
    assert all(type(group) is tuple and type(group[1]) is tuple for group in shaped.edges)
    assert shaped == canonical
    assert hash(shaped) == hash(canonical)
    assert repr(shaped) == repr(canonical)


def stay(state, value):
    return StepResult(value, state)


@given(edge_lists, clashing_labels.filter(bool))
def test_initial_vertex_is_any_source_or_target(edges, vertex):
    topology = Topology(edges)
    try:
        groups = reference_normalize(topology)
    except EmptyVertexLabel:
        return
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
