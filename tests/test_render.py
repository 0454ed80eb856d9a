import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dotparse
import render_reference
from crem import (
    Alternative,
    Basic,
    Diagram,
    DuplicateLeafName,
    Feedback,
    Kleisli,
    Parallel,
    Sequential,
    Topology,
    identity_machine,
    render_base,
    render_flow,
    stateless,
)
from crem.cart import cart, cart_and_shipping, payment_gateway, whole_cart_domain
from crem_harness import _leaf

CART = cart().machine


def edge_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if "->" in line]


def test_base_dot_has_exactly_the_topology_edges():
    text = render_base(CART, "dot").text
    arrows = edge_lines(text)
    assert '  "WaitingForPaymentVertex" -> "InitiatingPaymentVertex";' in arrows
    assert '  "InitiatingPaymentVertex" -> "PaymentCompleteVertex";' in arrows
    # the only other arrow is the initial marker
    assert len(arrows) == 3
    assert any("__initial" in line for line in arrows)


def test_base_dot_lists_every_vertex_in_order():
    text = render_base(CART, "dot").text
    positions = [text.index(v) for v in (
        "WaitingForPaymentVertex",
        "InitiatingPaymentVertex",
        "PaymentCompleteVertex",
    )]
    assert positions == sorted(positions)


def test_base_dot_of_stateless_machine_is_single_node():
    gateway = payment_gateway().machine
    text = render_base(gateway, "dot").text
    arrows = edge_lines(text)
    assert len(arrows) == 1  # only the initial marker
    assert '"Unit"' in text


def test_base_render_is_deterministic():
    assert render_base(CART, "dot").text == render_base(CART, "dot").text
    assert render_base(CART, "mermaid").text == render_base(CART, "mermaid").text


@pytest.fixture
def topology_reads(monkeypatch):
    """The topologies that ``Topology.vertices`` and ``Topology.transitions`` are called on."""
    calls = {"vertices": [], "transitions": []}
    for method, seen in calls.items():
        original = getattr(Topology, method)

        def counting(self, original=original, seen=seen):
            seen.append(self)
            return original(self)

        monkeypatch.setattr(Topology, method, counting)
    return calls


@pytest.mark.parametrize("format", ["dot", "mermaid"])
def test_base_render_lists_the_vertices_once(format, topology_reads):
    render_base(CART, format)
    assert topology_reads == {"vertices": [CART.topology], "transitions": []}


@pytest.mark.parametrize("format", ["dot", "mermaid"])
def test_flow_render_lists_each_leaf_vertices_once(format, topology_reads):
    tree = cart_and_shipping()
    render_flow(tree, format)
    leaves = list(tree.leaves())
    assert len(leaves) == 11
    assert topology_reads == {"vertices": [leaf.topology for leaf in leaves], "transitions": []}


def test_base_mermaid_uses_state_diagram_and_initial_marker():
    text = render_base(CART, "mermaid").text
    assert text.startswith("stateDiagram-v2\n")
    assert "[*] --> WaitingForPaymentVertex" in text
    assert "WaitingForPaymentVertex --> InitiatingPaymentVertex" in text
    assert "InitiatingPaymentVertex --> PaymentCompleteVertex" in text


def test_base_dot_parses():
    summary = dotparse.parse_dot(render_base(CART, "dot").text)
    assert summary.directed
    assert "WaitingForPaymentVertex" in summary.nodes


def test_diagram_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_base(CART, "png")
    with pytest.raises(ValueError):
        Diagram("png", "")
    with pytest.raises(ValueError, match=r"^unknown diagram format 'svg'$"):
        render_flow(cart(), "svg")


def test_flow_of_basic_is_one_cluster():
    text = render_flow(cart(), "dot").text
    assert text.count("subgraph") == 1
    assert '"cluster_cart"' in text
    dotparse.parse_dot(text)


def test_flow_sequential_draws_one_intercluster_edge():
    tree = Sequential(identity_machine("a"), identity_machine("b"))
    text = render_flow(tree, "dot").text
    labeled = [line for line in text.splitlines() if "ltail=" in line]
    assert len(labeled) == 1
    assert 'label="seq"' in labeled[0]
    assert 'ltail="cluster_a"' in labeled[0]
    assert 'lhead="cluster_b"' in labeled[0]


def test_flow_kleisli_edge_is_labeled_kleisli():
    tree = Kleisli(
        Basic(stateless("burst", lambda x: [x])),
        Basic(stateless("sink", lambda x: [x])),
    )
    text = render_flow(tree, "dot").text
    assert 'label="kleisli"' in text


def test_flow_feedback_draws_edge_pair():
    tree = Feedback(
        Basic(stateless("fwd", lambda x: [x])),
        Basic(stateless("bwd", lambda x: [])),
    )
    lines = render_flow(tree, "dot").text.splitlines()
    loop = [line for line in lines if 'label="feedback"' in line]
    assert len(loop) == 2
    assert any('ltail="cluster_fwd"' in line and 'lhead="cluster_bwd"' in line for line in loop)
    assert any('ltail="cluster_bwd"' in line and 'lhead="cluster_fwd"' in line for line in loop)


def test_flow_parallel_and_alternative_bracket_children():
    par = Parallel(identity_machine("a"), identity_machine("b"))
    alt = Alternative(identity_machine("c"), identity_machine("d"))
    tree = Sequential(par, alt)
    text = render_flow(tree, "dot").text
    assert 'label="parallel"' in text
    assert 'label="alternative"' in text
    # bracketing clusters draw no inter-cluster edges of their own
    assert len([line for line in text.splitlines() if "ltail=" in line]) == 1
    dotparse.parse_dot(text)


def test_flow_leaf_count_matches_tree():
    tree = whole_cart_domain()
    text = render_flow(tree, "dot").text
    leaf_count = sum(1 for _ in tree.leaves())
    assert text.count("subgraph") == leaf_count == 3


def test_flow_cluster_order_is_depth_first():
    text = render_flow(whole_cart_domain(), "dot").text
    order = [
        text.index('"cluster_cart"'),
        text.index('"cluster_paymentGateway"'),
        text.index('"cluster_paymentStatus"'),
    ]
    assert order == sorted(order)


def test_flow_node_ids_are_name_prefixed():
    text = render_flow(whole_cart_domain(), "dot").text
    assert '"cart__WaitingForPaymentVertex"' in text
    assert '"paymentStatus__Pending"' in text


def test_flow_cluster_edges_match_each_topology():
    # faithfulness: inside each cluster, drawn edges == explicit topology edges
    tree = whole_cart_domain()
    text = render_flow(tree, "dot").text
    for leaf in tree.leaves():
        pattern = re.compile(
            rf'"{leaf.name}__(\w+)" -> "{leaf.name}__(\w+)";'
        )
        drawn = {
            (m.group(1), m.group(2))
            for m in pattern.finditer(text)
            if m.group(1) != "initial"
        }
        assert drawn == set(leaf.topology.transitions())


def _cluster_nodes(text):
    """Per leaf cluster, the ids of the node statements inside it, in order."""
    clusters, current = {}, None
    for line in map(str.strip, text.splitlines()):
        if line.startswith('subgraph "cluster_'):
            current = clusters.setdefault(line.split('"')[1], [])
        elif line == "}":
            current = None
        elif current is not None and "->" not in line and line.endswith("];"):
            current.append(line.split(" [")[0])
    return clusters


@pytest.mark.parametrize(
    "tree",
    [
        # "a" + "b__c" and "a__b" + "c" both read "a__b__c"
        Sequential(_leaf("a", (("b__c", ("x",)),), "b__c"), _leaf("a__b", (("c", ()),), "c")),
        # a vertex of "a" reads like the marker of "a__b"
        Sequential(
            _leaf("a", (("b__initial", ()),), "b__initial"), _leaf("a__b", (("x", ()),), "x")
        ),
    ],
    ids=["vertex-vertex", "vertex-marker"],
)
def test_flow_dot_node_ids_are_unique_across_the_diagram(tree):
    text = render_flow(tree, "dot").text
    clusters = _cluster_nodes(text)
    # each cluster holds its marker and one node per vertex, none shared
    assert {name: len(ids) for name, ids in clusters.items()} == {
        f"cluster_{leaf.name}": len(leaf.topology.vertices()) + 1 for leaf in tree.leaves()
    }
    ids = [node for nodes in clusters.values() for node in nodes]
    assert len(set(ids)) == len(ids)
    assert len(dotparse.parse_dot(text).nodes) == len(ids)
    # the inter-cluster edge joins the current vertices' nodes of its two clusters
    source, _, target = next(line for line in text.splitlines() if "ltail=" in line).split()[:3]
    assert source in clusters["cluster_a"] and target in clusters["cluster_a__b"]


def _subgraph_labels(text):
    """Each subgraph id of a DOT diagram, in order, with the label on its next line."""
    lines = [line.strip() for line in text.splitlines()]
    return [
        (line.split('"')[1], lines[i + 1].split('"')[1])
        for i, line in enumerate(lines)
        if line.startswith("subgraph ")
    ]


@pytest.mark.parametrize(
    "tree",
    [
        # a leaf named like the bracket around it
        Sequential(
            Parallel(identity_machine("parallel_1"), identity_machine("b")), identity_machine("c")
        ),
        # a leaf named like a bracket opened after it
        Sequential(
            Alternative(identity_machine("alternative_2"), identity_machine("b")),
            Alternative(identity_machine("c"), identity_machine("d")),
        ),
    ],
    ids=["leaf-after-bracket", "bracket-after-leaf"],
)
def test_flow_dot_subgraph_ids_are_unique(tree):
    text = render_flow(tree, "dot").text
    subgraphs = _subgraph_labels(text)
    ids = [name for name, _ in subgraphs]
    assert len(set(ids)) == len(ids) == len(dotparse.parse_dot(text).subgraphs)
    # Graphviz draws a subgraph as a cluster only if its id starts with "cluster"
    assert all(name.startswith("cluster_") for name in ids)
    # ltail and lhead name the clusters of the leaves the edge joins
    cluster_of = {label: name for name, label in subgraphs}
    edge = next(line for line in text.splitlines() if "ltail=" in line)
    ltail, lhead = re.search(r'ltail="([^"]*)", lhead="([^"]*)"', edge).groups()
    source, target = (next(side.leaves()).name for side in (tree.first, tree.second))
    assert (ltail, lhead) == (cluster_of[source], cluster_of[target])


def test_flow_mermaid_bracket_ids_cannot_clash():
    # leaf names and vertices that read like bracket ids
    tree = Sequential(
        Parallel(identity_machine("bracket_1"), _leaf("bracket", (("1", ()),), "1")),
        Alternative(_leaf("b", (("racket_2", ()),), "racket_2"), identity_machine("bracket_2")),
    )
    text = render_flow(tree, "mermaid").text
    subgraphs = re.findall(r"subgraph (\w+)\[", text)
    nodes = re.findall(r"^ *(\w+)(?:\[|\(\()", text, re.MULTILINE)
    nodes = [node for node in nodes if node != "subgraph"]
    assert [name for name in subgraphs if name.startswith("bracket_")] == ["bracket_1", "bracket_2"]
    # the other subgraph ids start with sg_, and a node id always holds the "__" of its label
    assert all(name.startswith(("bracket_", "sg_")) for name in subgraphs)
    assert nodes and all("__" in node for node in nodes)
    everything = subgraphs + nodes
    assert len(set(everything)) == len(everything)


def test_flow_mermaid_structure():
    text = render_flow(whole_cart_domain(), "mermaid").text
    assert text.startswith("flowchart TD\n")
    assert text.count("subgraph") == 3
    assert "sg_cart -->|feedback| sg_paymentGateway" in text
    assert "sg_paymentGateway -->|feedback| sg_cart" in text
    assert "sg_cart -->|kleisli| sg_paymentStatus" in text


def test_flow_mermaid_is_deterministic():
    first = render_flow(whole_cart_domain(), "mermaid").text
    second = render_flow(whole_cart_domain(), "mermaid").text
    assert first == second


def test_flow_rejects_duplicate_leaf_names():
    # no tree with a duplicate leaf name is ever built, so none reaches the renderer:
    # a reused subtree hands up no name set, and the build's walk finds the duplicate
    shared = Sequential(identity_machine("dup"), identity_machine("x"))
    render_flow(Parallel(shared, identity_machine("y")), "dot")
    with pytest.raises(DuplicateLeafName, match="'dup' appears more than once"):
        Sequential(shared, identity_machine("dup"))


def test_flow_rejects_a_hand_rolled_child():
    from crem import StateMachine

    class Opaque(StateMachine):
        def leaves(self):
            yield stateless("inner", lambda x: [x])

    # the composite refuses the child when it is built, and the renderer such a root
    with pytest.raises(TypeError, match="^not a composition tree node: Opaque$"):
        Sequential(identity_machine("a"), Opaque())
    for format in ("dot", "mermaid"):
        with pytest.raises(TypeError, match="^not a composition tree node: Opaque$"):
            render_flow(Opaque(), format)
        # a leaf's machine without its Basic(...) is no node either
        with pytest.raises(TypeError, match="^not a composition tree node: BaseMachine$"):
            render_flow(CART, format)


def test_quoting_of_awkward_labels():
    machine = Basic(stateless('we"ird\\name', lambda x: x))
    dot = render_flow(machine, "dot").text
    dotparse.parse_dot(dot)  # escapes keep it well-formed
    mermaid = render_flow(machine, "mermaid").text
    assert "we'ird" in mermaid  # double quotes are downgraded in labels


# the pieces that escaping, quoting, id repair and marker claims each treat apart
LABEL_PIECES = ('"', "\\", "\n", "7", "-", ".", "_", "__", "initial", "ü", "日本", "a", "b")
labels = st.lists(st.sampled_from(LABEL_PIECES), min_size=1, max_size=4).map("".join)


@st.composite
def leaves(draw, name):
    vertices = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    groups = [(source, draw(st.lists(st.sampled_from(vertices), max_size=3)))
              for source in vertices]
    return _leaf(name, groups, draw(st.sampled_from(vertices)))


@st.composite
def trees(draw):
    """A tree of 1 to 4 leaves, each pair of neighbours joined by any of the five composites."""
    names = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    nodes = [draw(leaves(name)) for name in names]
    while len(nodes) > 1:
        at = draw(st.integers(0, len(nodes) - 2))
        kind = draw(st.sampled_from([Sequential, Parallel, Alternative, Feedback, Kleisli]))
        nodes[at:at + 2] = [kind(nodes[at], nodes[at + 1])]
    return nodes[0]


@settings(max_examples=300, deadline=None)
@given(trees())
def test_one_pass_printers_match_the_per_label_ones(tree):
    # a label or leaf name may hold a newline, which the one-pass printers split on
    for format in ("dot", "mermaid"):
        assert render_flow(tree, format).text == render_reference.flow(tree, format)
        for leaf in tree.leaves():
            assert render_base(leaf, format).text == render_reference.base(leaf, format)
