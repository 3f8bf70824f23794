"""The provenance checker on evidence the producers did not build.

``provenance_holds`` must reject provenance that names the wrong original
vertex or a derived graph that holds more than its class, and return
False, not raise, on evidence that does not fit its class.  Every
conjugacy graph the program builds passes it.
"""

import random

import pytest

from conftest import fixture_graphs, random_graph, random_tree_graph
from gogh.balance import EdgeClass, GroupoidNode, build_groupoid
from gogh.checks import provenance_holds
from gogh.cli import parse, serialize
from gogh.conjgraph import ConjugacyGraph, _derived_conjugacy_graph, build_conjugacy_graph

TWO_RANK_TWO_TEXT = (
    "vertex u free 2\n"
    "vertex v free 2\n"
    'edge e from=u to=v img_from="u.1^2" img_to="v.1^3"\n'
)


def _only_class_graph(graph):
    (cls,) = build_groupoid(graph).classes
    return build_conjugacy_graph(graph, cls)


def test_provenance_naming_the_wrong_original_vertex_fails():
    g = parse(TWO_RANK_TWO_TEXT)
    cg = _only_class_graph(g)
    assert provenance_holds(g, cg)
    origin = cg.vertex_origin
    swapped = ConjugacyGraph(cg.graph, cg.edge_class, {"u": origin["v"], "v": origin["u"]})
    # both nodes have the root .1, so only the vertex tells them apart
    assert origin["u"].root == origin["v"].root
    assert not provenance_holds(g, swapped)


def test_provenance_with_a_multi_letter_derived_attachment_fails(f2_example):
    cg = _only_class_graph(f2_example)
    assert provenance_holds(f2_example, cg)
    (name,) = cg.vertex_origin
    derived = parse(
        f"vertex {name} free 2\n"
        f'edge e from={name} to={name} img_from="{name}.1^3" img_to="{name}.1 {name}.2"\n'
    )
    evidence = ConjugacyGraph(derived, cg.edge_class, cg.vertex_origin)
    assert not provenance_holds(f2_example, evidence)


def test_provenance_with_a_member_edge_missing_from_the_derived_graph_fails(f2_example):
    cg = _only_class_graph(f2_example)
    (name,) = cg.vertex_origin
    derived = parse(f"vertex {name} free 1\n")
    evidence = ConjugacyGraph(derived, cg.edge_class, cg.vertex_origin)
    assert not provenance_holds(f2_example, evidence)


def test_provenance_with_no_vertex_origin_fails(f2_example):
    cg = _only_class_graph(f2_example)
    assert not provenance_holds(f2_example, ConjugacyGraph(cg.graph, cg.edge_class, {}))


def test_provenance_with_a_member_edge_missing_from_the_original_graph_fails(f2_example):
    cg = _only_class_graph(f2_example)
    assert not provenance_holds(parse("vertex v free 2\n"), cg)


def test_provenance_with_a_root_outside_the_vertex_group_fails(dihedral_loop):
    cg = _only_class_graph(dihedral_loop)
    (name,) = cg.vertex_origin
    free_root = {name: GroupoidNode("d", ((1, 1),))}
    assert not provenance_holds(dihedral_loop, ConjugacyGraph(cg.graph, cg.edge_class, free_root))


def test_provenance_with_a_derived_vertex_or_edge_outside_the_class_fails():
    g = parse(TWO_RANK_TWO_TEXT)
    cg = _only_class_graph(g)
    assert provenance_holds(g, cg)
    text = serialize(cg.graph)
    # a dihedral vertex w with no origin and an edge f that is no member
    outside = parse(text + 'vertex w dihedral\nedge f from=v to=w img_from="v.1" img_to="w.r"\n')
    assert not provenance_holds(g, ConjugacyGraph(outside, cg.edge_class, cg.vertex_origin))
    # an origin for w does not help: u and v yield free vertices of rank one
    origin = {**cg.vertex_origin, "w": cg.vertex_origin["v"]}
    assert not provenance_holds(g, ConjugacyGraph(outside, cg.edge_class, origin))
    # an extra edge between the class's own vertices
    extra = parse(text + 'edge f from=v to=u img_from="v.1" img_to="u.1"\n')
    assert not provenance_holds(g, ConjugacyGraph(extra, cg.edge_class, cg.vertex_origin))


def test_provenance_with_a_derived_vertex_of_the_wrong_kind_fails():
    g = parse(TWO_RANK_TWO_TEXT)
    cg = _only_class_graph(g)
    # u.r^2 has the exponent of u.1^2, so only the kind of u is wrong
    dihedral_u = parse(
        "vertex u dihedral\nvertex v free 1\n"
        'edge e from=u to=v img_from="u.r^2" img_to="v.1^3"\n'
    )
    assert not provenance_holds(g, ConjugacyGraph(dihedral_u, cg.edge_class, cg.vertex_origin))


# one class of two edges: both attachments at u are conjugate powers of u.1
TWO_EDGE_CLASS_TEXT = (
    "vertex u free 2\n"
    "vertex v free 2\n"
    'edge e from=u to=v img_from="u.1^2" img_to="v.1^3"\n'
    'edge f from=v to=u img_from="v.1^2" img_to="u.2 u.1^3 u.2^-1"\n'
)


@pytest.mark.parametrize(
    "edges", [("e", "e", "f"), ("e", "f", "f"), ("e",), ("f",), ("f", "e"), ()],
    ids=["repeat-e", "repeat-f", "omit-f", "omit-e", "out-of-order", "empty"],
)
def test_provenance_with_malformed_class_edges_fails(edges):
    """The class's edges must be the derived graph's, each once and sorted."""
    g = parse(TWO_EDGE_CLASS_TEXT)
    cg = _only_class_graph(g)
    assert cg.edge_class.edges == ("e", "f") and provenance_holds(g, cg)
    c = cg.edge_class
    cls = EdgeClass(c.index, edges, c.nodes, c.verdict, c.potentials, c.occurrences)
    assert not provenance_holds(g, ConjugacyGraph(cg.graph, cls, cg.vertex_origin))


@pytest.mark.parametrize(
    "record", ["missing", None, "one side", "three sides", "source alone", "sides of two", "string"]
)
def test_provenance_with_a_malformed_edge_record_fails(record):
    """An edge with no record, or a record that is no (source, target) pair
    of attachment data, fails the check instead of raising."""
    g = parse(TWO_EDGE_CLASS_TEXT)
    cg = _only_class_graph(g)
    occurrences = dict(cg.edge_class.occurrences)
    source, target = occurrences["f"]
    bad = {
        None: None,
        "one side": (source,),
        "three sides": (source, target, target),
        "source alone": source,
        "sides of two": (source[:2], target[:2]),
        "string": "st",
    }
    if record == "missing":
        del occurrences["f"]
    else:
        occurrences["f"] = bad[record]
    c = cg.edge_class
    cls = EdgeClass(c.index, c.edges, c.nodes, c.verdict, c.potentials, occurrences)
    assert not provenance_holds(g, ConjugacyGraph(cg.graph, cls, cg.vertex_origin))


def test_every_built_conjugacy_graph_passes():
    """Both the 2-ended shortcut and the general construction, on the
    fixtures and on the seeded graphs ``tests/test_conjgraph.py`` walks."""
    graphs = list(fixture_graphs().values())
    for seed, count in ((71, 40), (73, 40), (79, 25), (83, 50), (89, 30)):
        rng = random.Random(seed)
        graphs += [random_graph(rng) for _ in range(count)]
    rng = random.Random(97)
    graphs += [
        random_tree_graph(rng) if i % 4 == 0 else random_graph(rng, rank2_prob=0.0)
        for i in range(240)
    ]
    shortcuts = 0
    for g in graphs:
        for cls in build_groupoid(g).classes:
            cg = build_conjugacy_graph(g, cls)
            shortcuts += cg.graph is g
            assert provenance_holds(g, cg), serialize(g)
            assert provenance_holds(g, _derived_conjugacy_graph(g, cls)), serialize(g)
    assert shortcuts >= 200
