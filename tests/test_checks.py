"""The provenance checker on evidence the producers did not build.

``provenance_holds`` must reject provenance that names the wrong original
vertex, and return False, not raise, on evidence that does not fit its
class.  The certificates the program builds pass it: see
``tests/test_conjgraph.py``.
"""

from gogh.balance import GroupoidNode, build_groupoid
from gogh.checks import provenance_holds
from gogh.cli import parse
from gogh.conjgraph import ConjugacyGraph, build_conjugacy_graph


def _only_class_graph(graph):
    (cls,) = build_groupoid(graph).classes
    return build_conjugacy_graph(graph, cls)


def test_provenance_naming_the_wrong_original_vertex_fails():
    g = parse(
        "vertex u free 2\n"
        "vertex v free 2\n"
        'edge e from=u to=v img_from="u.1^2" img_to="v.1^3"\n'
    )
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
