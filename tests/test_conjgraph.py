import random

from conftest import random_graph, random_tree_graph
from gogh.balance import Unbalanced, build_groupoid
from gogh.checks import provenance_holds
from gogh.cli import parse, serialize
from gogh.conjgraph import _derived_conjugacy_graph, build_conjugacy_graph
from gogh.model import DihedralInfinite, Free, validate


def test_single_edge_single_class(bs32):
    classes = build_groupoid(bs32).classes
    assert len(classes) == 1
    assert classes[0].edges == ("e",)


def test_f2_sides_commensurable_one_class(f2_example):
    classes = build_groupoid(f2_example).classes
    assert len(classes) == 1


def test_two_independent_loops_two_classes():
    g = parse(
        'vertex v free 2\n'
        'edge e1 from=v to=v img_from="v.1^2" img_to="v.1^3"\n'
        'edge e2 from=v to=v img_from="v.2^2" img_to="v.2^5"\n'
    )
    classes = build_groupoid(g).classes
    assert len(classes) == 2
    assert classes[0].edges == ("e1",)
    assert classes[1].edges == ("e2",)


def test_conjugacy_graph_of_f2_example(f2_example):
    cg = build_conjugacy_graph(f2_example, build_groupoid(f2_example).classes[0])
    derived = cg.graph
    assert len(derived.vertices) == 1
    name, kind = derived.vertices[0]
    assert kind == Free(1)
    (edge,) = derived.edges
    assert edge.source == edge.target == name
    exps = {abs(edge.attachment_source.letters[0][1]), abs(edge.attachment_target.letters[0][1])}
    assert exps == {2, 3}
    # the derived vertex points at the class node, and the nontrivial
    # conjugator is b on the target side
    assert list(cg.vertex_origin.values()) == list(cg.edge_class.nodes)
    (_, _, conj_s), (_, _, conj_t) = cg.edge_class.occurrences["e"]
    assert conj_t == ((2, 1),)
    assert conj_s == ()


def test_conjugacy_graph_of_bs32_is_isomorphic_copy(bs32):
    cg = build_conjugacy_graph(bs32, build_groupoid(bs32).classes[0])
    assert serialize(cg.graph) == serialize(bs32)


def test_conjugacy_graph_of_trefoil(trefoil):
    cg = build_conjugacy_graph(trefoil, build_groupoid(trefoil).classes[0])
    derived = cg.graph
    assert [k for _, k in derived.vertices] == [Free(1), Free(1)]
    (edge,) = derived.edges
    exps = {abs(edge.attachment_source.letters[0][1]), abs(edge.attachment_target.letters[0][1])}
    assert exps == {2, 3}


def test_class_spanning_two_loops_through_conjugation():
    # both loop attachments are conjugate powers of the same root, so the
    # four occurrences collapse into one class and one derived vertex
    g = parse(
        "vertex v free 2\n"
        'edge e1 from=v to=v img_from="v.1^2" img_to="v.2 v.1^3 v.2^-1"\n'
        'edge e2 from=v to=v img_from="v.2 v.1^4 v.2^-1" img_to="v.1^6"\n'
    )
    (cls,) = build_groupoid(g).classes
    assert cls.edges == ("e1", "e2")
    cg = build_conjugacy_graph(g, cls)
    assert serialize(cg.graph) == (
        "vertex v free 1\n"
        'edge e1 from=v to=v img_from="v.1^2" img_to="v.1^3"\n'
        'edge e2 from=v to=v img_from="v.1^4" img_to="v.1^6"\n'
    )
    assert provenance_holds(g, cg)


def test_dihedral_vertices_stay_dihedral(dihedral_loop):
    cg = build_conjugacy_graph(dihedral_loop, build_groupoid(dihedral_loop).classes[0])
    assert [k for _, k in cg.graph.vertices] == [DihedralInfinite()]


def test_derived_graphs_validate_and_are_two_ended():
    rng = random.Random(71)
    for _ in range(40):
        g = random_graph(rng)
        for cls in build_groupoid(g).classes:
            cg = build_conjugacy_graph(g, cls)
            validate(cg.graph)
            for _, kind in cg.graph.vertices:
                assert isinstance(kind, DihedralInfinite) or kind.rank == 1


def test_provenance_identities_hold():
    rng = random.Random(73)
    for _ in range(40):
        g = random_graph(rng)
        for cls in build_groupoid(g).classes:
            cg = build_conjugacy_graph(g, cls)
            assert provenance_holds(g, cg)


def test_rebuild_is_deterministic():
    rng = random.Random(79)
    for _ in range(25):
        g = random_graph(rng)
        for cls in build_groupoid(g).classes:
            first = build_conjugacy_graph(g, cls)
            second = build_conjugacy_graph(g, cls)
            assert first.graph == second.graph
            assert first.vertex_origin == second.vertex_origin
            assert first.edge_class == second.edge_class


def test_balance_transfers_to_conjugacy_graph():
    rng = random.Random(83)
    for _ in range(50):
        g = random_graph(rng)
        groupoid = build_groupoid(g)
        for e in g.edge_ids():
            cls = groupoid.class_of(e)
            cg = build_conjugacy_graph(g, cls)
            lhs = isinstance(cls.verdict, Unbalanced)
            rhs = isinstance(build_groupoid(cg.graph).verdict, Unbalanced)
            assert lhs == rhs


def test_classes_partition_occurrences():
    rng = random.Random(89)
    for _ in range(30):
        g = random_graph(rng)
        seen = []
        for cls in build_groupoid(g).classes:
            seen.extend((e, side) for e in cls.edges for side in ("source", "target"))
        expected = sorted((e, side) for e in g.edge_ids() for side in ("source", "target"))
        assert sorted(seen) == expected


def test_two_ended_graph_is_its_own_derived_graph():
    """A connected graph of rank-1 and dihedral vertices with an edge is
    returned as its own derived graph, with the provenance the general
    construction computes."""
    rng = random.Random(97)
    verdicts = []
    for i in range(240):
        # trees are balanced; graphs with cycles mostly are not
        g = random_tree_graph(rng) if i % 4 == 0 else random_graph(rng, rank2_prob=0.0)
        if not g.edges:
            continue
        (cls,) = build_groupoid(g).classes
        cg = build_conjugacy_graph(g, cls)
        general = _derived_conjugacy_graph(g, cls)
        assert cg.graph is g
        assert general.graph == g
        assert cg.vertex_origin == general.vertex_origin
        assert cg.edge_class == general.edge_class
        assert provenance_holds(g, cg)
        verdicts.append(isinstance(cls.verdict, Unbalanced))
    assert len(verdicts) >= 200
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_rank_two_vertex_gets_a_new_derived_graph(f2_example):
    (cls,) = build_groupoid(f2_example).classes
    cg = build_conjugacy_graph(f2_example, cls)
    assert cg.graph is not f2_example
    assert cg.graph == _derived_conjugacy_graph(f2_example, cls).graph
