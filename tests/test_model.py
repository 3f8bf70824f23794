import random
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import gogh.model
from conftest import F2_EXAMPLE_TEXT, TREFOIL_TEXT, random_graph, random_tree_graph
from gogh.balance import build_groupoid
from gogh.cli import parse, run, serialize
from gogh.model import (
    DihedralInfinite,
    EdgeRecord,
    Free,
    GraphOfGroups,
    ValidationError,
    VertexWord,
    edge_attachments,
    edge_endpoints,
    make_graph,
    reverse_step,
    spanning_tree,
    tree_steps,
)


def test_single_vertex_is_valid():
    g = make_graph([("v", Free(1))], [])
    assert spanning_tree(g) == frozenset()


def test_reflection_attachment_rejected():
    with pytest.raises(ValidationError) as err:
        make_graph(
            [("d", DihedralInfinite())],
            [
                EdgeRecord(
                    "e",
                    "d",
                    "d",
                    VertexWord("d", (("r", 2),)),
                    VertexWord("d", (("s", 1),)),
                )
            ],
        )
    assert err.value.code == "FiniteOrderAttachment"


def test_two_components_rejected():
    with pytest.raises(ValidationError) as err:
        make_graph([("u", Free(1)), ("v", Free(1))], [])
    assert err.value.code == "DisconnectedGraph"


def test_empty_graph_rejected():
    with pytest.raises(ValidationError) as err:
        make_graph([], [])
    assert err.value.code == "DisconnectedGraph"


def test_rank_zero_rejected():
    with pytest.raises(ValidationError) as err:
        make_graph([("v", Free(0))], [])
    assert err.value.code == "RankZero"


def test_unknown_generator_rejected():
    # a generator beyond the rank, or an exponent that is not an int, which
    # the pipeline would otherwise reach and fail on with a TypeError
    for letter in [(2, 1), (1, 1.5), (1, Fraction(3, 2)), (1, "2"), (1, 2.0)]:
        with pytest.raises(ValidationError) as err:
            make_graph(
                [("v", Free(1))],
                [EdgeRecord("e", "v", "v", VertexWord("v", (letter,)), VertexWord("v", ((1, 1),)))],
            )
        assert err.value.code == "UnknownGenerator", letter


# -- validation admits only what the checkers accept -----------------------------


@pytest.mark.parametrize("rank", ["2", 1.5, 2.0, True])
def test_a_rank_that_is_no_int_is_rejected(rank):
    """Free("2") used to raise TypeError in validate, and the others to
    validate."""
    with pytest.raises(ValidationError) as err:
        make_graph([("v", Free(rank))], [])
    assert err.value.code == "RankZero"


@pytest.mark.parametrize("kind", ["free", None, Free])
def test_a_vertex_kind_that_is_no_kind_is_rejected(kind):
    """The string "free" used to validate, and hhg_verdict then raised
    AttributeError."""
    with pytest.raises(ValidationError) as err:
        make_graph([("v", kind)], [])
    assert err.value.code == "UnknownVertex"


# -- one-letter attachments ---------------------------------------------------------


def _general_verdict(kind, word, edge, side):
    """(code, message) of the checks a word of any length goes through, or None."""
    try:
        gogh.model._check_letters(kind, word)
        if not gogh.model._attachment_infinite_order(kind, word):
            raise ValidationError(
                "FiniteOrderAttachment", f"edge {edge} {side} attachment has finite order"
            )
    except ValidationError as exc:
        return exc.code, exc.message
    return None


FREE2, DIHEDRAL = Free(2), DihedralInfinite()
# the checkers read generators and exponents as ints exactly and letters as
# a tuple: a bool letter or a list of letters that validated made a NotHHG
# verdict fail its own certificate
ONE_LETTER_CASES = [
    (FREE2, (1, 1), True),
    (FREE2, (2, -3), True),
    (FREE2, (True, 1), False),
    (FREE2, (1, True), False),
    (FREE2, [(1, 3)], False),
    (FREE2, (0, 1), False),
    (FREE2, (3, 1), False),  # rank + 1
    (FREE2, (1, 0), False),
    (FREE2, ("r", 1), False),
    (FREE2, (1.0, 1), False),
    (DIHEDRAL, ("r", 5), True),
    (DIHEDRAL, ("s", 1), False),
    (DIHEDRAL, ("s", 2), False),
    (DIHEDRAL, ("r", 0), False),
    (DIHEDRAL, (1, 1), False),
    (FREE2, (1, 1.5), False),
    (FREE2, (1, Fraction(3, 2)), False),
    (FREE2, (2, "2"), False),
    (DIHEDRAL, ("r", 1.5), False),
    (DIHEDRAL, ("r", Fraction(3, 2)), False),
    (DIHEDRAL, ("r", "2"), False),
    (DIHEDRAL, ("r", True), False),
    (FREE2, ((1, 2), (2, 1.5)), False),  # two letters: the general checks on both sides
    (FREE2, [(1, 2), (2, 1)], False),
]


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("kind, letter, valid", ONE_LETTER_CASES)
def test_one_letter_attachments_get_the_general_verdict(kind, letter, valid, side):
    """validate accepts a valid one-letter word at once; its verdict on every
    one-letter word is the one the general checks give."""
    word = VertexWord("x", letter if isinstance(letter[0], tuple) else (letter,))
    plain = VertexWord("w", ((1, 1),))
    src, tgt = (word, plain) if side == "source" else (plain, word)
    edge = EdgeRecord("e", src.vertex, tgt.vertex, src, tgt)
    want = _general_verdict(kind, word, "e", side)
    try:
        GraphOfGroups((("w", Free(1)), ("x", kind)), (edge,))
        got = None
    except ValidationError as exc:
        got = exc.code, exc.message
    assert got == want
    assert (want is None) == valid


def test_a_letters_tuple_that_passed_is_checked_again_where_it_may_fail():
    """validate checks one letters object once per kind object it meets:
    ((2, 3),) passes at a rank-2 vertex and is checked again, and rejected,
    at a rank-1 vertex; ((1.0, 3),), equal to a tuple that passed, is
    checked, and rejected, too."""
    rank2 = Free(2)
    letters = ((2, 3),)
    loop = EdgeRecord("e", "a", "a", VertexWord("a", letters), VertexWord("a", letters))
    make_graph([("a", rank2)], [loop])
    across = EdgeRecord("f", "a", "b", VertexWord("a", letters), VertexWord("b", letters))
    with pytest.raises(ValidationError) as err:
        make_graph([("a", rank2), ("b", Free(1))], [loop, across])
    assert err.value.code == "UnknownGenerator"
    ints, floats = VertexWord("a", ((1, 3),)), VertexWord("a", ((1.0, 3),))
    with pytest.raises(ValidationError) as err:
        edges = [EdgeRecord("e", "a", "a", ints, ints), EdgeRecord("f", "a", "a", floats, ints)]
        make_graph([("a", rank2)], edges)
    assert err.value.code == "UnknownGenerator"


# -- validation at construction ----------------------------------------------------


def test_direct_construction_validates():
    with pytest.raises(ValidationError) as err:
        GraphOfGroups((("u", Free(1)), ("v", Free(1))), ())
    assert err.value.code == "DisconnectedGraph"
    with pytest.raises(ValidationError) as err:
        GraphOfGroups((("v", Free(1)), ("u", Free(1))), ())
    assert err.value.code == "DuplicateVertex"
    with pytest.raises(ValidationError) as err:
        GraphOfGroups((("v", Free(1)), ("v", Free(1))), ())
    assert err.value.code == "DuplicateVertex"
    a, b = VertexWord("v", ((1, 2),)), VertexWord("v", ((1, 3),))
    e, f = EdgeRecord("e", "v", "v", a, b), EdgeRecord("f", "v", "v", a, b)
    for edges in ((e, e), (f, e)):
        with pytest.raises(ValidationError) as err:
            GraphOfGroups((("v", Free(1)),), edges)
        assert err.value.code == "DuplicateEdge"


def test_records_are_slotted_and_frozen():
    """The model's records and the groupoid's edge classes keep their fields
    in slots: an instance has no __dict__, so no attribute can be added to
    it, not even past the frozen __setattr__.  Assigning or deleting a
    field, or any other name, raises FrozenInstanceError."""
    graph = parse(F2_EXAMPLE_TEXT)
    edge = graph.edges[0]
    records = [
        (Free(2), "rank"),
        (DihedralInfinite(), None),
        (edge.attachment_target, "letters"),
        (edge, "attachment_source"),
        (graph, "edges"),
        (graph, "index"),
        (build_groupoid(graph).classes[0], "edges"),
    ]
    for record, field in records:
        assert not hasattr(record, "__dict__"), type(record)
        with pytest.raises(AttributeError):
            object.__setattr__(record, "note", None)
        for name in ("note", field) if field else ("note",):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
                delattr(record, name)


def test_a_word_is_true_whatever_its_exponents():
    """A VertexWord has no length: its truth value sums no exponents, so an
    exponent beyond a Py_ssize_t cannot raise, and emptiness reads as
    is_identity."""
    huge, empty = VertexWord("v", ((1, 10**30),)), VertexWord("v", ())
    assert bool(huge) and bool(empty)
    assert not huge.is_identity and empty.is_identity


def test_the_index_is_no_part_of_the_graphs_value():
    """index is a declared field outside equality, hashing and repr: two
    parses of one text build two indexes and are equal graphs that hash
    alike."""
    a, b = parse(F2_EXAMPLE_TEXT), parse(F2_EXAMPLE_TEXT)
    assert a.index is not b.index
    assert a == b and hash(a) == hash(b)
    assert "index" not in repr(a)
    assert parse(TREFOIL_TEXT) != a


# a rank-2 loop whose two sides are conjugate: balanced, so HHG
F2_BALANCED_TEXT = """\
vertex v free 2
edge e from=v to=v img_from="v.1^2" img_to="v.2 v.1^2 v.2^-1"
"""


@pytest.mark.parametrize(
    "command, fixture, calls",
    [
        ("verdict", "trefoil", 1),
        ("parametrize", "trefoil", 1),
        ("conjgraph", "trefoil", 1),
        ("verdict", "f2_example", 1),
        ("conjgraph", "f2_example", 2),
        ("verdict", "f2_balanced", 2),
    ],
)
def test_validation_runs_once_per_graph(tmp_path, monkeypatch, command, fixture, calls):
    """Every graph is validated once, when it is built.  The trefoil is a
    graph of 2-ended groups, so it is its own derived graph and only the
    input is built.  A rank-2 vertex gets one new derived graph wherever a
    class is certified or printed: verdict on the unbalanced f2_example
    certifies none, conjgraph prints one, and verdict on f2_balanced
    certifies one."""
    seen = []
    original = gogh.model.validate

    def counting(graph):
        seen.append(graph)
        return original(graph)

    # patch every gogh namespace that holds the function, so a call through
    # any imported name is counted too
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gogh" and getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counting)
    path = tmp_path / f"{fixture}.gog"
    texts = {"trefoil": TREFOIL_TEXT, "f2_example": F2_EXAMPLE_TEXT, "f2_balanced": F2_BALANCED_TEXT}
    path.write_text(texts[fixture])
    code, _ = run([command, str(path)] + (["--class-of", "e"] if command == "conjgraph" else []))
    assert code == 0
    assert len(seen) == calls


def test_spanning_tree_of_path(trefoil):
    assert spanning_tree(trefoil) == frozenset({"e"})


def test_spanning_tree_of_triangle():
    # three vertices in a cycle; BFS from the least vertex takes the two
    # edges incident to it, in id order
    text = """\
vertex a free 1
vertex b free 1
vertex c free 1
edge eA from=a to=b img_from="a.1" img_to="b.1"
edge eB from=a to=c img_from="a.1" img_to="c.1"
edge eC from=b to=c img_from="b.1" img_to="c.1"
"""
    g = parse(text)
    assert spanning_tree(g) == frozenset({"eA", "eB"})


def test_spanning_tree_is_content_function():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng)
        again = parse(serialize(g))
        assert again == g
        assert spanning_tree(again) == spanning_tree(g)


def test_reverse_edge_involution(bs32):
    step = ("e", 1)
    assert reverse_step(reverse_step(step)) == step
    assert edge_endpoints(bs32, step) == tuple(reversed(edge_endpoints(bs32, reverse_step(step))))
    a, b = edge_attachments(bs32, step)
    c, d = edge_attachments(bs32, reverse_step(step))
    assert (a, b) == (d, c)


def restrict(graph, vertex_subset, edge_subset):
    """The graph on a subset of vertices and edges; construction validates it."""
    return make_graph(
        [(v, k) for v, k in graph.vertices if v in vertex_subset],
        [e for e in graph.edges if e.name in edge_subset],
    )


def test_subgraph_full_is_identity(trefoil):
    assert restrict(trefoil, trefoil.vertex_ids(), trefoil.edge_ids()) == trefoil


def test_subgraph_drops_loop(bs32, f2_example):
    for g in (bs32, f2_example):
        smaller = restrict(g, g.vertex_ids(), [])
        assert smaller.edges == ()


def test_subgraph_bridge_removal_rejected(trefoil):
    with pytest.raises(ValidationError) as err:
        restrict(trefoil, trefoil.vertex_ids(), [])
    assert err.value.code == "DisconnectedGraph"


def test_subgraph_closure_on_random_connected_subsets():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng)
        tree = spanning_tree(g)
        keep = [e for e in g.edge_ids() if e in tree or rng.random() < 0.6]
        sub = restrict(g, g.vertex_ids(), keep)
        assert sub.edge_ids() == tuple(keep) and sub.vertices == g.vertices


def test_tree_steps_connect_endpoints():
    rng = random.Random(3)
    for _ in range(20):
        g = random_tree_graph(rng)
        ids = g.vertex_ids()
        u, v = rng.choice(ids), rng.choice(ids)
        pos = u
        for step in tree_steps(g, u, v):
            src, tgt = edge_endpoints(g, step)
            assert src == pos
            pos = tgt
        assert pos == v
