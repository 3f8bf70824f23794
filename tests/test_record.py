"""The records that ``model.record`` builds: value, copies and identity.

A record's ``__eq__`` is code inside the trusted base:
``provenance_holds`` compares vertex kinds, ``Free`` and
``DihedralInfinite`` records, with ``!=``.  So every compared field of
every record kind must count, and a field that lies outside the value
(``GraphOfGroups.index``, the ``occurrences`` maps) must count nowhere.  The producers' results compare by identity.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from conftest import BS32_TEXT, F2_EXAMPLE_TEXT, TREFOIL_TEXT
from gogh.balance import Balanced, build_groupoid
from gogh.certify import BSWitness, almost_bs_witness, distortion_certificate
from gogh.cli import parse
from gogh.conjgraph import build_conjugacy_graph
from gogh.dihedral import DihedralElement
from gogh.model import DihedralInfinite, EdgeRecord, Free, VertexWord, tree_steps
from gogh.parametrize import hhg_verdict, parametrize
from gogh.words import to_path_form


def _vw(vertex, *letters):
    return VertexWord(vertex, tuple(letters))


def _values():
    """One instance of each value record kind, with a replacement for each
    compared field that keeps the instance valid."""
    bs32 = parse(BS32_TEXT)
    (cls,) = build_groupoid(bs32).classes
    unbalanced = cls.verdict
    witness = almost_bs_witness(bs32, unbalanced)
    certificate = distortion_certificate(bs32, witness, 2)
    trefoil = parse(TREFOIL_TEXT)
    path = to_path_form(bs32, [("t", "e", 1), ("g", "v", 1, 2)])
    v5 = _vw("v", (1, 5))
    return [
        (Free(2), {"rank": 3}),
        (DihedralInfinite(), {}),
        (_vw("v", (1, 2)), {"vertex": "w", "letters": ((1, 3),)}),
        (
            bs32.edges[0],
            {"name": "f", "source": "w", "target": "w", "attachment_source": v5, "attachment_target": v5},
        ),
        (
            bs32,
            {
                "vertices": (("v", Free(2)),),
                "edges": (EdgeRecord("e", "v", "v", _vw("v", (1, 2)), _vw("v", (1, 3))),),
            },
        ),
        (DihedralElement(1, 3), {"eps": 0, "k": 4}),
        (path, {"base": "w", "head": v5, "tail": ()}),
        (Balanced(), {}),
        (unbalanced, {"cycle": (), "modulus": Fraction(5, 2)}),
        (
            cls,
            {"index": 1, "edges": ("f",), "nodes": (), "verdict": Balanced(), "potentials": ((1, 2),)},
        ),
        (witness, {"a": v5, "s": (), "i": 5, "j": 7}),
        (certificate.rows[0], {"k": 5, "exponent": 7, "length_bound": 9, "ratio": Fraction(1, 3)}),
        (certificate, {"witness": BSWitness(v5, (), 5, 7), "rows": ()}),
        (parametrize(trefoil), {"vertex_images": (), "stable_images": (("e", DihedralElement(1, 0)),)}),
    ]


VALUES = _values()
IDS = [type(x).__name__ for x, _ in VALUES]


def _rebuilt(x, changes):
    return type(x)(*(changes.get(name, getattr(x, name)) for name in type(x).__match_args__))


@pytest.mark.parametrize("x, changes", VALUES, ids=IDS)
def test_each_compared_field_counts(x, changes):
    """Two instances that differ in exactly one compared field are unequal,
    either way round; the table covers every __init__ field but a map of
    occurrences."""
    assert set(changes) == set(type(x).__match_args__) - {"occurrences"}
    same = _rebuilt(x, {})
    assert same == x and not same != x and hash(same) == hash(x)
    for name, value in changes.items():
        other = _rebuilt(x, {name: value})
        assert other != x and x != other and not other == x, name


def test_records_of_two_kinds_are_unequal():
    """__eq__ compares instances of one class only, even with equal fields."""
    assert DihedralInfinite() == DihedralInfinite()
    assert DihedralInfinite() != Balanced() and Balanced() != DihedralInfinite()
    assert Free(1) != (1,) and DihedralElement(0, 1) != (0, 1)


@pytest.mark.parametrize("x", [x for x, _ in VALUES], ids=IDS)
def test_pickle_and_copy_round_trips(x):
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_a_loaded_graph_has_its_own_working_index():
    graph = parse(TREFOIL_TEXT)
    for loaded in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert loaded.index is not graph.index
        assert loaded.kind("u") == Free(1) and loaded.edge("e") == graph.edge("e")
        assert tree_steps(loaded, "u", "v") == tree_steps(graph, "u", "v") == (("e", 1),)


def test_results_compare_by_identity():
    """The producers' results: two builds from one graph are unequal, and a
    pickled copy is another object with the same repr."""
    f2, trefoil = parse(F2_EXAMPLE_TEXT), parse(TREFOIL_TEXT)
    (cls,) = build_groupoid(trefoil).classes
    for build in (
        lambda: build_groupoid(trefoil),
        lambda: build_conjugacy_graph(trefoil, cls),
        lambda: hhg_verdict(trefoil),
        lambda: hhg_verdict(trefoil).certificates[0],
        lambda: hhg_verdict(f2),
    ):
        x, y = build(), build()
        assert x == x and x != y and repr(x) == repr(y)
        loaded = pickle.loads(pickle.dumps(x))
        assert type(loaded) is type(x) and loaded != x and repr(loaded) == repr(x)


def test_index_and_occurrences_are_outside_the_value():
    """Neither ==, hash nor repr reads them."""
    graph = parse(F2_EXAMPLE_TEXT)
    bare = parse(F2_EXAMPLE_TEXT)
    object.__setattr__(bare, "index", None)
    pairs = [(graph, bare)]
    (cls,) = build_groupoid(graph).classes
    pairs.append((cls, _rebuilt(cls, {"occurrences": {}})))
    pairs.append((cls.verdict, _rebuilt(cls.verdict, {"occurrences": {}})))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert "occurrences" not in repr(x)
    assert "index" not in repr(graph)


def test_a_witness_is_its_four_fields_and_derives_its_transcript():
    """BSWitness(a, s, i, j) is a value of its four fields; the transcript is
    read, not stored: the empty path word at a's vertex, equal on each read."""
    a = _vw("v", (1, 1))
    w = BSWitness(a, (("t", "e", 1),), 2, 3)
    assert type(w).__match_args__ == ("a", "s", "i", "j")
    same, other = BSWitness(a, (("t", "e", 1),), 2, 3), BSWitness(a, (), 2, 3)
    assert w == same and hash(w) == hash(same) and w != other
    assert repr(w) == "BSWitness(a=VertexWord(vertex='v', letters=((1, 1),)), s=(('t', 'e', 1),), i=2, j=3)"
    for y in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(w)):
        assert y == w and hash(y) == hash(w) and repr(y) == repr(w)
    t = w.transcript
    assert t.base == "v" and t.tail == () and t.head.is_identity and t.head.vertex == a.vertex
    assert w.transcript == t
