"""The provenance and witness checkers on evidence the producers did not
build.

``provenance_holds`` must reject provenance that names the wrong original
vertex or a derived graph that holds more than its class, and return
False, not raise, on evidence that does not fit its class.  Every
conjugacy graph the program builds passes it.  ``witness_holds`` must
accept every witness the program builds, and the valid witnesses derived
from one, and reject each single mutation of one, reporting it, not
raising.
"""

import json
import random
from pathlib import Path

import pytest

from conftest import (
    BS32_TEXT,
    F2_EXAMPLE_TEXT,
    arc_conjugator,
    edge_arc,
    fixture_graphs,
    multi_letter_cycle,
    random_graph,
    random_tree_graph,
)
from gogh.balance import EdgeClass, GroupoidNode, Unbalanced, build_groupoid
from gogh.certify import BSWitness, almost_bs_witness, relation_tokens
from gogh.checks import provenance_holds, witness_holds
from gogh.cli import parse, serialize
from gogh.conjgraph import ConjugacyGraph, _derived_conjugacy_graph, build_conjugacy_graph
from gogh.freewords import inv_letters
from gogh.model import DihedralInfinite, EdgeRecord, Free, GoghError, VertexWord, make_graph
from gogh.words import is_trivial
from oracles import vw_mul, vw_pow

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
    "record",
    [
        "missing", None, "one side", "three sides", "source alone", "sides of two", "string",
        "no source conjugator", "no target conjugator", "string conjugator",
    ],
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
        "no source conjugator": (source[:2] + (None,), target),
        "no target conjugator": (source, target[:2] + (None,)),
        "string conjugator": (source, target[:2] + ("u.2",)),
    }
    if record == "missing":
        del occurrences["f"]
    else:
        occurrences["f"] = bad[record]
    c = cg.edge_class
    cls = EdgeClass(c.index, c.edges, c.nodes, c.verdict, c.potentials, occurrences)
    assert not provenance_holds(g, ConjugacyGraph(cg.graph, cls, cg.vertex_origin))


@pytest.mark.parametrize(
    "origin", ["v", ("v", ((1, 1),)), GroupoidNode(["v"], ((1, 1),))], ids=["string", "pair", "list-vertex"]
)
def test_provenance_with_an_origin_that_is_no_node_fails(f2_example, origin):
    cg = _only_class_graph(f2_example)
    (name,) = cg.vertex_origin
    assert not provenance_holds(f2_example, ConjugacyGraph(cg.graph, cg.edge_class, {name: origin}))


def test_provenance_with_a_conjugator_outside_the_vertex_group_fails(trefoil):
    """The letters u.5 u.5^-1 cancel, but u has rank one: the conjugator's
    letters are no letters of its vertex group, so the record does not
    rebuild u.1^2."""
    cg = _only_class_graph(trefoil)
    assert provenance_holds(trefoil, cg)
    c = cg.edge_class
    (node, n, _), target = c.occurrences["e"]
    occurrences = {"e": ((node, n, ((5, 1), (5, -1))), target)}
    cls = EdgeClass(c.index, c.edges, c.nodes, c.verdict, c.potentials, occurrences)
    assert not provenance_holds(trefoil, ConjugacyGraph(cg.graph, cls, cg.vertex_origin))


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


# -- the witness checker -----------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"

# a 3-cycle of rank-2 vertices, each attached by v.1^k and v.2 v.1^k v.2^-1
RANK2_CYCLE_TEXT = """\
vertex a free 2
vertex b free 2
vertex c free 2
edge e0 from=a to=b img_from="a.2 a.1^3 a.2^-1" img_to="b.1^2"
edge e1 from=b to=c img_from="b.2 b.1 b.2^-1" img_to="c.1"
edge e2 from=c to=a img_from="c.2 c.1^5 c.2^-1" img_to="a.1^5"
"""

# a 3-cycle through two dihedral vertices, modulus 3/2 up to sign
DIHEDRAL_CYCLE_TEXT = """\
vertex d dihedral
vertex v free 1
vertex w dihedral
edge e0 from=d to=v img_from="d.r^3" img_to="v.1^-2"
edge e1 from=v to=w img_from="v.1" img_to="w.r"
edge e2 from=w to=d img_from="w.r^2" img_to="d.r^2"
"""

WITNESS_TEXTS = {
    "bs32": BS32_TEXT,
    "f2_example": F2_EXAMPLE_TEXT,
    "rank2_cycle": RANK2_CYCLE_TEXT,
    "dihedral_cycle": DIHEDRAL_CYCLE_TEXT,
    "multi_letter_cycle": multi_letter_cycle(3),
}


def _evidence(text):
    """(graph, witness, cycle, occurrences) of the graph's verdict."""
    graph = parse(text)
    verdict = build_groupoid(graph).verdict
    return graph, almost_bs_witness(graph, verdict), verdict.cycle, verdict.occurrences


def _conjugator(cycle, occurrences) -> tuple:
    """s rebuilt test-side from the records: each (label, sign) step's
    conjugator, last step first."""
    return tuple(tok for step in reversed(cycle) for tok in arc_conjugator(occurrences, *step))


def _with_record(occurrences, label, side, **change) -> dict:
    """occurrences with one side's (node, n, g) record changed."""
    out = dict(occurrences)
    sides = list(out[label])
    node, n, g = sides[side]
    sides[side] = (change.get("node", node), change.get("n", n), change.get("g", g))
    out[label] = tuple(sides)
    return out


def _replaced(w, **change) -> BSWitness:
    """The witness w with the named fields changed."""
    fields = {"a": w.a, "s": w.s, "i": w.i, "j": w.j}
    return BSWitness(**{**fields, **change})


def _first_sign(cycle, sign) -> tuple:
    """The cycle with its first step's sign replaced."""
    return ((cycle[0][0], sign),) + cycle[1:]


def _ones_as_true(s) -> tuple:
    """The tokens s with True for each int 1 they hold."""
    return tuple(tuple(True if type(x) is int and x == 1 else x for x in tok) for tok in s)


def _near(step) -> int:
    """The index of a (label, sign) step's near side in its edge's
    (source, target) record."""
    return 1 if step[1] > 0 else 0


def _relation_fits(witness) -> bool:
    """Whether s a^i s^-1 a^-j written out in letters is small enough to
    Britton-reduce here."""
    return (abs(witness.i) + abs(witness.j)) * len(witness.a.letters) <= 20_000


def test_the_checker_accepts_every_golden_witness():
    """Every unbalanced class of every golden graph, the letter-level relation
    Britton-reducing to the identity too where it fits."""
    seen = oracle = 0
    for case in sorted(GOLDEN.glob("*.json")):
        try:
            graph = parse(json.loads(case.read_text(encoding="utf-8"))["text"])
        except GoghError:
            continue
        for cls in build_groupoid(graph).classes:
            if not isinstance(cls.verdict, Unbalanced):
                continue
            w = almost_bs_witness(graph, cls.verdict)
            ok, report = witness_holds(graph, w, cls.verdict.cycle, cls.verdict.occurrences)
            assert ok, (case.stem, report)
            seen += 1
            if _relation_fits(w):
                assert is_trivial(graph, relation_tokens(w.a, w.s, w.i, w.j)), case.stem
                oracle += 1
    assert seen >= 150 and oracle >= 150, (seen, oracle)


@pytest.mark.parametrize("name", WITNESS_TEXTS)
def test_the_checker_accepts_the_valid_witnesses_derived_from_one(name):
    """The witness as built, its s rebuilt from the records, a replaced by
    a power of itself, (i, j) scaled, and every record's conjugator
    multiplied by a power of its root, with s rebuilt to match: each is a
    valid witness of the same cycle."""
    graph, w, cycle, occurrences = _evidence(WITNESS_TEXTS[name])
    assert witness_holds(graph, w, cycle, occurrences) == (True, [])
    assert w.s == _conjugator(cycle, occurrences)
    kind = graph.kind(w.a.vertex)
    derived = [_replaced(w, a=vw_pow(kind, w.a, k)) for k in (2, -1)]
    derived.append(_replaced(w, i=3 * w.i, j=3 * w.j))
    for v in derived:
        assert witness_holds(graph, v, cycle, occurrences) == (True, []), (name, v)
        assert is_trivial(graph, relation_tokens(v.a, v.s, v.i, v.j)), (name, v)
    shifted = dict(occurrences)
    for label, sides in occurrences.items():
        new_sides = []
        for node, n, g in sides:
            side_kind = graph.kind(node.vertex)
            root = VertexWord(node.vertex, node.root)
            shifted_g = vw_mul(side_kind, VertexWord(node.vertex, g), vw_pow(side_kind, root, 2))
            new_sides.append((node, n, shifted_g.letters))
        shifted[label] = tuple(new_sides)
    moved = _replaced(w, s=_conjugator(cycle, shifted))
    assert moved.s != w.s or name == "bs32"
    assert witness_holds(graph, moved, cycle, shifted) == (True, []), name
    assert is_trivial(graph, relation_tokens(moved.a, moved.s, moved.i, moved.j)), name


def _with_attachment(graph, label, side):
    """graph with one side of an edge attached by another word: a one-letter
    image squared, a longer one inverted."""
    edges = []
    for e in graph.edges:
        if e.name == label:
            att = (e.attachment_source, e.attachment_target)[side]
            if len(att.letters) == 1:
                ((x, k),) = att.letters
                other = VertexWord(att.vertex, ((x, 2 * k),))
            else:
                other = VertexWord(att.vertex, inv_letters(att.letters))
            sides = (other, e.attachment_target) if side == 0 else (e.attachment_source, other)
            e = EdgeRecord(e.name, e.source, e.target, *sides)
        edges.append(e)
    return make_graph(graph.vertices, edges)


def _mutations(graph, w, cycle, occurrences):
    """(name, graph, witness, cycle, occurrences): each one change to valid
    evidence that leaves it no certificate of its relation.  A mutated
    record, and a mutated order of arcs, comes with s rebuilt to match, so
    that the lemma or the chain is what fails."""
    for mutation in _evidence_mutations(graph, w, cycle, occurrences):
        yield mutation[0], graph, *mutation[1:]
    near = _near(cycle[0])
    yield "an attachment of the graph", _with_attachment(graph, cycle[0][0], near), w, cycle, occurrences


def _evidence_mutations(graph, w, cycle, occurrences):
    """The mutations of _mutations that keep the graph, without it."""
    first, last = cycle[0], cycle[-1]
    for position in sorted({0, len(cycle) - 1}):
        label, sign = cycle[position]
        flipped = cycle[:position] + ((label, -sign),) + cycle[position + 1 :]
        yield f"arc {position} sign flipped", w, flipped, occurrences
    yield "arc 0 sign True", w, _first_sign(cycle, True), occurrences
    for delta in (1, -1):
        near = _near(first)
        n = occurrences[first[0]][near][1]
        changed = _with_record(occurrences, first[0], near, n=n + delta)
        yield f"entry exponent {delta:+d}", w, cycle, changed
        far = 1 - near
        n = occurrences[last[0]][far][1]
        changed = _with_record(occurrences, last[0], far, n=n + delta)
        yield f"exit exponent {delta:+d}", w, cycle, changed
    s = list(w.s)
    for k in range(len(s)):
        yield f"s token {k} dropped", _replaced(w, s=tuple(s[:k] + s[k + 1 :])), cycle, occurrences
        if k + 1 < len(s) and s[k] != s[k + 1]:
            swapped = s[:k] + [s[k + 1], s[k]] + s[k + 2 :]
            yield f"s tokens {k}, {k + 1} swapped", _replaced(w, s=tuple(swapped)), cycle, occurrences
        tok = s[k]
        inverse = ("t", tok[1], -tok[2]) if tok[0] == "t" else ("g", tok[1], tok[2], -tok[3])
        inverted = tuple(s[:k] + [inverse] + s[k + 1 :])
        yield f"s token {k} inverted", _replaced(w, s=inverted), cycle, occurrences
    kind = graph.kind(w.a.vertex)
    yield "a trivial", _replaced(w, a=VertexWord(w.a.vertex, ())), cycle, occurrences
    yield "a at another vertex", _replaced(w, a=VertexWord("elsewhere", w.a.letters)), cycle, occurrences
    if kind == Free(2):
        other = 2 if w.a.letters[-1][0] == 1 else 1
        a = vw_mul(kind, w.a, VertexWord(w.a.vertex, ((other, 1),)))
        yield "a times another generator", _replaced(w, a=a), cycle, occurrences
    yield "i = j = 0", _replaced(w, i=0, j=0), cycle, occurrences
    yield "j = i", _replaced(w, j=w.i), cycle, occurrences
    yield "j = -i", _replaced(w, j=-w.i), cycle, occurrences
    yield "j + 1", _replaced(w, j=w.j + 1), cycle, occurrences
    yield "i + 1", _replaced(w, i=w.i + 1), cycle, occurrences
    if len(cycle) > 1:
        shorter = cycle[:-1]
        yield "last arc dropped", _replaced(w, s=_conjugator(shorter, occurrences)), shorter, occurrences
        swapped = (cycle[1], cycle[0]) + cycle[2:]
        yield "arcs 0, 1 swapped", _replaced(w, s=_conjugator(swapped, occurrences)), swapped, occurrences
    if len(cycle) > 2:
        swapped = (cycle[0], cycle[2], cycle[1]) + cycle[3:]
        yield "arcs 1, 2 swapped", _replaced(w, s=_conjugator(swapped, occurrences)), swapped, occurrences
    # a conjugator outside the centralizer of its root: another generator
    # of a rank-2 vertex, or the reflection of a dihedral one
    for label, _ in cycle:
        for side in (0, 1):
            node, n, g = occurrences[label][side]
            side_kind = graph.kind(node.vertex)
            if side_kind == Free(1):
                continue  # its every conjugator centralizes the root
            letter = ("s", 1) if side_kind == DihedralInfinite() else (2 if node.root[0][0] == 1 else 1, 1)
            bad = _with_record(occurrences, label, side, g=g + (letter,))
            mutated = _replaced(w, s=_conjugator(cycle, bad))
            yield f"edge {label} side {side} conjugator", mutated, cycle, bad


@pytest.mark.parametrize("name", WITNESS_TEXTS)
def test_the_checker_rejects_each_single_mutation(name):
    """Each mutation is reported, not raised, and not accepted."""
    evidence = _evidence(WITNESS_TEXTS[name])
    names = []
    for label, *mutated in _mutations(*evidence):
        ok, report = witness_holds(*mutated)
        assert not ok and report, (name, label)
        names.append(label)
    assert any("conjugator" in label for label in names) or name == "bs32", names
    assert len(names) >= 16, names


def test_the_checker_rejects_letters_that_are_no_generators(f2_example):
    """The loop's one node and both its records conjugated by v.3, which a
    rank-2 vertex does not have, with a and s rebuilt to match:
    every record still rebuilds its attachment as a free word, but s and a
    are no elements of the fundamental group."""
    graph, w, cycle, occurrences = _evidence(F2_EXAMPLE_TEXT)
    ((label, ((node, n_s, g_s), (_, n_t, g_t))),) = occurrences.items()
    outside = ((3, 1),)
    root = GroupoidNode(node.vertex, inv_letters(outside) + node.root + outside)
    records = tuple((root, n, g + outside) for n, g in ((n_s, g_s), (n_t, g_t)))
    moved = {label: records}
    a = VertexWord(w.a.vertex, inv_letters(outside) + w.a.letters + outside)
    ok, report = witness_holds(graph, _replaced(w, a=a, s=_conjugator(cycle, moved)), cycle, moved)
    assert not ok and report


@pytest.mark.parametrize(
    "shape",
    [
        lambda vertex, g: VertexWord(vertex, g),
        lambda vertex, g: None,
        lambda vertex, g: list(g),
        lambda vertex, g: ((3, 1), (3, -1)) + g,
    ],
    ids=["a VertexWord", "None", "a list", "a generator beyond the rank"],
)
@pytest.mark.parametrize("name", ["rank2_cycle", "multi_letter_cycle"])
def test_both_checkers_reject_a_conjugator_of_no_letters(name, shape):
    """A record's conjugator is a tuple of letters of its node's vertex.
    One that is a VertexWord (a word rather than its letters), None, a
    list (an empty one would read as no conjugator), or
    letters that cancel but name a generator beyond rank 2, on either side
    of any edge of the cycle, makes ``witness_holds`` report that the
    record does not rebuild and ``provenance_holds`` return False, and
    neither raises."""
    graph, w, cycle, occurrences = _evidence(WITNESS_TEXTS[name])
    cg = _only_class_graph(graph)
    assert provenance_holds(graph, cg)
    c = cg.edge_class
    for label in occurrences:
        for side in (0, 1):
            node, _, g = occurrences[label][side]
            bad = _with_record(occurrences, label, side, g=shape(node.vertex, g))
            result = witness_holds(graph, w, cycle, bad)
            assert type(result) is tuple and result[0] is False and type(result[1]) is list, result
            assert any("record does not rebuild" in line for line in result[1]), result
            cls = EdgeClass(c.index, c.edges, c.nodes, c.verdict, c.potentials, bad)
            assert provenance_holds(graph, ConjugacyGraph(cg.graph, cls, cg.vertex_origin)) is False


@pytest.mark.parametrize(
    "change",
    [
        lambda w, cycle, occ: (w, (), occ),
        lambda w, cycle, occ: (w, (None,) + cycle[1:], occ),
        lambda w, cycle, occ: (w, cycle, {}),
        lambda w, cycle, occ: (w, cycle, {label: None for label in occ}),
        lambda w, cycle, occ: (w, cycle, {label: ((1, 2), (3, 4)) for label in occ}),
        lambda w, cycle, occ: (w, (cycle[0] + (0,),) + cycle[1:], occ),
        lambda w, cycle, occ: (w, (cycle[0][0],) + cycle[1:], occ),
        lambda w, cycle, occ: (w, (edge_arc(occ, *cycle[0]),) + cycle[1:], occ),
        lambda w, cycle, occ: (w, (("no such edge", cycle[0][1]),) + cycle[1:], occ),
        lambda w, cycle, occ: (w, _first_sign(cycle, 0), occ),
        lambda w, cycle, occ: (w, _first_sign(cycle, 2), occ),
        lambda w, cycle, occ: (
            _replaced(w, s=_conjugator(_first_sign(cycle, True), occ)),
            _first_sign(cycle, True),
            occ,
        ),
        lambda w, cycle, occ: (_replaced(w, s=_conjugator(_first_sign(cycle, True), occ)), cycle, occ),
        lambda w, cycle, occ: (_replaced(w, s=_conjugator(_first_sign(cycle, 1.0), occ)), cycle, occ),
        lambda w, cycle, occ: (_replaced(w, s=_ones_as_true(w.s)), cycle, occ),
        lambda w, cycle, occ: (_replaced(w, i=2.0), cycle, occ),
        lambda w, cycle, occ: (_replaced(w, a=VertexWord(w.a.vertex, (("x", 1),))), cycle, occ),
        lambda w, cycle, occ: (w, cycle, _with_record(occ, cycle[0][0], 0, n="2")),
        lambda w, cycle, occ: (w, cycle, _with_record(occ, cycle[0][0], 0, node=None)),
        lambda w, cycle, occ: (w, cycle, _with_record(occ, cycle[0][0], 0, n=10**12)),
    ],
    ids=[
        "no arcs",
        "an arc that is none",
        "no records",
        "records that are none",
        "records of no triples",
        "a step of three items",
        "a step that is a string",
        "an arc of five fields",
        "an unknown edge",
        "sign 0",
        "sign 2",
        "a step and its s token of sign True",
        "an s token of sign True",
        "an s token of sign 1.0",
        "an s of True for each 1",
        "a float exponent",
        "a letter of no generator",
        "an exponent that is a string",
        "a node that is none",
        "a power too long to write out",
    ],
)
@pytest.mark.parametrize("name", ["bs32", "f2_example", "rank2_cycle", "multi_letter_cycle"])
def test_the_checker_reports_evidence_that_does_not_fit(name, change):
    """Malformed evidence, and a record whose power of a multi-letter root
    would have 10^12 letters, are reported without raising.  Since
    True == 1 and 1.0 == 1, a first step of sign True, or an s holding True
    or 1.0 for an int 1 of the arcs' conjugators (a stable letter's sign,
    and in f2_example a letter's exponent), compares equal to valid
    evidence; the checker reads no bool or float as an int."""
    graph, w, cycle, occurrences = _evidence(WITNESS_TEXTS[name])
    ok, report = witness_holds(graph, *change(w, cycle, occurrences))
    assert not ok and report


# -- the checkers' dihedral arithmetic against dihedral's ---------------------------


def _dihedral_word(rng, length):
    """Letters r^a (0 < |a| <= 3) and s, as a checker reads them: not reduced."""
    return tuple(
        ("s", 1) if rng.random() < 0.4 else ("r", rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(length)
    )


def test_dihedral_rebuilds_and_root_exponent_agree_with_dihedral():
    """``checks`` evaluates dihedral words on int pairs; ``_rebuilds`` and
    ``_root_exponent`` must decide g R^n g^-1 = att and word = R^m as the
    elements of ``dihedral`` do, on seeded roots, conjugators and words of
    r^a and s letters and exponents n in +-1..+-5.  An attachment is a
    rotation r^k, k != 0, as validation admits: the rebuilt product when it
    is one, and a seeded one.  The cases include a conjugated record,
    conjugator s and exponent -k, that rebuilds r^k."""
    from gogh import dihedral as dih
    from gogh.checks import _rebuilds, _root_exponent

    def element(letters):
        return dih.word_to_element(VertexWord("d", letters))

    kind, rng = DihedralInfinite(), random.Random(40)
    cases = [((("r", 1),), -k, (("s", 1),)) for k in range(1, 6)]
    cases += [
        (_dihedral_word(rng, rng.randint(1, 3)), rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
         _dihedral_word(rng, rng.randint(0, 3)))
        for _ in range(400)
    ]
    rebuilt = refuted = 0
    for root, n, conj in cases:
        g, r = element(conj), element(root)
        want = dih.dmul(dih.dmul(g, dih.dpow(r, n)), dih.dinv(g))
        rotations = [dih.DihedralElement(0, rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]))]
        for att in [want] * want.infinite_order + rotations:
            holds = _rebuilds(kind, root, n, conj, dih.element_to_word("d", att))
            assert holds == (att == want), (root, n, conj, att)
            rebuilt += holds
            refuted += not holds
        for word in (dih.element_to_word("d", want), VertexWord("d", conj + root)):
            x = element(word.letters)
            exponent = x.k // r.k if r.infinite_order and not x.eps and not x.k % r.k else None
            assert _root_exponent(kind, root, word) == exponent, (root, word)
    assert _rebuilds(kind, (("r", 1),), -3, (("s", 1),), VertexWord("d", (("r", 3),)))
    assert rebuilt >= 150 and refuted >= 200
