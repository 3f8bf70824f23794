"""Moves that keep the fundamental group keep the verdict.

Hierarchical hyperbolicity is a property of the group, not of the graph
that presents it, so a move that changes the graph but keeps pi_1 up to
isomorphism must keep the status.  The moves are built here with
``make_graph`` and word normalisation only, and every verdict before and
after a move carries its own checked evidence.
"""

import random
from itertools import count

from conftest import check_against_reference, check_cycle_contract, random_graph
from gogh.certify import relation_tokens
from gogh.checks import verify_parametrization, witness_holds
from gogh.cli import run, serialize
from gogh.model import DIHEDRAL_R, DIHEDRAL_S, DihedralInfinite, EdgeRecord, Free, VertexWord, make_graph
from gogh.parametrize import HHG, hhg_verdict
from gogh.words import is_trivial
from oracles import vw_inv, vw_mul, vw_pow


def _replace_edge(graph, name, edges, vertices=()):
    return make_graph(
        [*graph.vertices, *vertices], [e for e in graph.edges if e.name != name] + edges
    )


def reverse_edge(graph, rng):
    """t' = t^-1: the relation t b t^-1 = a reads t' a t'^-1 = b."""
    e = rng.choice(graph.edges)
    return _replace_edge(
        graph,
        e.name,
        [EdgeRecord(e.name, e.target, e.source, e.attachment_target, e.attachment_source)],
    )


def invert_edge(graph, rng):
    """t b t^-1 = a holds iff t b^-1 t^-1 = a^-1."""
    e = rng.choice(graph.edges)
    source = vw_inv(graph.kind(e.source), e.attachment_source)
    target = vw_inv(graph.kind(e.target), e.attachment_target)
    return _replace_edge(graph, e.name, [EdgeRecord(e.name, e.source, e.target, source, target)])


def subdivide_edge(graph, rng):
    """An elementary expansion: u -> w -> v through a fresh Z vertex w whose
    generator is the edge group of both halves."""
    e = rng.choice(graph.edges)
    w = next(name for name in (f"w{i}" if i else "w" for i in count()) if name not in graph.vertex_ids())
    w1 = VertexWord(w, ((1, 1),))
    halves = [
        EdgeRecord(f"{e.name}a", e.source, w, e.attachment_source, w1),
        EdgeRecord(f"{e.name}b", w, e.target, w1, e.attachment_target),
    ]
    return _replace_edge(graph, e.name, halves, [(w, Free(1))])


def conjugate_attachment(graph, rng):
    """Conjugate one attachment by an element g of its vertex group: a seeded
    reduced word in a free vertex, s or r^k in a dihedral one.  t b t^-1 = a
    holds iff (g t) b (g t)^-1 = g a g^-1 for g at the source, and iff
    (t g^-1) (g b g^-1) (t g^-1)^-1 = a for g at the target: a new stable
    letter, so the same group."""
    e = rng.choice(graph.edges)
    side = rng.choice(["source", "target"])
    vertex = e.source if side == "source" else e.target
    kind = graph.kind(vertex)
    if isinstance(kind, DihedralInfinite):
        letters = ((DIHEDRAL_S, 1),) if rng.random() < 0.5 else ((DIHEDRAL_R, rng.choice([-2, -1, 1, 2])),)
    else:
        letters = tuple((rng.randint(1, kind.rank), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 3)))
    g = vw_mul(kind, VertexWord(vertex, letters))
    ends = {"source": e.attachment_source, "target": e.attachment_target}
    ends[side] = vw_mul(kind, g, ends[side], vw_inv(kind, g))
    record = EdgeRecord(e.name, e.source, e.target, ends["source"], ends["target"])
    return _replace_edge(graph, e.name, [record])


def _rank2_vertices(graph):
    return [(v, kind) for v, kind in graph.vertices if isinstance(kind, Free) and kind.rank >= 2]


def nielsen_move(graph, rng):
    """v.1 -> v.1 v.2 in every attachment at one free vertex v of rank >= 2:
    an automorphism of the vertex group, so the same pi_1."""
    v, kind = rng.choice(_rank2_vertices(graph))
    image = VertexWord(v, ((1, 1), (2, 1)))

    def moved(w):
        if w.vertex != v:
            return w
        pieces = (vw_pow(kind, image, exp) if gen == 1 else VertexWord(v, ((gen, exp),)) for gen, exp in w.letters)
        return vw_mul(kind, *pieces)

    edges = [
        EdgeRecord(e.name, e.source, e.target, moved(e.attachment_source), moved(e.attachment_target))
        for e in graph.edges
    ]
    return make_graph(graph.vertices, edges)


def _collapsible(graph):
    """(edge, w) for each non-loop edge with an end at a Z vertex w that it
    attaches by w.1 or w.1^-1."""
    return [
        (e, w)
        for e in graph.edges
        if e.source != e.target
        for w, word in ((e.source, e.attachment_source), (e.target, e.attachment_target))
        if graph.kind(w) == Free(1) and word.letters in (((1, 1),), ((1, -1),))
    ]


def collapse_edge(graph, rng):
    """An elementary collapse, the inverse of a subdivision: a non-loop edge
    from u to a Z vertex w attached by w.1^eps lies in a spanning tree, so
    its stable letter is trivial and w.1^eps = a, the edge's attachment at u.
    w and the edge go; every other end at w, loops included, moves to u with
    w.1^k read as a^(eps k)."""
    e, w = rng.choice(_collapsible(graph))
    if w == e.source:
        u, a, ((_, eps),) = e.target, e.attachment_target, e.attachment_source.letters
    else:
        u, a, ((_, eps),) = e.source, e.attachment_source, e.attachment_target.letters
    kind = graph.kind(u)

    def end(vertex, word):
        if vertex != w:
            return vertex, word
        ((_, k),) = word.letters
        return u, vw_pow(kind, a, eps * k)

    edges = []
    for f in graph.edges:
        if f.name != e.name:
            source, at_source = end(f.source, f.attachment_source)
            target, at_target = end(f.target, f.attachment_target)
            edges.append(EdgeRecord(f.name, source, target, at_source, at_target))
    return make_graph([pair for pair in graph.vertices if pair[0] != w], edges)


MOVES = (reverse_edge, invert_edge, subdivide_edge, conjugate_attachment, nielsen_move, collapse_edge)
NEEDS = {nielsen_move: _rank2_vertices, collapse_edge: _collapsible}  # what a move needs of the graph


def _applicable(graph):
    """The moves that apply to graph: every move needs an edge."""
    return [move for move in MOVES if graph.edges and (move not in NEEDS or NEEDS[move](graph))]


def chain_of_moves(graph, rng):
    """Two to four moves in a row, each drawn from those that apply."""
    for _ in range(rng.randint(2, 4)):
        moves = _applicable(graph)
        if not moves:  # a collapse took the last edge
            break
        graph = rng.choice(moves)(graph, rng)
    return graph


def _checked_status(graph, tmp_path) -> str:
    """The verdict's status, once its evidence is checked (a certificate,
    which the checker and the reference checker also judge alike with each
    of its single mutations, or a witness and the contract of the cycle it
    was built from) and the CLI reads the same status off the serialized
    text."""
    verdict = hhg_verdict(graph)
    if isinstance(verdict, HHG):
        for cert in verdict.certificates:
            ok, report = verify_parametrization(cert.conjugacy_graph.graph, cert.phi)
            assert ok, report
            check_against_reference(cert.conjugacy_graph.graph, cert.phi)
    else:
        w, cycle = verdict.witness, verdict.verdict
        ok, report = witness_holds(graph, w, cycle.cycle, cycle.occurrences)
        assert ok, report
        assert is_trivial(graph, relation_tokens(w.a, w.s, w.i, w.j))
        check_cycle_contract(cycle)
    path = tmp_path / "g.gog"
    path.write_text(serialize(graph), encoding="utf-8")
    code, out = run(["verdict", str(path)])
    assert (code, out["status"]) == (0, verdict.status)
    return verdict.status


def test_moves_keep_the_status(tmp_path):
    """Each single move, and one chain of moves, on 300 seeded graphs; the
    collapse also after a subdivision and one other move."""
    rng = random.Random(31)
    # the conjugation's and the later moves' own draws: rng draws the same graphs
    conj_rng, move_rng, collapse_rng = random.Random(37), random.Random(41), random.Random(43)
    seen = {"HHG": 0, "NotHHG": 0}
    changed = {move.__name__: 0 for move in (*MOVES, chain_of_moves)}
    for _ in range(300):
        graph = random_graph(rng, rank2_prob=0.4)
        status = _checked_status(graph, tmp_path)
        if not graph.edges:
            continue
        moved = [(move, move(graph, rng)) for move in MOVES[:3]]
        moved.append((conjugate_attachment, conjugate_attachment(graph, conj_rng)))
        if _rank2_vertices(graph):
            moved.append((nielsen_move, nielsen_move(graph, move_rng)))
        moved.append((chain_of_moves, chain_of_moves(graph, move_rng)))
        if _collapsible(graph):
            moved.append((collapse_edge, collapse_edge(graph, collapse_rng)))
        subdivided = subdivide_edge(graph, collapse_rng)
        others = [move for move in _applicable(subdivided) if move not in (subdivide_edge, collapse_edge)]
        stepped = collapse_rng.choice(others)(subdivided, collapse_rng)
        moved.append((collapse_edge, collapse_edge(stepped, collapse_rng)))
        for move, other in moved:
            assert _checked_status(other, tmp_path) == status, (move.__name__, serialize(graph), serialize(other))
            seen[status] += 1
            changed[move.__name__] += serialize(other) != serialize(graph)
    assert min(seen.values()) > 100, seen
    assert min(changed.values()) > 100, changed  # a move may give back its graph
