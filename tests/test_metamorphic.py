"""Moves that keep the fundamental group keep the verdict.

Hierarchical hyperbolicity is a property of the group, not of the graph
that presents it, so a move that changes the graph but keeps pi_1 up to
isomorphism must keep the status.  The moves are built here with
``make_graph`` and word normalisation only, and every verdict before and
after a move carries its own checked evidence.
"""

import random

from conftest import random_graph
from gogh.cli import run, serialize
from gogh.model import EdgeRecord, Free, VertexWord, make_graph
from gogh.parametrize import HHG, hhg_verdict, verify_parametrization
from gogh.words import vw_inv


def _replace_edge(graph, name, edges, vertices=()):
    return make_graph(
        [*graph.vertices, *vertices], [e for e in graph.edges if e.name != name] + edges
    )


def reverse_edge(graph, e):
    """t' = t^-1: the relation t b t^-1 = a reads t' a t'^-1 = b."""
    return _replace_edge(
        graph,
        e.name,
        [EdgeRecord(e.name, e.target, e.source, e.attachment_target, e.attachment_source)],
    )


def invert_edge(graph, e):
    """t b t^-1 = a holds iff t b^-1 t^-1 = a^-1."""
    source = vw_inv(graph.kind(e.source), e.attachment_source)
    target = vw_inv(graph.kind(e.target), e.attachment_target)
    return _replace_edge(graph, e.name, [EdgeRecord(e.name, e.source, e.target, source, target)])


def subdivide_edge(graph, e):
    """An elementary expansion: u -> w -> v through a fresh Z vertex w whose
    generator is the edge group of both halves."""
    w1 = VertexWord("w", ((1, 1),))
    halves = [
        EdgeRecord(f"{e.name}a", e.source, "w", e.attachment_source, w1),
        EdgeRecord(f"{e.name}b", "w", e.target, w1, e.attachment_target),
    ]
    return _replace_edge(graph, e.name, halves, [("w", Free(1))])


MOVES = (reverse_edge, invert_edge, subdivide_edge)


def _checked_status(graph, tmp_path) -> str:
    """The verdict's status, once its evidence is checked and the CLI reads
    the same status off the serialized text."""
    verdict = hhg_verdict(graph)
    if isinstance(verdict, HHG):
        for cert in verdict.certificates:
            ok, report = verify_parametrization(cert.conjugacy_graph.graph, cert.phi)
            assert ok, report
    else:
        transcript = verdict.witness.transcript
        assert not transcript.tail and transcript.head.is_identity
    path = tmp_path / "g.gog"
    path.write_text(serialize(graph), encoding="utf-8")
    code, out = run(["verdict", str(path)])
    assert (code, out["status"]) == (0, verdict.status)
    return verdict.status


def test_single_moves_keep_the_status(tmp_path):
    rng = random.Random(31)
    seen = {"HHG": 0, "NotHHG": 0}
    for _ in range(300):
        graph = random_graph(rng, rank2_prob=0.4)
        status = _checked_status(graph, tmp_path)
        for move in MOVES if graph.edges else ():
            e = rng.choice(graph.edges)
            moved = move(graph, e)
            assert _checked_status(moved, tmp_path) == status, (move.__name__, serialize(graph))
            seen[status] += 1
    assert min(seen.values()) > 100, seen
