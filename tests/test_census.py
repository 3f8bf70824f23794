"""An exhaustive census of small graphs of 2-ended groups, against an exact
oracle that shares no code with the decision.

The stratum is every graph of one or two vertices, each free of rank 1 or
infinite dihedral, with one or two edges (loops included) whose images are
one-letter powers g^k, 1 <= |k| <= 3.  With two vertices the first edge
joins them, so the graph is connected: 23,544 graphs.

For such a graph the fundamental group is a generalized Baumslag-Solitar
group, possibly with dihedral vertices, and it is balanced exactly when
its modular homomorphism is trivial: when every cycle of the underlying
graph has |prod n_s/n_t| = 1 (Forester, Geom. Topol. 6 (2002); Levitt,
Geom. Topol. 11 (2007)).  The oracle decides that with Fraction
potentials on the vertices; it imports nothing from gogh.balance.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

from conftest import Clock, check_cycle_contract
from gogh.certify import relation_tokens
from gogh.checks import provenance_holds, verify_parametrization, witness_holds
from gogh.model import DIHEDRAL_R, DihedralInfinite, EdgeRecord, Free, VertexWord, make_graph
from gogh.parametrize import HHG, hhg_verdict
from gogh.words import is_trivial

KINDS = (Free(1), DihedralInfinite())
EXPONENTS = (1, 2, 3, -1, -2, -3)
PAIRS = list(product(EXPONENTS, repeat=2))
# the stratum's counts, pinned: a change in either is a change of verdict
COUNTS = {"HHG": 5832, "NotHHG": 17712}


def _image(vertex, kind, k):
    return VertexWord(vertex, ((DIHEDRAL_R if kind == DihedralInfinite() else 1, k),))


def _stratum():
    """(vertex kinds, edges as (source, target, n_s, n_t)) for every graph."""
    for kind in KINDS:
        for pairs in [[p] for p in PAIRS] + [list(p) for p in product(PAIRS, repeat=2)]:
            yield {"v": kind}, [("v", "v", n_s, n_t) for n_s, n_t in pairs]
    for kinds in product(KINDS, repeat=2):
        vertices = dict(zip("uv", kinds))
        for n_s, n_t in PAIRS:
            yield vertices, [("u", "v", n_s, n_t)]
        for ends, first, second in product(("uu", "vv", "uv", "vu"), PAIRS, PAIRS):
            yield vertices, [("u", "v", *first), (*ends, *second)]


def _balanced(edges) -> bool:
    """Every cycle of the underlying graph has |prod n_s/n_t| = 1: one
    potential per vertex, spread along the edges and then checked on all."""
    potential = {edges[0][0]: Fraction(1)}
    for _ in edges:
        for source, target, n_s, n_t in edges:
            if source in potential and target not in potential:
                potential[target] = potential[source] * abs(Fraction(n_s, n_t))
            elif target in potential and source not in potential:
                potential[source] = potential[target] / abs(Fraction(n_s, n_t))
    return all(
        potential[target] == potential[source] * abs(Fraction(n_s, n_t))
        for source, target, n_s, n_t in edges
    )


def test_census_of_two_ended_graphs():
    """The status equals the oracle's on every graph of the stratum, every
    certificate verifies, every HHG class's derived graph keeps its
    provenance, every witness passes the arc-lemma checker and its relation,
    written out in letters, Britton-reduces to the empty word, and every
    reported cycle keeps its contract."""
    counts = Counter()
    with Clock("census 2-ended stratum", 20.0):
        for vertices, edges in _stratum():
            graph = make_graph(
                vertices.items(),
                [
                    EdgeRecord(
                        f"e{i}", s, t, _image(s, vertices[s], n_s), _image(t, vertices[t], n_t)
                    )
                    for i, (s, t, n_s, n_t) in enumerate(edges)
                ],
            )
            verdict = hhg_verdict(graph)
            assert (verdict.status == "HHG") == _balanced(edges), (vertices, edges)
            if isinstance(verdict, HHG):
                for cert in verdict.certificates:
                    ok, report = verify_parametrization(cert.conjugacy_graph.graph, cert.phi)
                    assert ok, (vertices, edges, report)
                    assert provenance_holds(graph, cert.conjugacy_graph), (vertices, edges)
            else:
                w, cycle = verdict.witness, verdict.verdict
                assert witness_holds(graph, w, cycle.cycle, cycle.occurrences)[0], (vertices, edges)
                assert is_trivial(graph, relation_tokens(w.a, w.s, w.i, w.j)), (vertices, edges)
                check_cycle_contract(cycle)
            counts[verdict.status] += 1
    assert counts == COUNTS, counts
