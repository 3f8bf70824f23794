"""Almost Baumslag-Solitar witnesses and distortion certificates.

An unbalanced groupoid cycle composes to a conjugator s and a relation
s a^i s^-1 = a^j with |i| != |j|, where a is a power of the cycle's base
root.  Since a has infinite order, <a, s> is a non-Euclidean almost
Baumslag-Solitar subgroup; the relation certifies that the cyclic subgroup
<a> is distorted, so the ambient group has no hierarchically hyperbolic
structure.  The attachment data is the groupoid pass's, stored on the
verdict, but nothing is trusted: every emitted identity is re-verified
through Britton reduction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .balance import Balanced, GroupoidArc, Unbalanced
from .freewords import pow_letters
from .model import GoghError, GraphOfGroups, VertexWord, record
from .words import (
    PathWord,
    invert_tokens,
    is_trivial,
    britton_reduce,
    to_path_form,
    tokens_of_vertex_word,
    vw_pow,
)


class NoWitness(GoghError):
    pass


@record
class BSWitness:
    """a, s with s a^i s^-1 = a^j, a of infinite order and |i| != |j|.

    The transcript is the Britton-reduced form of s a^i s^-1 a^-j, kept as
    evidence that the relation holds; it must be the empty word.
    """

    a: VertexWord
    s: tuple  # conjugator tokens
    i: int
    j: int
    transcript: PathWord


def relation_tokens(a: VertexWord, s, i: int, j: int) -> list:
    """Tokens of s a^i s^-1 a^-j."""
    lhs = list(s) + tokens_of_vertex_word_power(a, i) + invert_tokens(s)
    return lhs + tokens_of_vertex_word_power(a, -j)


def tokens_of_vertex_word_power(word: VertexWord, n: int) -> list:
    return tokens_of_vertex_word(VertexWord(word.vertex, pow_letters(word.letters, n)))


def _crossing(arc: GroupoidArc, occurrences: dict) -> tuple[int, list]:
    """(n, kappa) for one arc: n is the root exponent of the attachment on
    the near (src) side and kappa = g_far^-1 t^sign g_near, so that
    kappa R_src^(n*m) kappa^-1 = R_dst^(n*m*weight) for every integer m."""
    source, target = occurrences[arc.label]
    (_, n, g_near), (_, _, g_far) = (target, source) if arc.sign > 0 else (source, target)
    kappa = invert_tokens(tokens_of_vertex_word(g_far)) + [("t", arc.label, arc.sign)]
    return n, kappa + tokens_of_vertex_word(g_near)


def _minimal_base_power(cycle: tuple[GroupoidArc, ...], crossings: list, i: int) -> int:
    """Least m so that carrying root^(m*i) around the cycle stays integral:
    the carried exponent must be a multiple of each arc's entry exponent.

    The carried exponent per unit of m is top/bottom, a gcd-reduced pair
    with bottom > 0; on entering an arc with exponent n, m must be a
    multiple of the denominator of top/(bottom*n), |n*bottom| / gcd."""
    m, top, bottom = 1, i, 1
    for arc, (n, _) in zip(cycle, crossings):
        entry = n * bottom
        m = lcm(m, abs(entry) // gcd(top, entry))
        top, bottom = top * arc.weight.numerator, bottom * arc.weight.denominator
        g = gcd(top, bottom)
        top, bottom = top // g, bottom // g
    return m


def almost_bs_witness(graph: GraphOfGroups, verdict) -> BSWitness:
    """Assemble and verify a witness from an unbalanced cycle.

    Each cycle arc's crossing (entry exponent and conjugator kappa) is
    derived from the attachment data of its edge; the kappas compose to s,
    the base root is raised to the minimal power that keeps every arc
    transition integral, and (i, j) is the reduced modulus.  The relation
    is then Britton-reduced, and anything but the empty word is an error.
    """
    if isinstance(verdict, Balanced):
        raise NoWitness("the graph is balanced")
    assert isinstance(verdict, Unbalanced)
    cycle = verdict.cycle
    modulus = verdict.modulus
    i, j = modulus.denominator, modulus.numerator
    crossings = [_crossing(arc, verdict.occurrences) for arc in cycle]
    m = _minimal_base_power(cycle, crossings, i)
    base = cycle[0].src
    kind = graph.kind(base.vertex)
    a = vw_pow(kind, VertexWord(base.vertex, base.root), m)
    s_tokens = [tok for _, kappa in reversed(crossings) for tok in kappa]
    reduced = britton_reduce(
        graph, to_path_form(graph, relation_tokens(a, s_tokens, i, j), base.vertex)
    )
    if reduced.tail or not reduced.head.is_identity:
        raise RuntimeError("witness relation failed Britton verification")
    return BSWitness(a=a, s=tuple(s_tokens), i=i, j=j, transcript=reduced)


@record
class DistortionRow:
    k: int
    exponent: int  # j^k, the power of a reached
    length_bound: int  # 2k len(s) + |i|^k len(a), letters spent to reach it
    ratio: Fraction


@record
class DistortionCertificate:
    witness: BSWitness
    rows: tuple[DistortionRow, ...]


def distortion_certificate(graph: GraphOfGroups, witness: BSWitness, depth: int) -> DistortionCertificate:
    """Verify s^k a^(i^k) s^-k = a^(j^k) symbolically for k = 1..depth.

    With |j| > |i| (roles are swapped otherwise) the words on the left have
    letter length 2k len(s) + |i|^k len(a) while reaching the j^k-th power
    of a, so the length-per-power ratio collapses: the iterated relation
    compresses huge powers into short words.
    """
    a, s, i, j = witness.a, list(witness.s), witness.i, witness.j
    if abs(i) > abs(j):
        s, i, j = invert_tokens(s), j, i
    if abs(i) == abs(j):
        raise NoWitness("witness is Euclidean; nothing is distorted")
    s_len = sum(1 if t[0] == "t" else abs(t[3]) for t in s)
    a_len = len(a)
    rows = []
    for k in range(1, depth + 1):
        ik, jk = i**k, j**k
        tokens = relation_tokens(a, s * k, ik, jk)
        if not is_trivial(graph, to_path_form(graph, tokens, a.vertex)):
            raise RuntimeError(f"distortion identity failed at depth {k}")
        bound = 2 * k * s_len + abs(ik) * a_len
        rows.append(DistortionRow(k=k, exponent=jk, length_bound=bound, ratio=Fraction(bound, abs(jk))))
    return DistortionCertificate(witness=witness, rows=tuple(rows))
