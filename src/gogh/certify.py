"""Almost Baumslag-Solitar witnesses and distortion certificates.

An unbalanced groupoid cycle composes to a conjugator s and a relation
s a^i s^-1 = a^j with |i| != |j|, where a is a power of the cycle's base
root.  Since a has infinite order, <a, s> is a non-Euclidean almost
Baumslag-Solitar subgroup; the relation certifies that the cyclic subgroup
<a> is distorted, so the ambient group has no hierarchically hyperbolic
structure.  The attachment data is the groupoid pass's, stored on the
verdict, but nothing is trusted: every witness is re-verified arc by arc
by ``checks.witness_holds``, whose lemmas compose to the relation without
writing it out, and every distortion identity through Britton reduction.
``words`` is imported only where a path word is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .balance import Balanced, Unbalanced
from .checks import witness_holds
from .freewords import pow_letters
from .model import GoghError, GraphOfGroups, VertexWord, record


class NoWitness(GoghError):
    pass


@record
class BSWitness:
    """a, s with s a^i s^-1 = a^j, a of infinite order and |i| != |j|.

    A witness is built only once ``checks.witness_holds`` has checked the
    arc lemmas that compose to the relation, so the reduced form of
    s a^i s^-1 a^-j, the transcript, is the empty path word at a's vertex:
    it is read from a, not stored.  The relation is never written out;
    ``relation_tokens`` writes it for an independent check.
    """

    a: VertexWord
    s: tuple  # conjugator tokens
    i: int
    j: int

    @property
    def transcript(self):
        from .words import PathWord

        return PathWord(self.a.vertex, VertexWord(self.a.vertex, ()), ())


def relation_tokens(a: VertexWord, s, i: int, j: int) -> list:
    """Tokens of s a^i s^-1 a^-j."""
    from .words import invert_tokens

    lhs = list(s) + tokens_of_vertex_word_power(a, i) + invert_tokens(s)
    return lhs + tokens_of_vertex_word_power(a, -j)


def tokens_of_vertex_word_power(word: VertexWord, n: int) -> list:
    return [("g", word.vertex, x, y) for x, y in pow_letters(word.letters, n)]


def _minimal_base_power(crossings: list, i: int) -> int:
    """Least m so that carrying root^(m*i) around the cycle stays integral:
    the carried exponent must be a multiple of each arc's entry exponent.
    crossings holds each arc's (entry exponent, exit exponent), in cycle
    order.

    The carried exponent per unit of m is top/bottom, a gcd-reduced pair;
    on entering an arc with exponent n, m must be a multiple of the
    denominator of top/(bottom*n), |n*bottom| / gcd."""
    m, top, bottom = 1, i, 1
    for n, exit_exponent in crossings:
        entry = n * bottom
        m = lcm(m, abs(entry) // gcd(top, entry))
        top, bottom = top * exit_exponent, entry
        g = gcd(top, bottom)
        top, bottom = top // g, bottom // g
    return m


def almost_bs_witness(graph: GraphOfGroups, verdict) -> BSWitness:
    """Assemble and verify a witness from an unbalanced cycle.

    Each arc crosses its edge from its near side (the target for sign +1)
    to its far side; with the records (node, n, g) of the two sides, g the
    conjugator's letters at the node's vertex, its conjugator
    kappa = g_far^-1 t^sign g_near carries R_near^n_near to R_far^n_far.
    The kappas compose to s, last arc first, in one list; the base root is
    raised to the minimal power that keeps every arc transition integral,
    and (i, j) is the reduced modulus.  The power is taken on letters at a
    dihedral vertex too: validation admits only r^k there, so the base root
    is the one letter r.  The witness is then checked by
    ``checks.witness_holds``, and a failure is an error.
    """
    if isinstance(verdict, Balanced):
        raise NoWitness("the graph is balanced")
    assert isinstance(verdict, Unbalanced)
    cycle, occurrences = verdict.cycle, verdict.occurrences
    modulus = verdict.modulus
    i, j = modulus.denominator, modulus.numerator
    s: list = []
    crossings = []  # (entry exponent, exit exponent) of each arc, last arc first
    for arc in reversed(cycle):
        source, target = occurrences[arc.label]
        (near, n, g_near), (far, n_far, g_far) = (target, source) if arc.sign > 0 else (source, target)
        if g_far:
            s += [("g", far.vertex, x, -y) for x, y in reversed(g_far)]
        s.append(("t", arc.label, arc.sign))
        if g_near:
            s += [("g", near.vertex, x, y) for x, y in g_near]
        crossings.append((n, n_far))
    crossings.reverse()
    m = _minimal_base_power(crossings, i)
    base = cycle[0].src
    a = VertexWord(base.vertex, pow_letters(base.root, m))
    witness = BSWitness(a=a, s=tuple(s), i=i, j=j)
    ok, report = witness_holds(graph, witness, cycle, occurrences)
    if not ok:
        raise RuntimeError(f"witness failed verification: {report}")
    return witness


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
    from .words import invert_tokens, is_trivial, to_path_form

    a, s, i, j = witness.a, list(witness.s), witness.i, witness.j
    if abs(i) > abs(j):
        s, i, j = invert_tokens(s), j, i
    if abs(i) == abs(j):
        raise NoWitness("witness is Euclidean; nothing is distorted")
    s_len = sum(1 if t[0] == "t" else abs(t[3]) for t in s)
    a_len = sum(abs(e) for _, e in a.letters)  # len(a) must fit in a Py_ssize_t
    rows = []
    for k in range(1, depth + 1):
        ik, jk = i**k, j**k
        tokens = relation_tokens(a, s * k, ik, jk)
        if not is_trivial(graph, to_path_form(graph, tokens, a.vertex)):
            raise RuntimeError(f"distortion identity failed at depth {k}")
        bound = 2 * k * s_len + abs(ik) * a_len
        rows.append(DistortionRow(k=k, exponent=jk, length_bound=bound, ratio=Fraction(bound, abs(jk))))
    return DistortionCertificate(witness=witness, rows=tuple(rows))
