"""Brute-force oracles that cross-check the library from the test suite.

Both searches are exhaustive within explicit bounds and share no decision
logic with the producers: they push conjugates of an elliptic element
through the edge groups by pinch transitions and bounded vertex-group
conjugations, and re-verify every hit through the word problem before
returning it.  Finding nothing within the bounds is inconclusive.

They use only the public names of the package; ``tests/test_separation.py``
walks them with the other checkers.
"""

from __future__ import annotations

from dataclasses import dataclass

from gogh import dihedral as dih
from gogh import freewords as fw
from gogh.model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralInfinite,
    GoghError,
    GraphOfGroups,
    VertexWord,
    edge_attachments,
    edge_endpoints,
    reverse_step,
)
from gogh.words import (
    PathWord,
    are_equal,
    invert_tokens,
    pinch_membership,
    to_path_form,
    tokens_of_vertex_word,
    vw_normalize,
    vw_pow,
)


class SearchBudgetExceeded(GoghError):
    pass


def has_pinch(graph: GraphOfGroups, w: PathWord) -> bool:
    steps = w.steps()
    for i in range(len(steps) - 1):
        if steps[i] == reverse_step(steps[i + 1]):
            if pinch_membership(graph, steps[i][0], w.tail[i][1], steps[i][1]) is not None:
                return True
    return False


# -- bounded conjugator search (independent oracle) ---------------------------


def _letter_moves(graph: GraphOfGroups, vertex: str, z: VertexWord, max_exp: int, gens):
    kind = graph.kind(vertex)
    if isinstance(kind, DihedralInfinite):
        flip = dih.element_to_word(vertex, dih.dmul(dih.dmul(
            dih.DihedralElement(1, 0), dih.word_to_element(z)), dih.DihedralElement(1, 0)))
        yield ("g", vertex, DIHEDRAL_S, 1), flip
        if z.letters and z.letters[0][0] == DIHEDRAL_S:
            el = dih.word_to_element(z)
            for mag in range(1, max_exp + 1):
                for s in (1, -1):
                    r = dih.DihedralElement(0, s * mag)
                    out = dih.dmul(dih.dmul(r, el), dih.dinv(r))
                    yield ("g", vertex, DIHEDRAL_R, s * mag), dih.element_to_word(vertex, out)
        return
    for gen in sorted(gens):
        for mag in range(1, max_exp + 1):
            for s in (1, -1):
                ell = ((gen, s * mag),)
                out = fw.mul_letters(ell, z.letters, fw.inv_letters(ell))
                moved = VertexWord(vertex, out)
                if moved != z:
                    yield ("g", vertex, gen, s * mag), moved


def _conjugation_gens(graph: GraphOfGroups, x: VertexWord, y: VertexWord):
    """Per-vertex generator pools for conjugator letters.

    Letters are drawn from generators occurring in incident attachments and
    in the two endpoints; a conjugating path assembled from root data never
    needs other generators.
    """
    pools: dict[str, set] = {v: set() for v in graph.vertex_ids()}
    for e in graph.edges:
        for w in (e.attachment_source, e.attachment_target):
            pools[w.vertex].update(g for g, _ in w.letters)
    for w in (x, y):
        pools[w.vertex].update(g for g, _ in w.letters)
    return pools


def _search_states(graph, start_vertex, start_word, max_syllables, max_exp,
                   node_cap, banned_edges, gens):
    """BFS over pinch-transition states; yields (vertex, word, tokens)."""
    edge_moves = [(e.name, s) for e in graph.edges if e.name not in banned_edges for s in (1, -1)]

    start = (start_vertex, start_word)
    seen = {start}
    frontier = [(start, [])]
    yield start_vertex, start_word, []
    depth = 0
    visited = 1
    while frontier and depth < max_syllables:
        depth += 1
        nxt = []
        for (vertex, z), toks in frontier:
            moves = []
            for step in edge_moves:
                src, tgt = edge_endpoints(graph, step)
                if tgt != vertex:
                    continue
                k = pinch_membership(graph, step[0], z, step[1])
                if k is None:
                    continue
                att_src = edge_attachments(graph, step)[0]
                kind = graph.kind(src)
                moves.append((("t", step[0], step[1]), src, vw_pow(kind, att_src, k)))
            for tok, moved in _letter_moves(graph, vertex, z, max_exp, gens.get(vertex, ())):
                moves.append((tok, vertex, moved))
            for tok, nv, nw in moves:
                state = (nv, nw)
                if state in seen:
                    continue
                seen.add(state)
                visited += 1
                if visited > node_cap:
                    raise SearchBudgetExceeded(f"conjugator search exceeded {node_cap} states")
                ntoks = [tok] + toks
                yield nv, nw, ntoks
                nxt.append((state, ntoks))
        frontier = nxt


def bounded_conjugator_search(
    graph: GraphOfGroups,
    x: VertexWord,
    y: VertexWord,
    max_syllables: int,
    max_exp: int,
    node_cap: int = 50_000,
    banned_edges: frozenset[str] = frozenset(),
) -> PathWord | None:
    """Search for h with h x h^-1 = y among short canonical path words.

    States track the conjugate of x as it is pushed through edges whose
    image subgroups contain it (the only way an elliptic element can stay
    elliptic), plus bounded single-letter conjugations inside vertex
    groups.  Any hit is re-verified with are_equal before it is returned.
    Absence only means no conjugator within the given bounds.
    """
    xk = graph.kind(x.vertex)
    yk = graph.kind(y.vertex)
    xn = vw_normalize(xk, x)
    yn = vw_normalize(yk, y)
    gens = _conjugation_gens(graph, xn, yn)
    for vertex, z, toks in _search_states(
        graph, xn.vertex, xn, max_syllables, max_exp, node_cap, banned_edges, gens
    ):
        if vertex == yn.vertex and z == yn:
            conj = list(toks)
            lhs = conj + tokens_of_vertex_word(xn) + invert_tokens(conj)
            if not are_equal(graph, to_path_form(graph, lhs, yn.vertex), yn):
                raise GoghError("internal: conjugator search hit failed re-verification")
            return to_path_form(graph, conj, yn.vertex)
    return None


# -- brute-force balance oracle --------------------------------------------------------


@dataclass(frozen=True)
class OracleUnbalanced:
    conjugator: tuple  # tokens h with h x^i h^-1 = y^j in the edge-deleted group
    i: int
    j: int


@dataclass(frozen=True)
class OracleBalancedWithinBounds:
    pass


def brute_force_balance_oracle(
    graph: GraphOfGroups,
    edge: str,
    max_syllables: int,
    max_exp: int,
    node_cap: int = 50_000,
):
    """Exhaustive witness search for unbalancedness of one edge.

    For every exponent i up to the bound, conjugates of the target-side
    image power are pushed through the groups of the edge-deleted graph by
    bounded search; a hit on a source-side image power with a different
    absolute exponent is an unbalancedness witness (h, i, j), re-verified
    through the word engine.  Finding nothing within bounds is inconclusive.
    """
    e = graph.edge(edge)
    kind_t = graph.kind(e.target)
    kind_s = graph.kind(e.source)
    u_t = e.attachment_target
    u_s = e.attachment_source
    targets = {}
    for j in range(1, max_exp + 1):
        for sj in (1, -1):
            targets[vw_pow(kind_s, u_s, sj * j)] = sj * j
    banned = frozenset({edge})
    for i in range(1, max_exp + 1):
        x = vw_pow(kind_t, u_t, i)
        gens = _conjugation_gens(graph, x, u_s)
        for vertex, z, toks in _search_states(
            graph, x.vertex, x, max_syllables, max_exp, node_cap, banned, gens
        ):
            j = targets.get(z)
            if j is None or vertex != z.vertex:
                continue
            if abs(i) == abs(j):
                continue
            lhs = list(toks) + tokens_of_vertex_word(x) + invert_tokens(toks)
            rhs = tokens_of_vertex_word(vw_pow(kind_s, u_s, j))
            if not are_equal(
                graph,
                to_path_form(graph, lhs, x.vertex),
                to_path_form(graph, rhs, u_s.vertex),
            ):
                raise GoghError("internal: oracle witness failed re-verification")
            return OracleUnbalanced(tuple(toks), i, j)
    return OracleBalancedWithinBounds()
