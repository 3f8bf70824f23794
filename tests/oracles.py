"""Brute-force oracles that cross-check the library from the test suite.

Both searches are exhaustive within explicit bounds and share no decision
logic with the producers: they push conjugates of an elliptic element
through the edge groups by pinch transitions and bounded vertex-group
conjugations, and re-verify every hit through the word problem before
returning it.  Finding nothing within the bounds is inconclusive.

``reference_verify_parametrization`` is the parametrization checker
evaluated with ``dihedral`` records, element by element: the reference
that ``checks.verify_parametrization``, which evaluates on int pairs, is
compared against.

The vertex-word algebra (``vw_mul``, ``vw_inv``, ``vw_pow``) builds test
words in normal form.  ``pinch_membership`` asks Britton reduction's own
two steps whether one syllable lies in an edge image, so the tests can try
that membership test on a single word.

Apart from those two steps they use only the public names of the package;
``tests/test_separation.py`` walks them with the other checkers.
"""

from __future__ import annotations

from dataclasses import dataclass

from gogh import dihedral as dih
from gogh import freewords as fw
from gogh.model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralInfinite,
    Free,
    GoghError,
    GraphOfGroups,
    VertexGroupKind,
    VertexWord,
    edge_attachments,
    edge_endpoints,
    reverse_step,
    spanning_tree,
)
from gogh.words import (
    PathWord,
    _exponent_in_image,
    _image_data,
    are_equal,
    invert_tokens,
    to_path_form,
    tokens_of_vertex_word,
    vw_normalize,
)


class SearchBudgetExceeded(GoghError):
    pass


# -- vertex-word algebra and pinch membership ------------------------------------


def vw_mul(kind: VertexGroupKind, *words: VertexWord) -> VertexWord:
    letters = tuple(letter for w in words for letter in w.letters)
    return vw_normalize(kind, VertexWord(words[0].vertex, letters))


def vw_inv(kind: VertexGroupKind, w: VertexWord) -> VertexWord:
    if isinstance(kind, Free):
        return VertexWord(w.vertex, fw.inv_letters(w.letters))
    return dih.element_to_word(w.vertex, dih.dinv(dih.word_to_element(w)))


def vw_pow(kind: VertexGroupKind, w: VertexWord, n: int) -> VertexWord:
    if isinstance(kind, Free):
        return VertexWord(w.vertex, fw.pow_letters(w.letters, n))
    return dih.element_to_word(w.vertex, dih.dpow(dih.word_to_element(w), n))


def pinch_membership(graph: GraphOfGroups, edge: str, g: VertexWord, sign: int = 1) -> int | None:
    """The exponent k with g = attachment^k, if g lies in the edge image.

    The attachment is the target-side image of the signed edge, and g a
    word of its vertex in normal form.  Free vertices use the cyclic split
    c core c^-1 of the attachment (c^-1 g c compared with powers of the
    core: length divisibility plus repetition); dihedral vertices reduce to
    divisibility of rotation exponents.  Britton reduction applies the same
    two steps, ``words._image_data`` and ``words._exponent_in_image``.
    """
    att = edge_attachments(graph, (edge, sign))[1]
    data = _image_data(graph.kind(att.vertex), att)
    return _exponent_in_image(data, dih.word_to_element(g) if isinstance(data, int) else g.letters)


def has_pinch(graph: GraphOfGroups, w: PathWord) -> bool:
    steps = [step for step, _ in w.tail]
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


# -- reference parametrization checker ----------------------------------------


def _in_group(x) -> bool:
    """Whether x is the normal form s^eps r^k of an element of D-infinity."""
    return (
        isinstance(x, dih.DihedralElement)
        and isinstance(x.eps, int)
        and x.eps in (0, 1)
        and isinstance(x.k, int)
    )


def _image(images: dict, word: VertexWord) -> dih.DihedralElement:
    """The image of a word under its vertex's generator images."""
    if len(word.letters) == 1:
        ((gen, exp),) = word.letters
        return dih.dpow(images[gen], exp)
    out = dih.IDENTITY
    for gen, exp in word.letters:
        out = dih.dmul(out, dih.dpow(images[gen], exp))
    return out


def reference_verify_parametrization(graph: GraphOfGroups, phi):
    """(ok, report) as ``checks.verify_parametrization`` gives it, with each
    image kept as a ``DihedralElement`` and each relation evaluated by
    ``dmul``, ``dpow`` and ``dinv``.  It reads an element by ``isinstance``,
    so a bool eps or k passes here where the checker rejects it."""
    report: list[str] = []
    maps = {vertex: dict(images) for vertex, images in phi.vertex_images}
    stable = dict(phi.stable_images)
    outside: set[str] = set()  # vertices with an image outside the group
    for vertex, kind in graph.vertices:
        images = maps.get(vertex)
        if images is None:
            report.append(f"vertex {vertex}: no images assigned")
            continue
        for gen, x in images.items():
            if not _in_group(x):
                report.append(f"vertex {vertex}: image of {gen} is not an element of D-infinity")
                outside.add(vertex)
        if vertex in outside:
            continue
        if isinstance(kind, DihedralInfinite):
            r_img = images.get(DIHEDRAL_R)
            s_img = images.get(DIHEDRAL_S)
            if r_img is None or s_img is None:
                report.append(f"vertex {vertex}: dihedral generators not assigned")
                continue
            if not r_img.infinite_order:
                report.append(f"vertex {vertex}: rotation image has finite order (infinite kernel)")
                continue
            if s_img.eps != 1:
                report.append(f"vertex {vertex}: reflection image is not a reflection")
                continue
            if dih.dmul(dih.dmul(s_img, r_img), s_img) != dih.dinv(r_img):
                report.append(f"vertex {vertex}: defining relation srs = r^-1 broken")
        elif kind.rank == 1:
            g_img = images.get(1)
            if g_img is None:
                report.append(f"vertex {vertex}: generator not assigned")
                continue
            if not g_img.infinite_order:
                report.append(f"vertex {vertex}: generator image has finite order (infinite kernel)")
        else:
            report.append(f"vertex {vertex}: free rank {kind.rank} admits no quasi-isometric map")
    tree = spanning_tree(graph)
    for e in graph.edges:
        t_img = stable.get(e.name, dih.IDENTITY)
        conjugate = False
        if t_img is not dih.IDENTITY:  # the default needs no check
            if not _in_group(t_img):
                report.append(f"edge {e.name}: stable letter image is not an element of D-infinity")
                continue
            conjugate = not t_img.is_identity
            if conjugate and e.name in tree:
                report.append(f"edge {e.name}: tree stable letter must map to the identity")
        if e.source in outside or e.target in outside:
            continue
        try:
            lhs = _image(maps[e.target], e.attachment_target)
            if conjugate:
                lhs = dih.dmul(dih.dmul(t_img, lhs), dih.dinv(t_img))
            rhs = _image(maps[e.source], e.attachment_source)
        except KeyError:
            report.append(f"edge {e.name}: relation references unassigned generators")
            continue
        if lhs != rhs:
            report.append(
                f"edge {e.name}: relation image ({lhs.eps},{lhs.k}) != ({rhs.eps},{rhs.k})"
            )
    return (not report, report)
