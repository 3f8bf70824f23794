"""Path forms and the word problem in the fundamental group.

Elements are manipulated as path words: alternating vertex-group syllables
and stable letters whose edge sequence is a closed path based at some
vertex.  Vertex syllables keep exponents as arbitrary-precision integers;
pinch rewriting only does exponent arithmetic, so words like v^(3^20) stay
one letter long.  A path form normalises each syllable once.

Tokens are the flat exchange format:
    ("g", vertex, generator, exponent)   vertex-group letter
    ("t", edge, exponent)                stable letter power
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dihedral as dih
from . import freewords as fw
from .model import (
    DihedralInfinite,
    Free,
    GoghError,
    GraphOfGroups,
    SignedEdge,
    VertexGroupKind,
    VertexWord,
    edge_attachments,
    edge_endpoints,
    reverse_step,
    tree_steps,
    spanning_tree,
)

Token = tuple


# -- vertex-word algebra, dispatching on the vertex-group kind ---------------


def vw_normalize(kind: VertexGroupKind, w: VertexWord) -> VertexWord:
    if isinstance(kind, Free):
        return fw.free_reduce(w)
    return dih.element_to_word(w.vertex, dih.word_to_element(w))


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


# -- path words ---------------------------------------------------------------


@dataclass(frozen=True)
class PathWord:
    """g_0 t_1 g_1 ... t_n g_n with the edge steps forming a closed path."""

    base: str
    head: VertexWord
    tail: tuple[tuple[SignedEdge, VertexWord], ...]

    def steps(self) -> list[SignedEdge]:
        return [s for s, _ in self.tail]


def tokens_of_vertex_word(w: VertexWord) -> list[Token]:
    return [("g", w.vertex, g, e) for g, e in w.letters]


def tokens_of_path(p: PathWord) -> list[Token]:
    out = tokens_of_vertex_word(p.head)
    for step, w in p.tail:
        out.append(("t", step[0], step[1]))
        out.extend(tokens_of_vertex_word(w))
    return out


def invert_tokens(tokens) -> list[Token]:
    out: list[Token] = []
    for tok in reversed(tokens):
        if tok[0] == "g":
            out.append(("g", tok[1], tok[2], -tok[3]))
        else:
            out.append(("t", tok[1], -tok[2]))
    return out


def to_path_form(graph: GraphOfGroups, tokens, base: str | None = None) -> PathWord:
    """Rewrite a raw token word into a closed path word at the given base.

    Spanning-tree stable letters (trivial in the fundamental group) are
    inserted wherever consecutive letters live at different vertices, and
    to close the path back to the base.  Each syllable is normalised once.
    """
    tokens = list(tokens)
    if base is None:
        base = _infer_base(graph, tokens)
    kinds = graph.index.kinds
    if base not in kinds:
        raise GoghError(f"UnknownVertex: {base!r}")
    words: list[VertexWord] = []
    steps: list[SignedEdge] = []
    current = base
    letters: list[tuple] = []  # the raw letters of the syllable at current

    def close() -> None:
        word = VertexWord(current, tuple(letters))
        words.append(vw_normalize(kinds[current], word) if letters else word)
        letters.clear()

    def walk(path) -> None:
        nonlocal current
        for step in path:
            close()
            steps.append(step)
            current = edge_endpoints(graph, step)[1]

    for tok in tokens:
        exp = tok[-1]
        if exp == 0:
            continue
        if tok[0] == "g":
            if tok[1] != current:
                graph.kind(tok[1])  # an unknown vertex raises UnknownVertex here
                walk(tree_steps(graph, current, tok[1]))
            letters.append((tok[2], exp))
        else:
            step = (tok[1], 1 if exp > 0 else -1)
            source = edge_endpoints(graph, step)[0]
            for _ in range(abs(exp)):
                walk(tree_steps(graph, current, source) + (step,))
    walk(tree_steps(graph, current, base))
    close()
    return PathWord(base, words[0], tuple(zip(steps, words[1:])))


def _infer_base(graph: GraphOfGroups, tokens) -> str:
    for tok in tokens:
        if tok[0] == "g":
            return tok[1]
        step = (tok[1], 1 if tok[2] > 0 else -1)
        return edge_endpoints(graph, step)[0]
    return min(graph.vertex_ids())


def pinch_membership(graph: GraphOfGroups, edge: str, g: VertexWord, sign: int = 1) -> int | None:
    """The exponent k with g = attachment^k, if g lies in the edge image.

    The attachment is the target-side image of the signed edge.  Free
    vertices use primitive-root data (length divisibility plus repetition);
    dihedral vertices reduce to divisibility of rotation exponents.
    """
    att = edge_attachments(graph, (edge, sign))[1]
    kind = graph.kind(att.vertex)
    if isinstance(kind, DihedralInfinite):
        el = dih.word_to_element(g)
        base = dih.word_to_element(att)
        if el.is_identity:
            return 0
        if el.eps or el.k % base.k:
            return None
        return el.k // base.k
    if g.is_identity:
        return 0
    rd = fw.primitive_root(att)
    inner = fw.mul_letters(fw.inv_letters(rd.conjugator.letters), g.letters, rd.conjugator.letters)
    q = _power_of(inner, rd.root.letters)
    if q is None or q % rd.exponent:
        return None
    return q // rd.exponent


def _power_of(letters: fw.Letters, root: fw.Letters) -> int | None:
    """q with letters == root^q as reduced words, else None."""
    if not letters:
        return 0
    if len(root) == 1:
        g, r = root[0]
        if len(letters) != 1 or letters[0][0] != g:
            return None
        m = letters[0][1]
        if m % r:
            return None
        return m // r
    n, rem = divmod(len(letters), len(root))
    if rem:
        return None
    width = len(root)
    if all(letters[i * width : (i + 1) * width] == root for i in range(n)):
        return n
    iroot = fw.inv_letters(root)
    if all(letters[i * width : (i + 1) * width] == iroot for i in range(n)):
        return -n
    return None


def britton_reduce(graph: GraphOfGroups, w: PathWord) -> PathWord:
    """Remove pinches t_e g t_e^-1 with g in the edge image, leftmost first.

    One left-to-right pass over a stack of (step, syllable), the head at
    the bottom: the stack never holds a pinch, so an incoming step can only
    pinch the syllable on top.  A pinch pops it and merges the replacing
    power of the opposite attachment, computed arithmetically, and the
    incoming syllable into the syllable below.  The output contains no
    pinch, so by the normal-form property it is the identity only if it is
    a single trivial vertex syllable.
    """
    stack: list[tuple[SignedEdge | None, VertexWord]] = [(None, w.head)]
    for step, syllable in w.tail:
        top_step, top = stack[-1]
        k = None
        if top_step == reverse_step(step):
            k = pinch_membership(graph, top_step[0], top, top_step[1])
        if k is None:
            stack.append((step, syllable))
            continue
        stack.pop()
        att = edge_attachments(graph, top_step)[0]
        kind = graph.kind(att.vertex)
        below_step, below = stack[-1]
        stack[-1] = (below_step, vw_mul(kind, below, vw_pow(kind, att, k), syllable))
    return PathWord(w.base, stack[0][1], tuple(stack[1:]))


def _as_path(graph: GraphOfGroups, w) -> PathWord:
    if isinstance(w, PathWord):
        return w
    if isinstance(w, VertexWord):
        return to_path_form(graph, tokens_of_vertex_word(w), w.vertex)
    return to_path_form(graph, w)


def is_trivial(graph: GraphOfGroups, w) -> bool:
    """Word problem: does w represent the identity of the fundamental group?"""
    reduced = britton_reduce(graph, _as_path(graph, w))
    return not reduced.tail and reduced.head.is_identity


def are_equal(graph: GraphOfGroups, u, v) -> bool:
    pu = _as_path(graph, u)
    pv = _as_path(graph, v)
    tokens = tokens_of_path(pu) + invert_tokens(tokens_of_path(pv))
    return is_trivial(graph, to_path_form(graph, tokens, pu.base))


def display_tokens(graph: GraphOfGroups, tokens) -> str:
    """Render tokens in the input letter syntax; tree stable letters are
    display-trivial and dropped."""
    tree = spanning_tree(graph)
    parts = []
    for tok in tokens:
        if tok[0] == "g":
            _, v, g, e = tok
            if e == 0:
                continue
            parts.append(f"{v}.{letter_str(g, e)}")
        else:
            _, edge, e = tok
            if e == 0 or edge in tree:
                continue
            parts.append(f"{edge}.{letter_str('t', e)}")
    return " ".join(parts)


def parse_int(numeral: str) -> int:
    """The integer a signed decimal numeral denotes, of any length.

    int() converts it; decimal takes over where int() raises ValueError,
    as beyond the interpreter's process-wide digit limit
    (sys.set_int_max_str_digits).  The value, or the error, is always the
    one int(Decimal(numeral)) gives."""
    try:
        return int(numeral)
    except ValueError:
        from decimal import Decimal

        return int(Decimal(numeral))


def int_str(n: int) -> str:
    """The decimal numeral of n, of any length: str() writes it, and
    decimal beyond the digit limit (see parse_int).  A value that is not
    exactly an int, such as a bool, is written as str(Decimal(n)) writes
    it, so True is "1"."""
    if type(n) is int:
        try:
            return str(n)
        except ValueError:
            pass
    from decimal import Decimal

    return str(Decimal(n))


def letter_str(gen, exp: int) -> str:
    """A letter in the input syntax, after the owner's dot: gen or gen^exp."""
    name = gen if isinstance(gen, str) else int_str(gen)
    return name if exp == 1 else f"{name}^{int_str(exp)}"
