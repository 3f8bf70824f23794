"""Path forms, Britton reduction and the word problem in the fundamental
group.

Elements are manipulated as path words: alternating vertex-group syllables
and stable letters whose edge sequence is a closed path based at some
vertex.  Vertex syllables keep exponents as arbitrary-precision integers;
pinch rewriting only does exponent arithmetic, so words like v^(3^20) stay
one letter long.  A path form normalises each syllable once.

Tokens are the flat exchange format, which ``cli`` reads from text and
renders back:
    ("g", vertex, generator, exponent)   vertex-group letter
    ("t", edge, exponent)                stable letter power
"""

from __future__ import annotations

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
    tree_steps,
    record,
)

Token = tuple


# -- the normal form of a vertex word, by the vertex-group kind ----------------


def vw_normalize(kind: VertexGroupKind, w: VertexWord) -> VertexWord:
    if isinstance(kind, Free):
        return fw.free_reduce(w)
    return dih.element_to_word(w.vertex, dih.word_to_element(w))


# -- path words ---------------------------------------------------------------


@record
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
    """The tokens of a path word; the stable-letter tokens of one step are
    one object."""
    out = tokens_of_vertex_word(p.head)
    stable: dict[SignedEdge, Token] = {}
    for step, w in p.tail:
        tok = stable.get(step)
        if tok is None:
            tok = stable[step] = ("t", step[0], step[1])
        out.append(tok)
        if w.letters:
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
    The empty syllables of one vertex are one object, and so are the
    (step, empty syllable) pairs of one step.
    """
    tokens = list(tokens)
    if base is None:
        base = _infer_base(graph, tokens)
    kinds = graph.index.kinds
    if base not in kinds:
        raise GoghError(f"UnknownVertex: {base!r}")
    pairs: list[tuple] = []  # (step into the syllable, syllable); None at the head
    step_in = None
    current = base
    letters: list[tuple] = []  # the raw letters of the syllable at current
    empty_words: dict[str, VertexWord] = {}
    empty_pairs: dict[SignedEdge | None, tuple] = {}

    def close() -> None:
        if letters:
            pairs.append((step_in, vw_normalize(kinds[current], VertexWord(current, tuple(letters)))))
            letters.clear()
            return
        pair = empty_pairs.get(step_in)
        if pair is None:
            word = empty_words.get(current)
            if word is None:
                word = empty_words[current] = VertexWord(current, ())
            pair = empty_pairs[step_in] = (step_in, word)
        pairs.append(pair)

    def walk(path) -> None:
        nonlocal current, step_in
        for step in path:
            close()
            step_in = step
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
    return PathWord(base, pairs[0][1], tuple(pairs[1:]))


def _infer_base(graph: GraphOfGroups, tokens) -> str:
    for tok in tokens:
        if tok[0] == "g":
            return tok[1]
        step = (tok[1], 1 if tok[2] > 0 else -1)
        return edge_endpoints(graph, step)[0]
    return min(graph.vertex_ids())


def _image_data(kind: VertexGroupKind, att: VertexWord):
    """What membership in the cyclic subgroup <att> needs, read once.

    A dihedral attachment gives its rotation exponent, an int (validation
    admits only r^k).  A free one gives its primitive-root data as a tuple
    (c^-1, c, root, n) of letters and the exponent, att = c root^n c^-1.
    """
    if isinstance(kind, DihedralInfinite):
        return dih.word_to_element(att).k
    rd = fw.primitive_root(att.letters)
    c = rd.conjugator
    return fw.inv_letters(c), c, rd.root, rd.exponent


def _exponent_in_image(data, g) -> int | None:
    """k with g = att^k for the attachment that data (from _image_data)
    describes, else None.  g is a DihedralElement when data is a rotation
    exponent, else the freely reduced letters of a free word, a tuple or a
    list.  Against a one-letter root, a g of more than 2|c| + 1 letters is
    rejected before any letter is read.  Otherwise g is compared block by
    block with root^q when c is empty, and c^-1 g c is compared so when it
    is not (see _conjugate_power_of)."""
    if isinstance(data, int):
        if g.eps or g.k % data:
            return None
        return g.k // data
    if not g:
        return 0
    cinv, c, root, n = data
    if len(root) == 1 and len(g) > 2 * len(c) + 1:
        return None  # c^-1 g c is one letter only if g has at most 2|c| + 1
    q = _conjugate_power_of(cinv, g, c, root) if c else _power_of(g, root)
    if q is None or q % n:
        return None
    return q // n


def _conjugate_power_of(cinv: fw.Letters, g, c: fw.Letters, root: fw.Letters) -> int | None:
    """q with c^-1 g c == root^q as reduced words, else None, for reduced
    nonempty letters g and c.

    Free reduction of c^-1 g c cancels only at g's two seams, within |c| + 1
    letters of each end: so once g has |root| letters more than 2(|c| + 1),
    the product is head + the middle of g + tail, each seam computed from
    |c| + 1 letters of g.  Its length and its first and last blocks are
    read first, and the middle is copied and compared block by block only
    when both blocks fit.  A syllable that grows by merges and is tested
    after each is then read in time linear in |c| and |root| per test, as
    long as its ends are no power of the root."""
    h, width = len(c) + 1, len(root)
    if len(g) < 2 * h + width:
        return _power_of(fw.mul_letters(cinv, g, c), root)
    stop = len(g) - h
    head, tail = fw.mul_letters(cinv, g[:h]), fw.mul_letters(g[stop:], c)
    if (len(head) + stop - h + len(tail)) % width:
        return None
    first = (head + tuple(g[h : h + width]))[:width]
    last = (tuple(g[stop - width : stop]) + tail)[-width:]
    if first != last or first not in (root, fw.inv_letters(root)):
        return None
    return _power_of(head + tuple(g[h:stop]) + tail, root)


def _power_of(letters, root: fw.Letters) -> int | None:
    """q with letters == root^q as reduced words, else None.  letters is a
    tuple or a list; a mismatch stops the comparison at its block."""
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
    if all(tuple(letters[i * width : (i + 1) * width]) == root for i in range(n)):
        return n
    iroot = fw.inv_letters(root)
    if all(tuple(letters[i * width : (i + 1) * width]) == iroot for i in range(n)):
        return -n
    return None


def _pinch_entry(graph: GraphOfGroups, step: SignedEdge) -> tuple:
    """(image data of the step's target attachment, its source attachment)
    for a pinch across the signed edge.  The source attachment is kept as
    its letters in a free vertex and as its element in a dihedral one."""
    source, target = edge_attachments(graph, step)
    kinds = graph.index.kinds
    data = _image_data(kinds[target.vertex], target)
    if isinstance(kinds[source.vertex], Free):
        return data, source.letters
    return data, dih.word_to_element(source)


def _freeze(vertex: str, body) -> VertexWord:
    """The normal form of an open syllable: a list of free letters or a
    dihedral element."""
    if type(body) is list:
        return VertexWord(vertex, tuple(body))
    return dih.element_to_word(vertex, body)


def britton_reduce(graph: GraphOfGroups, w: PathWord) -> PathWord:
    """Remove pinches t_e g t_e^-1 with g in the edge image, leftmost first.

    One left-to-right pass over a stack of (step, syllable), the head at
    the bottom: the stack never holds a pinch, so an incoming step can only
    pinch the syllable on top.  A pinch pops it and merges the replacing
    power of the opposite attachment, computed arithmetically, and the
    incoming syllable into the syllable below.  The output contains no
    pinch, so by the normal-form property it is the identity only if it is
    a single trivial vertex syllable.

    The syllables of w are in normal form, as to_path_form builds them.
    The three parts of a merge are each in normal form, so free letters
    cancel only where two parts meet, and dihedral syllables combine as
    elements s^eps r^k.  A syllable that receives a merge stays open (a
    list of letters or an element) until the pass ends.  Each signed edge's
    pinch data is read once per call.  So the pass takes time linear in
    the steps, the letters of the input and of the replacing powers, and
    the letters that cancel; a pinch test against a conjugated multi-letter
    root reads the whole syllable only when its two ends are blocks of a
    power of the root (see _conjugate_power_of).  The output does not
    depend on where letters cancel, since free reduction and s^eps r^k are
    unique.
    """
    entries: dict[SignedEdge, tuple] = {}  # signed edge -> _pinch_entry
    # the input's (step, syllable) pairs, or (step, open syllable) after a merge
    stack: list[tuple] = [(None, w.head)]
    for pair in w.tail:
        step = pair[0]
        top_step, top = stack[-1]
        if top_step is None or top_step[0] != step[0] or top_step[1] == step[1]:
            stack.append(pair)
            continue
        entry = entries.get(top_step)
        if entry is None:
            entry = entries[top_step] = _pinch_entry(graph, top_step)
        data, replace = entry
        if type(top) is VertexWord:
            top = dih.word_to_element(top) if isinstance(data, int) else top.letters
        k = _exponent_in_image(data, top)
        if k is None:
            stack.append(pair)
            continue
        stack.pop()
        below_step, below = stack[-1]
        if type(replace) is tuple:
            if type(below) is VertexWord:
                below = list(below.letters)
                stack[-1] = (below_step, below)
            fw.extend_reduced(below, fw.pow_letters(replace, k))
            fw.extend_reduced(below, pair[1].letters)
        else:
            if type(below) is VertexWord:
                below = dih.word_to_element(below)
            below = dih.dmul(dih.dmul(below, dih.dpow(replace, k)), dih.word_to_element(pair[1]))
            stack[-1] = (below_step, below)
    head = stack[0][1]
    if type(head) is not VertexWord:
        head = _freeze(w.head.vertex, head)
    tail = tuple(
        pair if type(pair[1]) is VertexWord
        else (pair[0], _freeze(edge_endpoints(graph, pair[0])[1], pair[1]))
        for pair in stack[1:]
    )
    return PathWord(w.base, head, tail)


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
