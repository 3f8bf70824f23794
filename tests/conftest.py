"""Shared fixtures: reference graphs, random instance generators, and
independent brute-force oracles used to cross-check the library."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter, deque
from fractions import Fraction
from typing import NamedTuple

import pytest

from gogh.checks import verify_parametrization
from gogh.cli import parse, serialize
from gogh.dihedral import DihedralElement
from gogh.model import (
    DIHEDRAL_R,
    DihedralInfinite,
    EdgeRecord,
    Free,
    GraphOfGroups,
    VertexWord,
    make_graph,
)
from gogh.parametrize import LinearParametrization
from oracles import reference_verify_parametrization, vw_pow

BS32_TEXT = """\
vertex v free 1
edge e from=v to=v img_from="v.1^3" img_to="v.1^2"
"""

TREFOIL_TEXT = """\
vertex u free 1
vertex v free 1
edge e from=u to=v img_from="u.1^2" img_to="v.1^3"
"""

F2_EXAMPLE_TEXT = """\
vertex v free 2
edge e from=v to=v img_from="v.1^3" img_to="v.2 v.1^2 v.2^-1"
"""

KLEIN_TEXT = """\
vertex v free 1
edge e from=v to=v img_from="v.1^-1" img_to="v.1"
"""

DIHEDRAL_LOOP_TEXT = """\
vertex d dihedral
edge e from=d to=d img_from="d.r^2" img_to="d.r^2"
"""


@pytest.fixture
def bs32():
    return parse(BS32_TEXT)


@pytest.fixture
def trefoil():
    return parse(TREFOIL_TEXT)


@pytest.fixture
def f2_example():
    return parse(F2_EXAMPLE_TEXT)


@pytest.fixture
def klein():
    return parse(KLEIN_TEXT)


@pytest.fixture
def dihedral_loop():
    return parse(DIHEDRAL_LOOP_TEXT)


def fixture_graphs():
    return {
        "bs32": parse(BS32_TEXT),
        "trefoil": parse(TREFOIL_TEXT),
        "f2_example": parse(F2_EXAMPLE_TEXT),
        "klein": parse(KLEIN_TEXT),
        "dihedral_loop": parse(DIHEDRAL_LOOP_TEXT),
    }


class Clock:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.2f}s)", flush=True)
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s ({elapsed:.2f}s)"


def lollipop(length: int, path_conjugated=False, triangle_conjugated=False) -> str:
    """A path of rank-2 vertices p000000 .. joined by `length` balanced
    edges, ending in a triangle q1 q2 q3 through x and y whose modulus is
    3/2.  Conjugated images read c.2 c.1^k c.2^-1 instead of c.1^k.  The
    path's vertices and edges come first in id order."""

    def image(v, k, conjugated):
        power = f"{v}.1^{k}" if k != 1 else f"{v}.1"
        return f"{v}.2 {power} {v}.2^-1" if conjugated else power

    names = [f"p{i:06d}" for i in range(length + 1)]
    lines = [f"vertex {v} free 2" for v in names + ["x", "y"]]
    for a, b in zip(names, names[1:]):
        src = image(a, 1, path_conjugated)
        lines.append(f'edge {a} from={a} to={b} img_from="{src}" img_to="{b}.1"')
    p = names[-1]
    for edge, a, b, k, l in (("q1", p, "x", 3, 2), ("q2", "x", "y", 1, 1), ("q3", "y", p, 1, 1)):
        src, dst = image(a, k, triangle_conjugated), image(b, l, False)
        lines.append(f'edge {edge} from={a} to={b} img_from="{src}" img_to="{dst}"')
    return "\n".join(lines) + "\n"


def multi_letter_cycle(n: int) -> str:
    """An n-cycle of rank-2 vertices whose edges read
    t (w.1 w.2)^2 t^-1 = (v.1 v.2)^3, written out letter by letter: every
    root is the two-letter v.1 v.2, the modulus is (3/2)^n and the witness
    exponents are 2^n and 3^n, so the witness relation written out in
    letters has about 2 (2^n + 3^n) letters."""
    names = [f"v{i:04d}" for i in range(n)]
    lines = [f"vertex {v} free 2" for v in names]
    for i, a in enumerate(names):
        b = names[(i + 1) % n]
        img_from = " ".join([f"{a}.1 {a}.2"] * 3)
        img_to = " ".join([f"{b}.1 {b}.2"] * 2)
        lines.append(f'edge e{i:04d} from={a} to={b} img_from="{img_from}" img_to="{img_to}"')
    return "\n".join(lines) + "\n"


# -- groupoid arcs and the reported cycle ----------------------------------------


class Arc(NamedTuple):
    """A groupoid arc written out here from its edge's record: the pass
    reports an arc as its step (label, sign) alone."""

    src: object
    dst: object
    weight: Fraction
    label: str
    sign: int


def edge_arc(occurrences: dict, label: str, sign: int) -> Arc:
    """An arc of an edge, from the edge's record: sign +1 runs from the
    target-side node with weight n_s/n_t, sign -1 is its inverse."""
    (node_s, n_s, _), (node_t, n_t, _) = occurrences[label]
    if sign > 0:
        return Arc(node_t, node_s, Fraction(n_s, n_t), label, 1)
    return Arc(node_s, node_t, Fraction(n_t, n_s), label, -1)


def arc_conjugator(occurrences: dict, label: str, sign: int) -> list:
    """The tokens of the conjugator g_far^-1 t^sign g_near of the arc
    (label, sign), from its edge's record: it carries the near (src) root's
    power n_near to the far (dst) root's power n_far."""
    source, target = occurrences[label]
    (near, _, g_near), (far, _, g_far) = (target, source) if sign > 0 else (source, target)
    inverse = [("g", far.vertex, x, -y) for x, y in reversed(g_far)]
    return inverse + [("t", label, sign)] + [("g", near.vertex, x, y) for x, y in g_near]


def all_arcs(occurrences: dict) -> list[Arc]:
    """Both arcs of every edge, in id order, +1 first."""
    return [edge_arc(occurrences, label, sign) for label in occurrences for sign in (1, -1)]


def check_cycle_contract(verdict) -> None:
    """The reported unbalanced cycle is a closed chain of its edges' arcs,
    each a (label, sign) step with sign the int +1 or -1, that visits no
    node twice; it holds the edge it names (its least edge id) and so the
    witness base, its first node; and its modulus is the product of its arc
    weights, never +-1."""
    assert verdict.cycle
    for step in verdict.cycle:
        assert type(step) is tuple and len(step) == 2, step
        assert type(step[0]) is str and type(step[1]) is int and step[1] in (1, -1), step
    cycle = [edge_arc(verdict.occurrences, *step) for step in verdict.cycle]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert a.dst == b.src, (a, b)
    product = Fraction(1)
    for arc in cycle:
        product *= arc.weight
    nodes = [arc.src for arc in cycle]
    assert len(set(nodes)) == len(nodes), nodes
    assert verdict.edge in {arc.label for arc in cycle}
    assert product == verdict.modulus and abs(product) != 1, (product, verdict.modulus)


# -- parametrization certificates ---------------------------------------------

FOREIGN_IMAGES = ("r", 1.0, None)  # images that are no element of D-infinity


def certificate_mutants(graph: GraphOfGroups, phi):
    """Every single mutation of a parametrization: at each generator image
    its k moved by one either way, its eps flipped, the generator dropped or
    the image replaced by a str, a float or None; each vertex dropped; and at
    each edge a reflection added (on a tree edge too) or removed, or the
    stable image replaced by a str, a float or None."""
    vertex_images, stable = phi.vertex_images, dict(phi.stable_images)

    def at_vertex(i, images):
        vertex = vertex_images[i][0]
        return LinearParametrization(
            vertex_images[:i] + ((vertex, images),) + vertex_images[i + 1 :], phi.stable_images
        )

    for i, (_, images) in enumerate(vertex_images):
        yield LinearParametrization(vertex_images[:i] + vertex_images[i + 1 :], phi.stable_images)
        for j, (gen, x) in enumerate(images):
            yield at_vertex(i, images[:j] + images[j + 1 :])
            moved = (
                DihedralElement(x.eps, x.k + 1),
                DihedralElement(x.eps, x.k - 1),
                DihedralElement(1 - x.eps, x.k),
            )
            for y in moved + FOREIGN_IMAGES:
                yield at_vertex(i, images[:j] + ((gen, y),) + images[j + 1 :])
    for e in graph.edges:
        changed = dict(stable)
        if changed.pop(e.name, None) is None:
            changed[e.name] = DihedralElement(1, 0)
        yield LinearParametrization(vertex_images, tuple(changed.items()))
        for y in FOREIGN_IMAGES:
            yield LinearParametrization(vertex_images, tuple({**stable, e.name: y}.items()))


def check_against_reference(graph: GraphOfGroups, phi) -> Counter:
    """Assert that the checker and the reference checker in ``oracles``
    give the same (ok, report), report order included, on phi and on each
    single mutation of it; how many of those each verdict took."""
    seen = Counter()
    for candidate in (phi, *certificate_mutants(graph, phi)):
        got = verify_parametrization(graph, candidate)
        assert got == reference_verify_parametrization(graph, candidate), (candidate, got)
        seen[got[0]] += 1
    return seen


# -- random instances ----------------------------------------------------------


def _random_kind(rng: random.Random, rank2_prob=0.0):
    roll = rng.random()
    if roll < rank2_prob:
        return Free(2)
    if roll < rank2_prob + (1 - rank2_prob) * 0.6:
        return Free(1)
    return DihedralInfinite()


def _random_attachment(rng: random.Random, vertex, kind, exp_max):
    k = rng.choice([x for x in range(-exp_max, exp_max + 1) if x])
    if isinstance(kind, DihedralInfinite):
        return VertexWord(vertex, ((DIHEDRAL_R, k),))
    if kind.rank == 1:
        return VertexWord(vertex, ((1, k),))
    style = rng.random()
    a, b = rng.sample([1, 2], 2)
    if style < 0.6:
        return VertexWord(vertex, ((a, k),))
    if style < 0.85:
        c = rng.choice([1, -1])
        return VertexWord(vertex, ((b, c), (a, k), (b, -c)))
    k = rng.choice([1, -1]) * rng.randint(1, max(1, exp_max // 2))
    word = ((a, 1), (b, 1)) if k > 0 else ((b, -1), (a, -1))
    return VertexWord(vertex, word * abs(k))


def random_tree_graph(rng: random.Random, v_max=6, exp_max=9) -> GraphOfGroups:
    n = rng.randint(1, v_max)
    vertices = [(f"v{i}", _random_kind(rng)) for i in range(n)]
    kinds = dict(vertices)
    edges = []
    for i in range(1, n):
        p = rng.randrange(i)
        src, tgt = (f"v{p}", f"v{i}") if rng.random() < 0.5 else (f"v{i}", f"v{p}")
        edges.append(
            EdgeRecord(
                name=f"e{i}",
                source=src,
                target=tgt,
                attachment_source=_random_attachment(rng, src, kinds[src], exp_max),
                attachment_target=_random_attachment(rng, tgt, kinds[tgt], exp_max),
            )
        )
    return make_graph(vertices, edges)


def random_graph(rng: random.Random, v_max=4, e_max=5, exp_max=5, rank2_prob=0.15) -> GraphOfGroups:
    n = rng.randint(1, v_max)
    vertices = [(f"v{i}", _random_kind(rng, rank2_prob)) for i in range(n)]
    kinds = dict(vertices)
    edges = []
    for i in range(1, n):
        p = rng.randrange(i)
        src, tgt = (f"v{p}", f"v{i}") if rng.random() < 0.5 else (f"v{i}", f"v{p}")
        edges.append((src, tgt))
    extra = rng.randint(0, max(0, e_max - len(edges)))
    for _ in range(extra):
        edges.append((f"v{rng.randrange(n)}", f"v{rng.randrange(n)}"))
    records = []
    for i, (src, tgt) in enumerate(edges):
        records.append(
            EdgeRecord(
                name=f"e{i}",
                source=src,
                target=tgt,
                attachment_source=_random_attachment(rng, src, kinds[src], exp_max),
                attachment_target=_random_attachment(rng, tgt, kinds[tgt], exp_max),
            )
        )
    return make_graph(vertices, records)


def random_word_tokens(rng: random.Random, graph: GraphOfGroups, syllables=8, exp_max=4):
    tokens = []
    vertex_ids = graph.vertex_ids()
    edge_ids = graph.edge_ids()
    for _ in range(rng.randint(1, syllables)):
        if edge_ids and rng.random() < 0.45:
            tokens.append(("t", rng.choice(edge_ids), rng.choice([1, -1])))
        else:
            v = rng.choice(vertex_ids)
            kind = graph.kind(v)
            exp = rng.choice([x for x in range(-exp_max, exp_max + 1) if x])
            if isinstance(kind, DihedralInfinite):
                gen = rng.choice([DIHEDRAL_R, DIHEDRAL_R, "s"])
                tokens.append(("g", v, gen, 1 if gen == "s" else exp))
            else:
                tokens.append(("g", v, rng.randint(1, kind.rank), exp))
    return tokens


# -- relabeling ----------------------------------------------------------------


def relabel_graph(graph: GraphOfGroups, vmap: dict[str, str]) -> GraphOfGroups:
    def rw(word: VertexWord) -> VertexWord:
        return VertexWord(vmap[word.vertex], word.letters)

    vertices = [(vmap[v], k) for v, k in graph.vertices]
    edges = [
        EdgeRecord(
            name=e.name,
            source=vmap[e.source],
            target=vmap[e.target],
            attachment_source=rw(e.attachment_source),
            attachment_target=rw(e.attachment_target),
        )
        for e in graph.edges
    ]
    return make_graph(vertices, edges)


def canonical_relabel(graph: GraphOfGroups) -> GraphOfGroups:
    """Brute-force canonical vertex labels: the bijection onto v0..vn that
    minimizes the serialized text.  Label-independent for graphs this size."""
    ids = graph.vertex_ids()
    best = None
    for perm in itertools.permutations(range(len(ids))):
        vmap = {v: f"v{perm[i]}" for i, v in enumerate(ids)}
        candidate = relabel_graph(graph, vmap)
        text = serialize(candidate)
        if best is None or text < best[0]:
            best = (text, candidate)
    return best[1]


# -- independent word-problem oracle --------------------------------------------
#
# Breadth-first rewriting: pinch moves both directions plus stable-letter
# cancellation, on eagerly normalized token strings.  Membership in cyclic
# edge images is decided by trial powers, independently of the library's
# root machinery.  Sound always; complete only within depth and node budget.


class OracleGaveUp(Exception):
    pass


def _norm_tokens(graph, tokens):
    from gogh.words import vw_normalize

    flat = []
    for tok in tokens:
        if tok[0] == "t":
            sign = 1 if tok[2] > 0 else -1
            flat.extend(("t", tok[1], sign) for _ in range(abs(tok[2])))
        elif tok[3] != 0:
            flat.append(tok)
    while True:
        out = []
        i = 0
        n = len(flat)
        while i < n:
            tok = flat[i]
            if tok[0] == "g":
                j = i
                letters = []
                while j < n and flat[j][0] == "g" and flat[j][1] == tok[1]:
                    letters.append((flat[j][2], flat[j][3]))
                    j += 1
                w = vw_normalize(graph.kind(tok[1]), VertexWord(tok[1], tuple(letters)))
                out.extend(("g", tok[1], g, e) for g, e in w.letters)
                i = j
            else:
                if out and out[-1][0] == "t" and out[-1][1] == tok[1] and out[-1][2] == -tok[2]:
                    out.pop()
                else:
                    out.append(tok)
                i += 1
        if out == flat:
            return tuple(out)
        flat = out


def _trial_power(graph, vertex, segment, attachment, k_max=None):
    """k with segment == attachment^k in the vertex group, by trial powers.

    Single-letter cases reduce to exponent division; multi-letter ones try
    increasing powers until they outgrow the segment.
    """
    from gogh.words import vw_normalize

    kind = graph.kind(vertex)
    seg = vw_normalize(kind, VertexWord(vertex, tuple((g, e) for _, _, g, e in segment)))
    att = vw_normalize(kind, attachment)
    if seg.is_identity:
        return 0
    if len(att.letters) == 1 and len(seg.letters) == 1:
        (g1, base), (g2, m) = att.letters[0], seg.letters[0]
        if g1 != g2 or m % base:
            return None
        k = m // base
        return k if k_max is None or abs(k) <= k_max else None
    k = 1
    while k_max is None or k <= k_max:
        power = vw_pow(kind, att, k)
        if power == seg:
            return k
        if vw_pow(kind, att, -k) == seg:
            return -k
        if sum(abs(e) for _, e in power.letters) > sum(abs(e) for _, e in seg.letters):
            return None
        if k > 4096:
            raise OracleGaveUp()
        k += 1
    return None


def rewriting_bfs_trivial(graph, tokens, depth=10, node_cap=600):
    """True if bidirectional relation rewriting reaches the empty word,
    False if the bounded search space is exhausted, None on blown budget.

    The input is closed into path form first (pure insertion of spanning
    tree letters, so the element is unchanged); the rewriting itself is
    independent of the library's reduction machinery.
    """
    from gogh.words import to_path_form, tokens_of_path

    start = _norm_tokens(graph, tokens_of_path(to_path_form(graph, tokens)))
    if not start:
        return True
    seen = {start}
    queue = deque([(start, 0)])
    visited = 0
    exhausted = True
    while queue:
        state, d = queue.popleft()
        if d >= depth:
            exhausted = False
            continue
        visited += 1
        if visited > node_cap:
            return None
        try:
            moves = list(_rewrite_moves(graph, state))
        except OracleGaveUp:
            return None
        for nxt in moves:
            nxt = _norm_tokens(graph, nxt)
            if not nxt:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, d + 1))
    return False if exhausted else None


def _rewrite_moves(graph, state):
    from gogh.model import edge_attachments
    from gogh.words import tokens_of_vertex_word

    n = len(state)
    t_positions = [i for i, tok in enumerate(state) if tok[0] == "t"]
    # pinch: t_e (vertex segment) t_e^-1 -> other attachment power
    for a, b in zip(t_positions, t_positions[1:]):
        ta, tb = state[a], state[b]
        if ta[1] != tb[1] or ta[2] != -tb[2]:
            continue
        segment = state[a + 1 : b]
        step = (ta[1], ta[2])
        src_att, tgt_att = edge_attachments(graph, step)
        if any(tok[1] != tgt_att.vertex for tok in segment):
            continue
        k = _trial_power(graph, tgt_att.vertex, segment, tgt_att)
        if k is None:
            continue
        kind = graph.kind(src_att.vertex)
        repl = tokens_of_vertex_word(vw_pow(kind, src_att, k))
        yield state[:a] + tuple(repl) + state[b + 1 :]
    # un-pinch: a whole vertex run equal to a source attachment power expands
    # back through the edge
    runs = []
    i = 0
    while i < n:
        if state[i][0] == "g":
            j = i
            while j < n and state[j][0] == "g" and state[j][1] == state[i][1]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    for i, j in runs:
        vertex = state[i][1]
        for e in graph.edges:
            for sign in (1, -1):
                step = (e.name, sign)
                src_att, tgt_att = edge_attachments(graph, step)
                if src_att.vertex != vertex:
                    continue
                k = _trial_power(graph, vertex, state[i:j], src_att, k_max=4)
                if not k:
                    continue
                kind = graph.kind(tgt_att.vertex)
                middle = tokens_of_vertex_word(vw_pow(kind, tgt_att, k))
                yield (
                    state[:i]
                    + (("t", e.name, sign),)
                    + tuple(middle)
                    + (("t", e.name, -sign),)
                    + state[j:]
                )
