"""The checkers of the HHG and NotHHG certificates.

A linear parametrization into the infinite dihedral group is re-verified
relation by relation on the graph it claims to parametrize, the
provenance of a derived graph of 2-ended groups is re-verified identity by
identity in the original vertex groups, and an almost Baumslag-Solitar
witness is re-verified lemma by lemma along the cycle it was built from.
All read their evidence by its attributes and decide with the free word
arithmetic of ``freewords`` and one dihedral arithmetic of their own: an
element of D-infinity is the int pair (eps, k) of its normal form
s^eps r^k, multiplied by ``_mul``, so no record is built per product.  A
dihedral word's pair is its image under r -> (0, 1) and s -> (1, 0).  The
parametrization checker evaluates each relation on pairs, and the other
two rebuild attachments as g R^n g^-1 with ``_rebuilds``.  This module
imports no module that produces a verdict, an edge class or attachment
data, nor ``words`` or ``dihedral``, so what the checkers reach is
``model``, ``freewords`` and this file.  Evidence that does not fit is
reported, not raised.
"""

from __future__ import annotations

from itertools import chain

from . import freewords as fw
from .model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralElement,
    DihedralInfinite,
    Free,
    GraphOfGroups,
    VertexWord,
    spanning_tree,
)


def _pair(x):
    """(eps, k) for the normal form s^eps r^k of an element of D-infinity,
    or None for anything else.  eps and k must be ints exactly: a bool
    is not read as 0 or 1."""
    if isinstance(x, DihedralElement):
        eps, k = x.eps, x.k
        if type(eps) is int and eps in (0, 1) and type(k) is int:
            return eps, k
    return None


def _mul(x: tuple, y: tuple) -> tuple:
    # s^a r^m * s^b r^n = s^(a+b) r^((-1)^b m + n), as dihedral.dmul
    return x[0] ^ y[0], (-x[1] if y[0] else x[1]) + y[1]


def _inv(x: tuple) -> tuple:
    return x if x[0] else (0, -x[1])


# the letters' own pairs: a dihedral word's pair under them is its normal form
_LETTER_PAIRS = {DIHEDRAL_R: (0, 1), DIHEDRAL_S: (1, 0)}
_UNMAPPED = object()  # the stable image of an edge that phi leaves out


def _product(images: dict, letters) -> tuple:
    """The pair of a word of several letters under its vertex's image pairs."""
    out = (0, 0)
    for gen, n in letters:
        eps, k = images[gen]
        out = _mul(out, (0, k * n) if not eps else (1, k) if n % 2 else (0, 0))
    return out


def verify_parametrization(graph: GraphOfGroups, phi):
    """(ok, report): every image is an element of the infinite dihedral
    group, every edge relation holds under dihedral multiplication and every
    vertex restriction has finite kernel and finite-index image.

    phi is read by its ``vertex_images`` and ``stable_images`` pairs, as a
    ``parametrize.LinearParametrization`` holds them.  An element is read
    as its normal form, an int pair (eps, k) with eps 0 or 1 and no bool
    for either, and every relation is evaluated and compared on pairs: a
    one-letter attachment g^n maps to (0, k n), or for a reflection (1, k)
    to itself or the identity by the parity of n, and only a word of
    several letters or a conjugation by a stable image multiplies pairs.
    Each distinct images object is read once, keyed by ``id``: the
    producer shares one images tuple among the vertices of one kind and
    exponent.  A key cannot be reused within the call, since the map that
    holds it also holds its object until the call returns.  A relation
    touching a vertex or stable letter whose image is not a group element is
    not evaluated."""
    report: list[str] = []
    read: dict = {}  # id of an images object -> (it, {gen: pair or None}, gens outside)
    maps: dict = {}  # vertex -> the read entry of its images
    for vertex, images in phi.vertex_images:
        entry = read.get(id(images))
        if entry is None:
            mapped, bad = {}, []
            for gen, x in dict(images).items():
                mapped[gen] = p = _pair(x)
                if p is None:
                    bad.append(gen)
            entry = read[id(images)] = (images, mapped, bad)
        maps[vertex] = entry
    stable = dict(phi.stable_images)
    outside: set[str] = set()  # vertices with an image outside the group
    for vertex, kind in graph.vertices:
        entry = maps.get(vertex)
        if entry is None:
            report.append(f"vertex {vertex}: no images assigned")
            continue
        _, images, bad = entry
        if bad:
            for gen in bad:
                report.append(f"vertex {vertex}: image of {gen} is not an element of D-infinity")
            outside.add(vertex)
            continue
        if isinstance(kind, DihedralInfinite):
            r_img = images.get(DIHEDRAL_R)
            s_img = images.get(DIHEDRAL_S)
            if r_img is None or s_img is None:
                report.append(f"vertex {vertex}: dihedral generators not assigned")
                continue
            if r_img[0] or not r_img[1]:
                report.append(f"vertex {vertex}: rotation image has finite order (infinite kernel)")
                continue
            if s_img[0] != 1:
                report.append(f"vertex {vertex}: reflection image is not a reflection")
                continue
            # cannot fail once the checks above pass: with r = (0, k) and
            # s = (1, m), (1, m)(0, k)(1, m) = (1, m + k)(1, m) = (0, -k),
            # which is r^-1; the defining relation is still checked as stated
            if _mul(_mul(s_img, r_img), s_img) != _inv(r_img):
                report.append(f"vertex {vertex}: defining relation srs = r^-1 broken")
        elif kind.rank == 1:
            g_img = images.get(1)
            if g_img is None:
                report.append(f"vertex {vertex}: generator not assigned")
                continue
            if g_img[0] or not g_img[1]:
                report.append(f"vertex {vertex}: generator image has finite order (infinite kernel)")
        else:
            report.append(f"vertex {vertex}: free rank {kind.rank} admits no quasi-isometric map")
    tree = spanning_tree(graph)
    for e in graph.edges:
        t_img = stable.get(e.name, _UNMAPPED)
        t = None  # the stable image's pair, when it conjugates
        if t_img is not _UNMAPPED:  # an edge left out maps to the identity
            t = _pair(t_img)
            if t is None:
                report.append(f"edge {e.name}: stable letter image is not an element of D-infinity")
                continue
            if t == (0, 0):
                t = None
            elif e.name in tree:
                report.append(f"edge {e.name}: tree stable letter must map to the identity")
        source, target = e.source, e.target
        if source in outside or target in outside:
            continue
        try:
            images, letters = maps[target][1], e.attachment_target.letters
            if len(letters) == 1:
                ((gen, n),) = letters
                eps, k = images[gen]
                lhs = (0, k * n) if not eps else (1, k) if n % 2 else (0, 0)
            else:
                lhs = _product(images, letters)
            if t is not None:
                lhs = _mul(_mul(t, lhs), _inv(t))
            images, letters = maps[source][1], e.attachment_source.letters
            if len(letters) == 1:
                ((gen, n),) = letters
                eps, k = images[gen]
                rhs = (0, k * n) if not eps else (1, k) if n % 2 else (0, 0)
            else:
                rhs = _product(images, letters)
        except KeyError:
            report.append(f"edge {e.name}: relation references unassigned generators")
            continue
        if lhs != rhs:
            report.append(f"edge {e.name}: relation image ({lhs[0]},{lhs[1]}) != ({rhs[0]},{rhs[1]})")
    return (not report, report)


def provenance_holds(graph: GraphOfGroups, cg) -> bool:
    """Check u = g * root^n * g^-1 in the original vertex group for both
    sides of every class edge, as ``_rebuilds`` does: u is the side's
    attachment in graph, g the conjugator letters of that side in the
    class's record of the edge, gen^n its derived attachment, and root the
    root of the derived vertex's origin node, which must lie in u's vertex.

    The derived graph must hold nothing else: its edges are exactly the
    class's edges, in the same sorted order, and each derived vertex has an
    origin node at a vertex of graph, of the 2-ended kind that vertex
    yields (dihedral for a dihedral vertex, free of rank one otherwise).

    cg is read by its ``graph``, ``edge_class`` and ``vertex_origin``, as a
    ``conjgraph.ConjugacyGraph`` holds them.  Evidence that does not fit the
    class (a class edge missing from either graph, repeated or out of
    order, a derived edge that is no class edge, an edge with no record or
    a record that is no (source, target) pair of attachment data, a derived
    attachment of more than one letter, a derived vertex with no origin,
    with an origin that is no node or of the wrong kind, a conjugator that
    is no tuple of letters, a root or conjugator letter that is no
    generator of u's vertex) fails the check instead of raising."""
    original, derived_edges = graph.index.edges, cg.graph.index.edges
    edges, occurrences = cg.edge_class.edges, cg.edge_class.occurrences
    if list(edges) != list(cg.graph.edge_ids()):
        return False
    for dv, kind in cg.graph.vertices:
        try:
            at = graph.index.kinds.get(cg.vertex_origin[dv].vertex)
        except (AttributeError, KeyError, TypeError):  # no origin, or one that is no node
            return False
        if at is None or kind != (at if isinstance(at, DihedralInfinite) else Free(1)):
            return False
    for edge in edges:
        e, derived_edge = original.get(edge), derived_edges.get(edge)
        try:
            (_, _, g_s), (_, _, g_t) = occurrences.get(edge)
        except (TypeError, ValueError):  # no record, or not a pair of triples
            return False
        if e is None or derived_edge is None:
            return False
        for u, dv, derived, g in (
            (e.attachment_source, derived_edge.source, derived_edge.attachment_source, g_s),
            (e.attachment_target, derived_edge.target, derived_edge.attachment_target, g_t),
        ):
            origin = cg.vertex_origin[dv]
            if len(derived.letters) != 1 or origin.vertex != u.vertex:
                return False
            try:
                if not _rebuilds(graph.kind(u.vertex), origin.root, derived.letters[0][1], g, u):
                    return False
            except (AttributeError, TypeError, ValueError):  # a root or conjugator of no letters
                return False
    return True


def _letters_in(kind, letters) -> bool:
    """Whether letters are letters of the vertex group: generators 1..rank of
    a free group or r, s of a dihedral one, each with an int exponent."""
    if isinstance(kind, Free):
        rank = kind.rank
        return all(type(x) is int and 0 < x <= rank and type(y) is int for x, y in letters)
    return all(x in (DIHEDRAL_R, DIHEDRAL_S) and type(y) is int for x, y in letters)


def _rebuilds(kind, root: tuple, n: int, conj: tuple, att: VertexWord) -> bool:
    """Whether att = g R^n g^-1 in its vertex group, for the letters R of a
    root and the tuple g of a conjugator's letters.

    An attachment is a reduced free word or a dihedral r^k, so against a
    one-letter root x^r the word g x^(r n) g^-1, written out, is compared
    letter for letter first: equal letters prove the identity, and with no
    conjugator unequal letters disprove it.  Otherwise a free side is
    multiplied out as reduced letters and a dihedral side as the pairs
    (eps, k) of normal forms s^eps r^k.  A free root whose cyclic core has
    two or more letters has |R^n| >= |n| letters, so when |n| exceeds the
    letters of att and 2|g| the product cannot be att and the power is
    never built."""
    if type(conj) is not tuple:  # a None or [] would read as no conjugator
        return False
    if len(root) == 1:
        ((x, r),) = root
        if type(r) is not int:
            return False
        power = ((x, r * n),)
        if (conj + power + fw.inv_letters(conj) if conj else power) == att.letters:
            return True
        if not conj:
            return False
    if not (_letters_in(kind, root) and _letters_in(kind, conj)):
        return False
    if isinstance(kind, Free):
        core = fw.cyclic_reduce(fw.reduce_letters(root))[1]
        if len(core) > 1 and abs(n) > len(att.letters) + 2 * len(conj):
            return False
        return fw.mul_letters(conj, fw.pow_letters(root, n), fw.inv_letters(conj)) == att.letters
    g, (eps, k) = _product(_LETTER_PAIRS, conj), _product(_LETTER_PAIRS, root)
    power = (0, k * n) if not eps else (1, k) if n % 2 else (0, 0)
    return _mul(_mul(g, power), _inv(g)) == _product(_LETTER_PAIRS, att.letters)


def _root_exponent(kind, root: tuple, word: VertexWord):
    """m with word = R^m in its vertex group, for the letters R of a root of
    infinite order; None if R has finite order or word is no power of it.

    A free R is split as c u c^-1 with u cyclically reduced: c^-1 word c
    must be u^m, whose length (or, for a one-letter u, whose exponent)
    gives m, and R^m is then built and compared.  A dihedral R must be a
    rotation r^k, k != 0, and word a rotation by a multiple of k."""
    if not (_letters_in(kind, root) and _letters_in(kind, word.letters)):
        return None
    if isinstance(kind, Free):
        conj, core = fw.cyclic_reduce(fw.reduce_letters(root))
        if not core:
            return None
        u = fw.mul_letters(fw.inv_letters(conj), word.letters, conj)
        if len(core) == 1:
            ((x, r),) = core
            if len(u) > 1 or (u and (u[0][0] != x or u[0][1] % r)):
                return None
            m = u[0][1] // r if u else 0
        else:
            m, rest = divmod(len(u), len(core))
            if rest:
                return None
            if u[: len(core)] != core:
                m = -m
        return m if fw.pow_letters(root, m) == fw.reduce_letters(word.letters) else None
    (eps, k), (x_eps, x_k) = _product(_LETTER_PAIRS, root), _product(_LETTER_PAIRS, word.letters)
    if eps or not k or x_eps or x_k % k:
        return None
    return x_k // k


def witness_holds(graph: GraphOfGroups, witness, cycle, occurrences):
    """(ok, report): the almost Baumslag-Solitar witness a, s, i, j is
    certified lemma by lemma along the groupoid cycle it was built from.

    The witness is read by its ``a``, ``s``, ``i`` and ``j``, as a
    ``certify.BSWitness`` holds them; each arc of the cycle as its step
    (edge id, sign), as ``balance.Unbalanced`` holds them; and occurrences
    maps each edge to its (source, target) records, each (node, n, g) with
    the node's ``vertex`` and ``root`` letters and g the conjugator's
    letters, a tuple.  Each arc crosses its edge from its near side (the
    target for sign +1, the source for -1) to its far side.  Where a step
    or a token of s holds an int, a bool is not read as one.  The checks:

    - **Arc lemmas.**  Both records of the arc's edge rebuild the edge's
      attachments as g R^n g^-1 in their vertex groups, R the node's root.
      With the edge relation t a_t t^-1 = a_s, the arc's conjugator
      kappa = g_far^-1 t^sign g_near then has
      kappa R_near^n_near kappa^-1 = R_far^n_far.
    - **Chain.**  Each arc's far node is the next arc's near node, and the
      last arc's far node is the first arc's near node, the base R_0.
    - **Arithmetic.**  With m read off a = R_0^m, the exponent e = m i is
      carried around the cycle: at each arc n_near divides e, and e becomes
      e / n_near * n_far.  It ends at m j.
    - **Conjugator.**  s is kappa_last ... kappa_0, token for token.
    - **Non-Euclidean.**  R_0 has infinite order, m != 0 and |i| != |j|.

    Soundness: if x y x^-1 = z then x y^k x^-1 = z^k for every integer k,
    so each lemma carries R_near^(n_near k) to R_far^(n_far k).  At arc
    number l the carried exponent is a multiple of n_near, so
    kappa_l ... kappa_0 R_0^(m i) (kappa_l ... kappa_0)^-1 is the power of
    the next node's root that the carried exponent names, and after the last
    arc it is R_0^(m j): s a^i s^-1 = a^j.  Since a has infinite order and
    |i| != |j|, <a, s> is a non-Euclidean almost Baumslag-Solitar subgroup.
    The checks take time linear in the records, the letters of a and s and
    the digits of the carried exponents, where the relation written out in
    letters may be exponential in the cycle's length."""
    report: list[str] = []
    edges, kinds = graph.index.edges, graph.index.kinds
    if not cycle:
        return False, ["the cycle has no arcs"]
    kappas = []  # each arc's conjugator, as tokens
    crossings = []  # each arc's (near node, n_near, far node, n_far)
    for position, step in enumerate(cycle):
        try:
            label, sign = step
            e = edges[label]
            (node_s, n_s, g_s), (node_t, n_t, g_t) = occurrences[label]
            sides = (
                (node_s, n_s, g_s, e.attachment_source),
                (node_t, n_t, g_t, e.attachment_target),
            )
        except (AttributeError, KeyError, TypeError, ValueError):
            return False, [f"arc {position}: no arc of an edge of the graph with a (source, target) record"]
        if type(sign) is not int or sign not in (1, -1):
            return False, [f"arc {position} (edge {label}): sign {sign!r} is not the int +1 or -1"]
        broken = []
        for side, (node, n, conj, att) in zip(("source", "target"), sides):
            try:
                holds = type(n) is int and node.vertex == att.vertex and _rebuilds(
                    kinds[att.vertex], node.root, n, conj, att
                )
            except (AttributeError, TypeError, ValueError):  # a record that is no (node, n, g)
                holds = False
            if not holds:
                broken.append(f"arc {position} (edge {label}): its {side} record does not rebuild")
        if broken:
            return False, report + broken
        (near, n, conj_near, att_near), (far, n_far, conj_far, att_far) = (
            sides[::-1] if sign > 0 else sides
        )
        kappa = [("g", att_far.vertex, x, -y) for x, y in reversed(conj_far)] if conj_far else []
        kappa.append(("t", label, sign))
        if conj_near:
            kappa += [("g", att_near.vertex, x, y) for x, y in conj_near]
        kappas.append(kappa)
        crossings.append((near, n, far, n_far))
    for position, (_, _, far, _) in enumerate(crossings):
        following = (position + 1) % len(crossings)
        if far != crossings[following][0]:
            report.append(
                f"arc {position} ends at a node where arc {following} does not start"
                if following
                else "the cycle does not close at its base node"
            )
    s, want = list(witness.s), [tok for kappa in reversed(kappas) for tok in kappa]
    # equal tokens may hold items of other types: True == 1 and 1.0 == 1
    if s != want or [*map(type, chain.from_iterable(s))] != [*map(type, chain.from_iterable(want))]:
        report.append("s is not the arcs' conjugators, last arc first")
    i, j = witness.i, witness.j
    if type(i) is not int or type(j) is not int or abs(i) == abs(j):
        report.append(f"exponents ({i!r}, {j!r}) are not ints with |i| != |j|")
        return False, report
    base = crossings[0][0]
    a = witness.a
    m = _root_exponent(kinds[base.vertex], base.root, a) if a.vertex == base.vertex else None
    if not m:
        report.append("a is not a nonzero power of the base root, or that root has finite order")
        return False, report
    carried = m * i
    for position, (_, n, _, n_far) in enumerate(crossings):
        if not n or carried % n:
            report.append(f"arc {position}: entry exponent {n} does not divide the carried exponent")
            return False, report
        carried = carried // n * n_far
    if carried != m * j:
        report.append("the carried exponent does not end at m j")
    return (not report, report)
