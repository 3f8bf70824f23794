"""The checkers of the HHG certificates.

A linear parametrization into the infinite dihedral group is re-verified
relation by relation on the graph it claims to parametrize, and the
provenance of a derived graph of 2-ended groups is re-verified identity by
identity in the original vertex groups.  Both read their evidence by its
attributes and decide with the word arithmetic of ``dihedral`` and
``words`` alone: this module imports no module that produces a verdict, an
edge class or attachment data, so the checkers and what they reach are
``model``, ``dihedral``, ``freewords``, ``words`` and this file.  Evidence
that does not fit is reported, not raised.
"""

from __future__ import annotations

from . import dihedral as dih
from .model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralInfinite,
    Free,
    GraphOfGroups,
    VertexWord,
    spanning_tree,
)
from .words import vw_inv, vw_mul, vw_pow


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


def verify_parametrization(graph: GraphOfGroups, phi):
    """(ok, report): every image is an element of the infinite dihedral
    group, every edge relation holds under dihedral multiplication and every
    vertex restriction has finite kernel and finite-index image.

    phi is read by its ``vertex_images`` and ``stable_images`` pairs, as a
    ``parametrize.LinearParametrization`` holds them; its images are read
    into maps once, and a relation touching a vertex or stable letter whose
    image is not a group element is not evaluated."""
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


def provenance_holds(graph: GraphOfGroups, cg) -> bool:
    """Check u = g * root^n * g^-1 in the original vertex group for both
    sides of every class edge: u is the side's attachment in graph, g the
    conjugator of that side in the class's record of the edge, gen^n its
    derived attachment, and root the root of the derived vertex's origin
    node, which must lie in u's vertex.

    The derived graph must hold nothing else: its edges are exactly the
    class's edges, in the same sorted order, and each derived vertex has an
    origin node at a vertex of graph, of the 2-ended kind that vertex
    yields (dihedral for a dihedral vertex, free of rank one otherwise).

    cg is read by its ``graph``, ``edge_class`` and ``vertex_origin``, as a
    ``conjgraph.ConjugacyGraph`` holds them.  Evidence that does not fit the
    class (a class edge missing from either graph, repeated or out of
    order, a derived edge that is no class edge, an edge with no record or
    a record that is no (source, target) pair of attachment data, a derived
    attachment of more than one letter, a derived vertex with no origin or
    of the wrong kind, a root or conjugator letter that is no generator of a
    dihedral vertex) fails the check instead of raising."""
    original, derived_edges = graph.index.edges, cg.graph.index.edges
    edges, occurrences = cg.edge_class.edges, cg.edge_class.occurrences
    if list(edges) != list(cg.graph.edge_ids()):
        return False
    for dv, kind in cg.graph.vertices:
        origin = cg.vertex_origin.get(dv)
        at = None if origin is None else graph.index.kinds.get(origin.vertex)
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
            origin = cg.vertex_origin.get(dv)
            if len(derived.letters) != 1 or origin is None or origin.vertex != u.vertex:
                return False
            ((_, n),) = derived.letters
            root = VertexWord(u.vertex, origin.root)
            kind = graph.kind(u.vertex)
            try:
                rebuilt = vw_mul(kind, g, vw_pow(kind, root, n), vw_inv(kind, g))
                rest = vw_mul(kind, rebuilt, vw_inv(kind, u))
            except ValueError:  # a letter of root or g is no generator of a dihedral u
                return False
            if rest.letters:
                return False
    return True
