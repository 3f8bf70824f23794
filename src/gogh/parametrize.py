"""Linear parametrizations into the infinite dihedral group.

A graph of 2-ended groups maps to the infinite dihedral group by sending
each vertex generator to a rotation r^E and each stable letter to the
identity or the bare reflection.  The rotation exponents are potentials
along the graph's canonical spanning tree, walked in BFS order, with
denominators cleared; the result is never trusted but re-verified relation
by relation, once.  The global verdict reads balance and the edge-image
classes off one ratio-groupoid pass and assembles one verified
parametrization per class, or reports an unbalanced edge plus an explicit
almost Baumslag-Solitar witness.  A connected graph of 2-ended groups with
an edge is its own single class: its verdict is its parametrization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import dihedral as dih
from .balance import Unbalanced, build_groupoid, group_balanced
from .certify import BSWitness, almost_bs_witness
from .conjgraph import ConjugacyGraph, build_conjugacy_graph
from .model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralInfinite,
    Free,
    GoghError,
    GraphOfGroups,
    VertexWord,
    spanning_tree,
)


class NotTwoEnded(GoghError):
    pass


@dataclass(frozen=True)
class LinearParametrization:
    """Images of vertex generators and of non-tree stable letters.

    Tree stable letters are the identity of the fundamental group and are
    not recorded.
    """

    vertex_images: tuple  # ((vertex, ((gen, DihedralElement), ...)), ...)
    stable_images: tuple  # ((edge, DihedralElement), ...)

    @cached_property
    def _vertex_maps(self) -> dict:
        return {vertex: dict(images) for vertex, images in self.vertex_images}

    @cached_property
    def _stable_map(self) -> dict:
        return dict(self.stable_images)

    def vertex_image(self, vertex: str):
        return dict(self._vertex_maps[vertex])

    def stable_image(self, edge: str) -> dih.DihedralElement:
        return self._stable_map.get(edge, dih.IDENTITY)


def require_two_ended(graph: GraphOfGroups) -> None:
    for name, kind in graph.vertices:
        if isinstance(kind, Free) and kind.rank != 1:
            raise NotTwoEnded(f"vertex {name} is free of rank {kind.rank}")


def _attachment_exponent(word: VertexWord) -> int:
    assert len(word.letters) == 1
    return word.letters[0][1]


def parametrize(graph: GraphOfGroups) -> LinearParametrization | Unbalanced:
    """Construct a verified parametrization of a graph of 2-ended groups.

    Returns the unbalanced verdict instead whenever some groupoid cycle
    obstructs the construction.
    """
    require_two_ended(graph)
    verdict = group_balanced(graph)
    if isinstance(verdict, Unbalanced):
        return verdict
    return _verified(graph, _tree_parametrization(graph))


def _tree_parametrization(graph: GraphOfGroups) -> LinearParametrization:
    """Potentials propagate over the spanning tree in BFS order (tree stable
    letters must map to the identity, so tree relations fix exponent ratios
    exactly); the least common multiple of the denominators clears
    everything to integers.  A non-tree stable letter becomes the reflection
    exactly when its relation needs a sign flip.  On an unbalanced graph
    some relation fails, which verification then reports."""
    order = graph.vertex_ids()
    exponents: dict[str, Fraction] = {order[0]: Fraction(1)}
    for vertex, (parent, step) in graph.index.parents.items():
        e = graph.edge(step[0])
        # tree relation: E_source * n_s = E_target * n_t
        ratio = Fraction(
            _attachment_exponent(e.attachment_source), _attachment_exponent(e.attachment_target)
        )
        exponents[vertex] = exponents[parent] * (ratio if step[1] == 1 else 1 / ratio)
    scale = lcm(*(f.denominator for f in exponents.values()))
    ints = {v: f.numerator * (scale // f.denominator) for v, f in exponents.items()}
    shrink = gcd(*ints.values())
    ints = {v: k // shrink for v, k in ints.items()}

    vertex_images = []
    for v in order:
        k = ints[v]
        if isinstance(graph.kind(v), DihedralInfinite):
            images = ((DIHEDRAL_R, dih.DihedralElement(0, k)), (DIHEDRAL_S, dih.DihedralElement(1, 0)))
        else:
            images = ((1, dih.DihedralElement(0, k)),)
        vertex_images.append((v, images))

    tree = spanning_tree(graph)
    stable_images = []
    for e in graph.edges:
        if e.name in tree:
            continue
        lhs = ints[e.target] * _attachment_exponent(e.attachment_target)
        rhs = ints[e.source] * _attachment_exponent(e.attachment_source)
        if lhs != rhs:
            stable_images.append((e.name, dih.DihedralElement(1, 0)))
    return LinearParametrization(tuple(vertex_images), tuple(stable_images))


def _verified(graph: GraphOfGroups, phi: LinearParametrization) -> LinearParametrization:
    ok, report = verify_parametrization(graph, phi)
    if not ok:
        raise GoghError(f"internal contradiction: certificate failed verification: {report}")
    return phi


def _word_image(phi: LinearParametrization, word: VertexWord) -> dih.DihedralElement:
    images = phi.vertex_image(word.vertex)
    out = dih.IDENTITY
    for gen, exp in word.letters:
        out = dih.dmul(out, dih.dpow(images[gen], exp))
    return out


def verify_parametrization(graph: GraphOfGroups, phi: LinearParametrization):
    """(ok, report): every edge relation holds under dihedral multiplication
    and every vertex restriction has finite kernel and finite-index image."""
    report: list[str] = []
    assigned = dict(phi.vertex_images)
    for vertex, kind in graph.vertices:
        if vertex not in assigned:
            report.append(f"vertex {vertex}: no images assigned")
            continue
        images = dict(assigned[vertex])
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
        t_img = phi.stable_image(e.name)
        if e.name in tree and not t_img.is_identity:
            report.append(f"edge {e.name}: tree stable letter must map to the identity")
        try:
            lhs = dih.dmul(dih.dmul(t_img, _word_image(phi, e.attachment_target)), dih.dinv(t_img))
            rhs = _word_image(phi, e.attachment_source)
        except KeyError:
            report.append(f"edge {e.name}: relation references unassigned generators")
            continue
        if lhs != rhs:
            report.append(
                f"edge {e.name}: relation image ({lhs.eps},{lhs.k}) != ({rhs.eps},{rhs.k})"
            )
    return (not report, report)


# -- global verdict -----------------------------------------------------------


@dataclass(eq=False)
class Certificate:
    class_index: int
    conjugacy_graph: ConjugacyGraph
    phi: LinearParametrization


@dataclass(eq=False)
class HHG:
    certificates: tuple[Certificate, ...]

    status = "HHG"


@dataclass(eq=False)
class NotHHG:
    witness: BSWitness
    verdict: Unbalanced

    status = "NotHHG"

    @property
    def edge(self) -> str:
        return self.verdict.edge


Verdict = HHG | NotHHG


def hhg_verdict(graph: GraphOfGroups) -> Verdict:
    """Hierarchical hyperbolicity of the fundamental group, with evidence.

    Balance and the edge classes are read off one groupoid pass.  A
    balanced graph yields one linear parametrization per edge class, built
    on the class's derived graph (the input itself for a graph of 2-ended
    groups; its groupoid is that balanced component, so balance is not
    decided again) and verified once on that graph; otherwise the offending
    edge is reported with a re-verified non-Euclidean almost Baumslag-Solitar
    witness.  The graph was validated when built.
    """
    groupoid = build_groupoid(graph)
    verdict = groupoid.verdict
    if isinstance(verdict, Unbalanced):
        return NotHHG(witness=almost_bs_witness(graph, verdict), verdict=verdict)
    certificates = []
    for cls in groupoid.classes:
        cg = build_conjugacy_graph(graph, cls)
        phi = _verified(cg.graph, _tree_parametrization(cg.graph))
        certificates.append(Certificate(cls.index, cg, phi))
    return HHG(tuple(certificates))
