"""Linear parametrizations into the infinite dihedral group.

A graph of 2-ended groups maps to the infinite dihedral group by sending
each vertex generator to a rotation r^E and each stable letter to the
identity or the bare reflection.  The certificate is built in integers
from the ratio-groupoid pass: the magnitude |E| of each vertex is the
reciprocal of its node's potential, which the pass keeps as a reduced
integer pair, cleared to the primitive positive vector by one lcm; the
signs come from one walk over the spanning tree in BFS order.
The result is never trusted but re-verified relation by relation, once, by
``checks.verify_parametrization``, which reads nothing from the pass; this
module builds certificates and checks none itself.  The global verdict reads
balance and the edge-image classes off that one pass and assembles one
verified parametrization per class, or reports an unbalanced edge plus an
explicit almost Baumslag-Solitar witness.  A connected graph of 2-ended
groups with an edge is its own single class: its verdict is its
parametrization.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING

from . import dihedral as dih
from .balance import EdgeClass, Unbalanced, build_groupoid
from .checks import verify_parametrization
from .conjgraph import ConjugacyGraph, build_conjugacy_graph
from .model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralInfinite,
    Free,
    GoghError,
    GraphOfGroups,
    record,
)

if TYPE_CHECKING:  # certify is imported only where a NotHHG is built
    from .certify import BSWitness


class NotTwoEnded(GoghError):
    pass


@record
class LinearParametrization:
    """Images of vertex generators and of non-tree stable letters.

    Tree stable letters are the identity of the fundamental group and are
    not recorded.
    """

    vertex_images: tuple  # ((vertex, ((gen, DihedralElement), ...)), ...)
    stable_images: tuple  # ((edge, DihedralElement), ...)

    def vertex_image(self, vertex: str):
        return dict(dict(self.vertex_images)[vertex])

    def stable_image(self, edge: str) -> dih.DihedralElement:
        return dict(self.stable_images).get(edge, dih.IDENTITY)


def require_two_ended(graph: GraphOfGroups) -> None:
    for name, kind in graph.vertices:
        if isinstance(kind, Free) and kind.rank != 1:
            raise NotTwoEnded(f"vertex {name} is free of rank {kind.rank}")


def parametrize(graph: GraphOfGroups) -> LinearParametrization | Unbalanced:
    """Construct a verified parametrization of a graph of 2-ended groups.

    Returns the unbalanced verdict instead whenever some groupoid cycle
    obstructs the construction.  A connected graph of 2-ended groups with an
    edge is its own single class; a lone vertex has no class and maps its
    generator to r.
    """
    require_two_ended(graph)
    if not graph.edges:
        return _verified(graph, _parametrization(graph, {graph.vertices[0][0]: (1, 1)}, {}))
    groupoid = build_groupoid(graph)
    if isinstance(groupoid.verdict, Unbalanced):
        return groupoid.verdict
    (cls,) = groupoid.classes  # its derived graph is the input itself
    return _class_certificate(graph, cls).phi


_REFLECTION = dih.DihedralElement(1, 0)


def _parametrization(
    graph: GraphOfGroups, potential: dict, attachments: dict
) -> LinearParametrization:
    """The primitive linear parametrization of a balanced connected graph of
    2-ended groups, in integers.

    ``potential`` maps each vertex to the |potential| of its groupoid node as a
    reduced pair (num, den), ``attachments`` each edge to the pass's (source,
    target) record, each side (node, signed root exponent, conjugator).  Along
    the arc target -> source of weight n_s/n_t the potential scales by
    |n_s/n_t|, while the tree relation E_s * n_s = E_t * n_t scales the
    rotation exponent by n_t/n_s: so |E_v| is proportional to 1/|potential_v|,
    cleared to integers by L = lcm of the numerators.  The result is already
    primitive.  The class root has potential (1, 1), hence magnitude L, so a
    prime p dividing every magnitude divides L; but the node whose numerator
    holds the highest power of p has magnitude den * (L // num) with neither
    factor divisible by p (den is prime to num).  The root of the spanning tree
    is positive, and one walk over the tree parents in BFS order flips the sign
    across each edge whose two exponents have opposite signs.  A stable letter
    maps to the reflection exactly when its relation needs a sign flip.  No
    tree edge does: the walk sets the sign of a tree edge's child to its
    parent's sign flipped by the edge, so its two sides always agree, and the
    edge needs no lookup in the tree."""
    scale = lcm(*(num for num, _ in potential.values()))
    negative = {graph.vertices[0][0]: False}  # the tree is rooted at the least vertex
    for vertex, (parent, (edge, _)) in graph.index.parents.items():
        (_, n_s, _), (_, n_t, _) = attachments[edge]  # a flip when their signs differ
        negative[vertex] = negative[parent] != ((n_s < 0) != (n_t < 0))

    # (dihedral, signed exponent) -> a vertex's image pairs: vertices of one
    # kind and exponent share one element and one tuple
    shared: dict[tuple[bool, int], tuple] = {}
    vertex_images = []
    for v, kind in graph.vertices:
        num, den = potential[v]
        k = den * (scale // num)
        key = (isinstance(kind, DihedralInfinite), -k if negative[v] else k)
        images = shared.get(key)
        if images is None:
            rotation = dih.DihedralElement(0, key[1])
            if key[0]:
                images = shared[key] = ((DIHEDRAL_R, rotation), (DIHEDRAL_S, _REFLECTION))
            else:
                images = shared[key] = ((1, rotation),)
        vertex_images.append((v, images))

    stable_images = []
    for e in graph.edges:
        # E_t * n_t and E_s * n_s agree in absolute value; compare their signs
        (_, n_s, _), (_, n_t, _) = attachments[e.name]
        if (negative[e.target] != (n_t < 0)) != (negative[e.source] != (n_s < 0)):
            stable_images.append((e.name, _REFLECTION))
    return LinearParametrization(tuple(vertex_images), tuple(stable_images))


def _verified(graph: GraphOfGroups, phi: LinearParametrization) -> LinearParametrization:
    ok, report = verify_parametrization(graph, phi)
    if not ok:
        raise RuntimeError(f"certificate failed verification: {report}")
    return phi


# -- global verdict -----------------------------------------------------------


@record(eq=False)
class Certificate:
    conjugacy_graph: ConjugacyGraph
    phi: LinearParametrization


@record(eq=False)
class HHG:
    certificates: tuple[Certificate, ...]

    status = "HHG"


@record(eq=False)
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
        from .certify import almost_bs_witness

        return NotHHG(witness=almost_bs_witness(graph, verdict), verdict=verdict)
    return HHG(tuple(_class_certificate(graph, cls) for cls in groupoid.classes))


def _class_certificate(graph: GraphOfGroups, cls: EdgeClass) -> Certificate:
    """The certificate of one balanced class: its derived graph and the
    parametrization built there from the potentials and attachment exponents
    the groupoid pass recorded, verified once on that graph."""
    cg = build_conjugacy_graph(graph, cls)
    potential = dict(zip(cg.vertex_origin, cls.potentials))  # both follow cls.nodes
    phi = _verified(cg.graph, _parametrization(cg.graph, potential, cls.occurrences))
    return Certificate(cg, phi)
