"""Equivalence classes of edge images and their conjugacy graphs.

Two attachment images are equivalent when they are the two sides of one
edge, or commensurable inside one vertex group (same canonical root in a
free vertex; always, between infinite-order elements of a dihedral
vertex).  The classes are the connected components of the ratio groupoid,
taken from its single pass in ``balance`` as the edges whose images land
in them, together with each edge's record: the attachment data (node,
root exponent, conjugator) of its source and target sides.  Each class yields a
derived graph of 2-ended groups: one vertex per commensurability class of
roots inside each original vertex, carrying the maximal 2-ended subgroup
around the representative root, and one edge per original edge of the
class with integer attachment exponents over the representative roots.
Each derived vertex points at its class node, and the conjugators recording
how each derived attachment sits inside the original group are read from
the class itself, so the derived graph copies no fact the class holds.
This module builds the derived graphs; ``checks.provenance_holds``
re-verifies their provenance in the original vertex groups.
"""

from __future__ import annotations

from .balance import EdgeClass, GroupoidNode
from .model import (
    DIHEDRAL_R,
    DihedralInfinite,
    Free,
    GraphOfGroups,
    EdgeRecord,
    VertexWord,
    make_graph,
    record,
)


@record(eq=False)
class ConjugacyGraph:
    graph: GraphOfGroups  # the derived graph of 2-ended groups
    edge_class: EdgeClass  # its occurrences hold each edge's conjugators
    vertex_origin: dict  # derived vertex -> its GroupoidNode (vertex, root letters),
    # keyed in the order of edge_class.nodes


def build_conjugacy_graph(graph: GraphOfGroups, cls: EdgeClass) -> ConjugacyGraph:
    """Derived graph for one class, with provenance into the original group.

    For every attachment u = g * root^n * g^-1 of a class edge the derived
    attachment is the n-th power of the derived vertex generator standing
    for the root; the representative root is the canonical root shared by
    the class's attachments at that vertex, so rebuilding is deterministic.  The attachment data and
    the nodes are the ones the groupoid pass recorded on the class.
    """
    # A connected graph of 2-ended groups with an edge has one class, holding
    # all |E| edges (a smaller class needs no scan of the vertex table),
    # and the one-letter rule of balance.attachment_data gives it one node per
    # vertex (v.1 or d.r), no conjugators and the input's exponents: its own
    # derived graph.
    if len(cls.edges) < len(graph.edges) or not all(
        isinstance(kind, DihedralInfinite) or kind.rank == 1 for _, kind in graph.vertices
    ):
        return _derived_conjugacy_graph(graph, cls)
    return ConjugacyGraph(graph, cls, {node.vertex: node for node in cls.nodes})


def _derived_conjugacy_graph(graph: GraphOfGroups, cls: EdgeClass) -> ConjugacyGraph:
    """The derived graph of any class, built node by node: each node's
    derived vertex name and generator are found once and read for both
    sides of every edge, and equal attachment letters share one tuple,
    which validation then checks once per kind."""
    kinds = graph.index.kinds
    by_vertex: dict[str, list[GroupoidNode]] = {}
    for node in cls.nodes:
        by_vertex.setdefault(node.vertex, []).append(node)
    taken: set[str] = set()
    derived: dict[GroupoidNode, tuple[str, object]] = {}  # node -> (name, generator)
    vertices = []
    vertex_origin = {}
    rank_one = Free(1)
    for vertex, group in by_vertex.items():  # nodes come sorted by vertex
        kind = kinds[vertex]
        dihedral = isinstance(kind, DihedralInfinite)
        for i, node in enumerate(group):
            proposal = vertex if len(group) == 1 else f"{vertex}_{i}"
            while proposal in taken:
                proposal += "_"
            taken.add(proposal)
            derived[node] = (proposal, DIHEDRAL_R if dihedral else 1)
            vertices.append((proposal, kind if dihedral else rank_one))
            vertex_origin[proposal] = node

    letters: dict[tuple, tuple] = {}  # (generator, exponent) -> one shared letters tuple

    def attachment(vertex: str, gen, n: int) -> VertexWord:
        key = (gen, n)
        found = letters.get(key)
        if found is None:
            found = letters[key] = (key,)
        return VertexWord(vertex, found)

    edges = []
    for edge in cls.edges:
        (node_s, n_s, _), (node_t, n_t, _) = cls.occurrences[edge]
        (source, gen_s), (target, gen_t) = derived[node_s], derived[node_t]
        edges.append(
            EdgeRecord(
                edge, source, target, attachment(source, gen_s, n_s), attachment(target, gen_t, n_t)
            )
        )
    return ConjugacyGraph(make_graph(vertices, edges), cls, vertex_origin)
