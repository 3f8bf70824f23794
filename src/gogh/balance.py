"""Balance decisions through a rational-weighted commensurability groupoid.

Every attachment image of an edge-group generator is a conjugate power of a
canonical root inside its vertex group.  Nodes are (vertex, canonical root)
pairs; an edge arc carries the ratio of the two root exponents and the
orientation in which it crosses its edge, nothing more (the conjugator and
entry exponent of a crossing are witness data, which ``certify`` derives
for the arcs of the one cycle it reads).  A cycle of weight with absolute
value != 1 pumps conjugation ratios without bound, which is exactly the
unbalanced phenomenon.  Conjugation by a dihedral
reflection inverts the root, a loop of weight -1; balance compares absolute
weights only, so such loops can never unbalance a cycle, join components or
shift a potential, and the groupoid carries none.  Reflections enter only
through the stable-letter images of the parametrization.

This module owns the groupoid and everything read off it in one pass:
spanning-forest potentials, the connected components (which are the
edge-image equivalence classes), and per component either its first
unbalanced cycle in arc order or balance.  Each fact is stored once: a
class holds its verdict, and an unbalanced verdict holds the pass's
attachment data, which ``certify`` reads.  Graph, edge and class verdicts
are all lookups into that pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from . import dihedral as dih
from . import freewords as fw
from .model import DIHEDRAL_R, DihedralInfinite, GoghError, GraphOfGroups, VertexWord
from .words import (
    _conjugation_gens,
    _search_states,
    are_equal,
    invert_tokens,
    to_path_form,
    tokens_of_vertex_word,
    vw_pow,
)

SIDES = ("source", "target")

Occurrence = tuple[str, str]  # (edge id, "source"|"target")


@dataclass(frozen=True)
class GroupoidNode:
    vertex: str
    root: tuple  # letter tuple of the canonical root

    def sort_key(self):
        return (
            self.vertex,
            tuple((str(g), 0 if e > 0 else 1, abs(e)) for g, e in self.root),
        )


@dataclass(frozen=True)
class GroupoidArc:
    src: GroupoidNode
    dst: GroupoidNode
    weight: Fraction
    label: str  # edge id
    sign: int  # traversal orientation: +1 from the target-side node


def invert_arc(arc: GroupoidArc) -> GroupoidArc:
    return GroupoidArc(arc.dst, arc.src, 1 / arc.weight, arc.label, -arc.sign)


@dataclass(frozen=True)
class Balanced:
    pass


@dataclass(frozen=True)
class Unbalanced:
    cycle: tuple[GroupoidArc, ...]
    modulus: Fraction
    # the pass's attachment data, (edge, side) -> (node, exponent, conjugator)
    occurrences: dict = field(compare=False, repr=False)

    @property
    def edge(self) -> str:
        """The offending edge reported for this cycle: its least edge id."""
        return min(arc.label for arc in self.cycle)


BalanceVerdict = Balanced | Unbalanced


@dataclass(frozen=True)
class EdgeClass:
    """One groupoid component, as the attachment occurrences landing in it."""

    index: int
    attachments: dict  # member occurrence -> its attachment_data, sorted
    nodes: tuple[GroupoidNode, ...]  # the component's nodes, in groupoid order
    verdict: BalanceVerdict  # the component's first unbalanced cycle, or balance

    @property
    def members(self) -> tuple[Occurrence, ...]:
        return tuple(self.attachments)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(sorted({e for e, _ in self.members}))


@dataclass(eq=False)
class RatioGroupoid:
    nodes: tuple[GroupoidNode, ...]
    arcs: tuple[GroupoidArc, ...]  # per edge in id order: sign +1, then -1
    occurrences: dict  # (edge, side) -> (node, exponent, conjugator VertexWord)
    component: dict  # node -> index of its component in classes
    classes: tuple[EdgeClass, ...]  # components, ordered by least member
    verdict: BalanceVerdict  # the whole graph: first unbalanced cycle in arc order

    def class_of(self, edge: str) -> EdgeClass:
        return self.classes[self.component[self.occurrences[(edge, "target")][0]]]


def attachment_data(graph: GraphOfGroups, edge: str, side: str):
    """(node, signed root exponent, conjugator g) with image = g root^n g^-1."""
    e = graph.edge(edge)
    word = e.attachment_source if side == "source" else e.attachment_target
    kind = graph.kind(word.vertex)
    if isinstance(kind, DihedralInfinite):
        el = dih.word_to_element(word)
        node = GroupoidNode(word.vertex, ((DIHEDRAL_R, 1),))
        return node, el.k, VertexWord(word.vertex, ())
    root, conj, n = fw.canonical_root(word)
    return GroupoidNode(word.vertex, root.letters), n, conj


def build_groupoid(graph: GraphOfGroups) -> RatioGroupoid:
    """The ratio groupoid of the graph, split into components and decided.

    Arcs come out per edge in id order (a validated graph stores its edges
    sorted), the stored orientation first; the first unbalanced cycle is
    taken in this order.
    """
    occurrences = {
        (e.name, side): attachment_data(graph, e.name, side) for e in graph.edges for side in SIDES
    }
    nodes = sorted({node for node, _, _ in occurrences.values()}, key=GroupoidNode.sort_key)
    arcs: list[GroupoidArc] = []
    for e in graph.edges:
        node_t, n_t, _ = occurrences[(e.name, "target")]
        node_s, n_s, _ = occurrences[(e.name, "source")]
        fwd = GroupoidArc(src=node_t, dst=node_s, weight=Fraction(n_s, n_t), label=e.name, sign=1)
        arcs.append(fwd)
        arcs.append(invert_arc(fwd))
    return _decide(tuple(nodes), tuple(arcs), occurrences)


def _decide(nodes, arcs, occurrences) -> RatioGroupoid:
    """One pass: a BFS forest with potentials (each component rooted at its
    least node), then one scan of the arcs in order.  A non-tree arc whose
    weight disagrees in absolute value with the potentials closes the
    component's first unbalanced cycle; the first of those overall decides
    the graph."""
    adj: dict[GroupoidNode, list[GroupoidArc]] = {n: [] for n in nodes}
    for arc in arcs:
        adj[arc.src].append(arc)
    potential: dict[GroupoidNode, Fraction] = {}
    tree_arc: dict[GroupoidNode, GroupoidArc] = {}
    root_of: dict[GroupoidNode, GroupoidNode] = {}
    for start in nodes:
        if start in potential:
            continue
        potential[start] = Fraction(1)
        root_of[start] = start
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for arc in adj[u]:
                if arc.dst not in potential:
                    potential[arc.dst] = potential[u] * arc.weight
                    tree_arc[arc.dst] = arc
                    root_of[arc.dst] = start
                    queue.append(arc.dst)

    def path_from_root(node: GroupoidNode) -> list[GroupoidArc]:
        chain = []
        while node in tree_arc:
            chain.append(tree_arc[node])
            node = tree_arc[node].src
        chain.reverse()
        return chain

    first_bad: dict[GroupoidNode, Unbalanced] = {}
    verdict: BalanceVerdict = Balanced()
    for arc in arcs:
        root = root_of[arc.src]
        if root in first_bad or tree_arc.get(arc.dst) is arc:
            continue
        if abs(potential[arc.src] * arc.weight) == abs(potential[arc.dst]):
            continue
        cycle = (
            path_from_root(arc.src)
            + [arc]
            + [invert_arc(a) for a in reversed(path_from_root(arc.dst))]
        )
        modulus = Fraction(1)
        for a in cycle:
            modulus *= a.weight
        if abs(modulus) == 1:
            raise GoghError(f"internal: cycle through arc {arc.label} is balanced")
        first_bad[root] = Unbalanced(tuple(cycle), modulus, occurrences)
        if isinstance(verdict, Balanced):
            verdict = first_bad[root]

    # occurrences are keyed in sorted order, so each component's members come
    # out sorted and the components come out ordered by least member
    attachments: dict[GroupoidNode, dict] = {}
    for occ, data in occurrences.items():
        attachments.setdefault(root_of[data[0]], {})[occ] = data
    class_nodes: dict[GroupoidNode, list[GroupoidNode]] = {}
    for node in nodes:
        class_nodes.setdefault(root_of[node], []).append(node)
    position = {root: i for i, root in enumerate(attachments)}
    return RatioGroupoid(
        nodes=nodes,
        arcs=arcs,
        occurrences=occurrences,
        component={node: position[root_of[node]] for node in nodes},
        classes=tuple(
            EdgeClass(i, attachments[r], tuple(class_nodes[r]), first_bad.get(r, Balanced()))
            for i, r in enumerate(attachments)
        ),
        verdict=verdict,
    )


def group_balanced(graph: GraphOfGroups) -> BalanceVerdict:
    """Balanced iff every groupoid cycle has weight of absolute value one."""
    return build_groupoid(graph).verdict


def edge_balanced(graph: GraphOfGroups, edge: str) -> BalanceVerdict:
    """Balance of one edge, decided on its commensurability component.

    Conjugation ratios between powers of the two attachment images are the
    path weights of the component containing the edge's arc, composable with
    any cycle there; the edge is unbalanced exactly when that component has
    a cycle of absolute weight != 1.  This matches the balance of the
    conjugacy graph of the edge's equivalence class.
    """
    return build_groupoid(graph).class_of(graph.edge(edge).name).verdict


# -- brute-force oracle --------------------------------------------------------


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
