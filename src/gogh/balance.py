"""Balance decisions through a rational-weighted commensurability groupoid.

Every attachment image of an edge-group generator is a conjugate power of a
canonical root inside its vertex group: the least rotation of its primitive
root or of that root's inverse, which this module computes.  Canonical
roots take O(L) letter comparisons in a root of L letters: the least
rotation is found by Booth's algorithm, once on the root and once on its
inverse.  One rule covers one-letter images: g^k is k times its own root
g, unconjugated, since validation admits only r^k as a dihedral attachment
and a free basis letter is primitive and its own least rotation.  Nodes
are (vertex, canonical root) pairs; an edge arc carries the ratio of the
two root exponents and the orientation in which it crosses its edge,
nothing more (the conjugator and entry exponent of a crossing are witness
data, which ``certify`` derives for the arcs of the one cycle it reads).
A cycle of weight with absolute value != 1 pumps conjugation ratios
without bound, which is exactly the unbalanced phenomenon.  Conjugation by
a dihedral reflection inverts the root, a loop of weight -1; balance
compares absolute weights only, so such loops can never unbalance a cycle,
join components or shift a potential, and the groupoid carries none.
Reflections enter only through the stable-letter images of the
parametrization.

This module owns the canonical roots, the groupoid and everything read off
it in one pass: spanning-forest potentials, the connected components
(which are the edge-image equivalence classes), and per component either
its first unbalanced cycle in arc order or balance.  Each edge adds one
relation t a_t^(n_t) t^-1 = a_s^(n_s), so the pass keeps one record per
edge, the attachment data of its source and target sides.  It numbers the
nodes once, in vertex-table order and by root within a vertex (the order
of ``GroupoidNode.sort_key``); an edge becomes its two end ids and its two
absolute root exponents, and adjacency, potentials, tree arcs and
component roots are lists indexed by id.  All one-letter images g^k at a
vertex share one node and one identity conjugator, so the pass allocates
per node, not per occurrence.  Arcs, with their ``Fraction`` weights, are
built when read: the pass builds only those of the cycles it reports.  A
potential is the absolute value of a product of arc weights, kept as a
gcd-reduced pair of positive integers, and an arc is balanced when
cross-multiplying it with the potentials of its ends agrees; each class
keeps its nodes' potentials, from which ``parametrize`` builds its
certificate.  The two arcs of an edge are reciprocal, so they are balanced
together: each non-tree edge is tested once, and an unbalanced one closes
its cycle through its +1 arc, the arc met first in arc order.  Each fact
is stored once: the attachment data lives in the pass's one map from edge
to record, a class holds its verdict and its edges, and an unbalanced
verdict holds the map, which ``certify`` reads.  Graph, edge and class
verdicts are all lookups into that pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import freewords as fw
from .model import GraphOfGroups, VertexWord, record

SIDES = ("source", "target")  # the sides of an edge, in the order of its record


class GroupoidNode(NamedTuple):
    vertex: str
    root: tuple  # letter tuple of the canonical root

    def sort_key(self):
        return (
            self.vertex,
            tuple((str(g), 0 if e > 0 else 1, abs(e)) for g, e in self.root),
        )


class GroupoidArc(NamedTuple):
    src: GroupoidNode
    dst: GroupoidNode
    weight: Fraction
    label: str  # edge id
    sign: int  # traversal orientation: +1 from the target-side node


@dataclass(frozen=True)
class Balanced:
    pass


@dataclass(frozen=True)
class Unbalanced:
    cycle: tuple[GroupoidArc, ...]
    modulus: Fraction
    # the pass's attachment data, edge -> (source data, target data)
    occurrences: dict = field(compare=False, repr=False)

    @property
    def edge(self) -> str:
        """The offending edge reported for this cycle: its least edge id."""
        return min(arc.label for arc in self.cycle)


BalanceVerdict = Balanced | Unbalanced


@record
class EdgeClass:
    """One groupoid component, as the edges whose attachments land in it."""

    index: int
    edges: tuple[str, ...]  # its edge ids, sorted
    nodes: tuple[GroupoidNode, ...]  # the component's nodes, in groupoid order
    verdict: BalanceVerdict  # the component's first unbalanced cycle, or balance
    # |potential| of each node, aligned with nodes, as a reduced pair (num, den)
    # of positive ints: the product of |arc weights| along the pass's tree path
    # from the component's least node
    potentials: tuple[tuple[int, int], ...]
    # the groupoid's one map of attachment data, edge -> (source, target),
    # each side (node, signed root exponent, conjugator)
    occurrences: dict = field(compare=False, repr=False)


@dataclass(eq=False)
class RatioGroupoid:
    nodes: tuple[GroupoidNode, ...]  # in vertex-table order, then by sort_key
    # per edge in id order: sign +1, then -1; each arc is built when read, and
    # the length is known without building any
    arcs: Sequence[GroupoidArc]
    occurrences: dict  # edge -> (source, target) attachment data, in id order
    component: dict  # node -> index of its component in classes
    classes: tuple[EdgeClass, ...]  # components, ordered by least edge
    verdict: BalanceVerdict  # the whole graph: first unbalanced cycle in arc order

    def class_of(self, edge: str) -> EdgeClass:
        """The component of an edge, whose verdict is the edge's balance.

        Conjugation ratios between powers of the two attachment images are
        the path weights of the component containing the edge's arc,
        composable with any cycle there; the edge is unbalanced exactly when
        that component has a cycle of absolute weight != 1.  This matches the
        balance of the conjugacy graph of the edge's equivalence class."""
        return self.classes[self.component[self.occurrences[edge][1][0]]]


def _letter_key(letter: tuple[int, int]):
    g, e = letter
    return (g, 0 if e > 0 else 1, abs(e))


def _least_rotation(keys: list) -> int:
    """Start of the lexicographically least rotation of nonempty keys, by
    Booth's algorithm (K. S. Booth, IPL 10(4), 1980): a KMP failure function
    over the doubled sequence, O(len(keys)) comparisons.  On a sequence with
    several least rotations it returns the first start.

    >>> _least_rotation([3, 1, 2, 1, 1])
    3
    """
    n = len(keys)
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        c = keys[j % n]
        i = fail[j - k - 1]
        while i != -1 and c != keys[(k + i + 1) % n]:
            if c < keys[(k + i + 1) % n]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != keys[k % n]:
            if c < keys[k % n]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k % n


def canonical_root(word: VertexWord) -> tuple[VertexWord, VertexWord, int]:
    """(canonical root R, conjugator g, signed exponent p) with w = g R^p g^-1.

    R is the lexicographically least rotation of the primitive root or of
    its inverse, ordered by (generator, exponent sign, exponent size), so
    commensurable words share the same R.  Booth's least rotation runs once
    on the root and once on its inverse, so this is O(L) in the root's
    letters.  The two never tie: no nontrivial free word is conjugate to
    its inverse.
    """
    rd = fw.primitive_root(word)
    best = None
    for source, flip in ((rd.root.letters, 1), (fw.inv_letters(rd.root.letters), -1)):
        keys = [_letter_key(l) for l in source]
        i = _least_rotation(keys)
        key = keys[i:] + keys[:i]
        if best is None or key < best[0]:
            best = (key, source[i:] + source[:i], flip, source[:i])
    _, rot, flip, prefix = best
    # source = prefix * rot * prefix^-1, and root = source^flip
    conj = fw.mul_letters(rd.conjugator.letters, prefix)
    return (
        VertexWord(word.vertex, rot),
        VertexWord(word.vertex, conj),
        rd.exponent * flip,
    )


def attachment_data(word: VertexWord, shared: dict):
    """(node, signed root exponent n, conjugator c) with word = c root^n c^-1,
    for the attachment word on one side of an edge: a one-letter g^k, free
    or dihedral, is root g, n = k, c = 1 (see above).  Every one-letter image
    at a vertex with root g gets the node and identity conjugator that
    ``shared`` holds for (vertex, g), and every node of root g the letters
    ``shared`` holds for g, all immutable, so a pass builds them once per
    root."""
    if len(word.letters) == 1:
        ((g, k),) = word.letters
        key = (word.vertex, g)
        found = shared.get(key)
        if found is None:
            root = shared.setdefault(g, ((g, 1),))
            found = shared[key] = GroupoidNode(word.vertex, root), VertexWord(word.vertex, ())
        return found[0], k, found[1]
    root, conj, n = canonical_root(word)
    return GroupoidNode(word.vertex, root.letters), n, conj


class _Arcs(Sequence):
    """The arcs of a groupoid, each built when it is read: for the k-th edge,
    arc 2k runs from its target-side node with weight n_s/n_t and sign +1,
    and arc 2k+1 = 2k ^ 1 is its inverse."""

    def __init__(self, occurrences: dict):
        self._labels = list(occurrences)
        self._occurrences = occurrences

    def __len__(self) -> int:
        return 2 * len(self._labels)

    def __getitem__(self, a):
        label = self._labels[a >> 1]  # arithmetic shift: negative indices work too
        (node_s, n_s, _), (node_t, n_t, _) = self._occurrences[label]
        if a & 1:
            return GroupoidArc(node_s, node_t, Fraction(n_t, n_s), label, -1)
        return GroupoidArc(node_t, node_s, Fraction(n_s, n_t), label, 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


def build_groupoid(graph: GraphOfGroups) -> RatioGroupoid:
    """The ratio groupoid of the graph, split into components and decided.

    Each edge is read once, in id order (a validated graph stores its edges
    sorted), into its record; the nodes are numbered once, in vertex-table
    order, and edge k becomes ends[k] = (target id, source id, |n_t|, |n_s|).
    A BFS forest with potentials roots each component at its least node;
    then the first non-tree edge of each component, in id order, whose
    |weight| disagrees with the potentials closes its first unbalanced
    cycle, and the first of those decides the graph.  ``arcs`` builds each
    arc when read: arc 2k runs from edge k's target node with weight
    n_s/n_t, and arc 2k+1 = 2k ^ 1 is its inverse.
    """
    shared: dict = {}
    occurrences = {
        e.name: (
            attachment_data(e.attachment_source, shared),
            attachment_data(e.attachment_target, shared),
        )
        for e in graph.edges
    }
    index: dict[GroupoidNode, int] = {}  # node -> id, numbered below
    at_vertex: dict[str, list[GroupoidNode]] = {}
    for pair in occurrences.values():
        for node, _, _ in pair:
            if node not in index:
                index[node] = -1
                at_vertex.setdefault(node.vertex, []).append(node)
    nodes: list[GroupoidNode] = []
    for v, _ in graph.vertices:
        roots = at_vertex.get(v, ())
        nodes += sorted(roots, key=GroupoidNode.sort_key) if len(roots) > 1 else roots
    index.update(zip(nodes, range(len(nodes))))
    ends = [
        (index[node_t], index[node_s], abs(n_t), abs(n_s))
        for (node_s, n_s, _), (node_t, n_t, _) in occurrences.values()
    ]
    arcs = _Arcs(occurrences)

    adj: list[list[tuple[int, int, int, int]]] = [[] for _ in nodes]
    for k, (t, s, n_t, n_s) in enumerate(ends):
        # (arc, head, |weight| numerator, |weight| denominator), in arc order
        adj[t].append((2 * k, s, n_s, n_t))
        adj[s].append((2 * k + 1, t, n_t, n_s))
    num = [1] * len(nodes)  # |potential| = num / den
    den = [1] * len(nodes)
    tree_arc = [-1] * len(nodes)  # arc index into the node, -1 at a root
    parent = [-1] * len(nodes)
    root_of = [-1] * len(nodes)
    for start in range(len(nodes)):
        if root_of[start] >= 0:
            continue
        root_of[start] = start
        queue = [start]
        for u in queue:  # the list grows as it is read: a FIFO queue
            for a, v, p, q in adj[u]:
                if root_of[v] < 0:
                    x, y = num[u] * p, den[u] * q
                    g = gcd(x, y)
                    num[v], den[v] = x // g, y // g
                    tree_arc[v], parent[v], root_of[v] = a, u, start
                    queue.append(v)

    def path_from_root(v: int) -> list[int]:
        chain = []
        while tree_arc[v] >= 0:
            chain.append(tree_arc[v])
            v = parent[v]
        chain.reverse()
        return chain

    first_bad: dict[int, Unbalanced] = {}
    verdict: BalanceVerdict = Balanced()
    for k, (t, s, n_t, n_s) in enumerate(ends):
        root = root_of[t]
        # a tree edge agrees with the potential it set
        if root in first_bad or tree_arc[s] == 2 * k or tree_arc[t] == 2 * k + 1:
            continue
        if num[t] * n_s * den[s] == num[s] * n_t * den[t]:
            continue
        walk = path_from_root(t) + [2 * k] + [a ^ 1 for a in reversed(path_from_root(s))]
        cycle = tuple(arcs[a] for a in walk)
        top = bottom = 1
        for arc in cycle:
            top *= arc.weight.numerator
            bottom *= arc.weight.denominator
        modulus = Fraction(top, bottom)
        if abs(modulus) == 1:
            raise RuntimeError(f"cycle through arc {arcs[2 * k].label} is balanced")
        first_bad[root] = Unbalanced(cycle, modulus, occurrences)
        if isinstance(verdict, Balanced):
            verdict = first_bad[root]

    # edges come in sorted, and an edge's two ends share its component: so
    # each component's edges come out sorted and the components come out
    # ordered by least edge
    edges: dict[int, list[str]] = {}
    for name, (t, _, _, _) in zip(occurrences, ends):
        edges.setdefault(root_of[t], []).append(name)
    position = {root: i for i, root in enumerate(edges)}
    component = {}
    class_nodes: list[list[GroupoidNode]] = [[] for _ in edges]
    class_potentials: list[list[tuple[int, int]]] = [[] for _ in edges]
    for i, node in enumerate(nodes):
        c = component[node] = position[root_of[i]]
        class_nodes[c].append(node)
        class_potentials[c].append((num[i], den[i]))
    return RatioGroupoid(
        nodes=tuple(nodes),
        arcs=arcs,
        occurrences=occurrences,
        component=component,
        classes=tuple(
            EdgeClass(
                i,
                tuple(edges[r]),
                tuple(class_nodes[i]),
                first_bad.get(r, Balanced()),
                tuple(class_potentials[i]),
                occurrences,
            )
            for r, i in position.items()
        ),
        verdict=verdict,
    )
