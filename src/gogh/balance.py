"""Balance decisions through a rational-weighted commensurability groupoid.

Every attachment image of an edge-group generator is a conjugate power of a
canonical root inside its vertex group: the least rotation of its primitive
root or of that root's inverse, which this module computes.  Canonical
roots take O(L) letter comparisons in a root of L letters: the least
rotation is found by Booth's algorithm, once on the root and once on its
inverse.  One rule covers one-letter images: g^k is k times its own root
g, unconjugated, since validation admits only r^k as a dihedral attachment
and a free basis letter is primitive and its own least rotation.  A second
covers free images whose cyclic core is one letter: c g^k c^-1 is k times
root g, conjugated by c, with no rotation to find.  Nodes
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
it in one pass: the connected components (which are the edge-image
equivalence classes), their potentials, and per component either balance
or one unbalanced cycle.  Each edge adds one relation
t a_t^(n_t) t^-1 = a_s^(n_s), so the pass keeps one record per edge, the
attachment data of its two sides, each (node, exponent, conjugator
letters), the conjugator's vertex being the node's; all one-letter images
and cores at a vertex with root g share one node, and a one-letter image
has the empty conjugator.  A potential is the absolute value of a product
of arc weights, kept as a gcd-reduced pair of positive integers.  A
union-find with path compression (Galler-Fischer, CACM 7(5), 1964;
Tarjan, JACM 22(2), 1975) keeps each node's potential relative to its
parent and makes the lesser node id the root, so a balanced class's
potentials are relative to its least node, whatever path set them, and
``parametrize`` builds its certificate from them.  The first edge that
disagrees with the potentials of its component closes a cycle with the
fewest arcs back through earlier edges, which are balanced among
themselves, so the cycle visits no node twice.  A breadth-first search
finds them on the integer node ids, with each arc an integer too (edge
position and orientation) and a list from node id to the arc that
reached it; it reads each node's arcs in edge order, so ties between
shortest paths break by edge order.  Arcs, with their ``Fraction``
weights, are built for the cycles found only.  Each fact is
stored once: the attachment data lives in the pass's one map from edge to
record, a class holds its verdict and its edges, and an unbalanced verdict
holds the map, which ``certify`` reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
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


@record
class Balanced:
    pass


@record(uncompared=("occurrences",))
class Unbalanced:
    cycle: tuple[GroupoidArc, ...]
    modulus: Fraction
    # the pass's attachment data, edge -> (source data, target data)
    occurrences: dict

    @property
    def edge(self) -> str:
        """The offending edge reported for this cycle: its least edge id."""
        return min(arc.label for arc in self.cycle)


BalanceVerdict = Balanced | Unbalanced


@record(uncompared=("occurrences",))
class EdgeClass:
    """One groupoid component, as the edges whose attachments land in it."""

    index: int
    edges: tuple[str, ...]  # its edge ids, sorted
    nodes: tuple[GroupoidNode, ...]  # the component's nodes, in groupoid order
    verdict: BalanceVerdict  # the component's first unbalanced cycle, or balance
    # |potential| of each node relative to the component's least node, aligned
    # with nodes, as a reduced pair (num, den) of positive ints; in an
    # unbalanced class it depends on the path the pass read it along
    potentials: tuple[tuple[int, int], ...]
    # the groupoid's one map of attachment data, edge -> (source, target),
    # each side (node, signed root exponent, conjugator letters at the
    # node's vertex)
    occurrences: dict


@record(eq=False)
class RatioGroupoid:
    nodes: tuple[GroupoidNode, ...]  # in vertex-table order, then by sort_key
    occurrences: dict  # edge -> (source, target) attachment data, in id order
    component: dict  # node -> index of its component in classes
    classes: tuple[EdgeClass, ...]  # components, ordered by least edge
    verdict: BalanceVerdict  # the whole graph: the cycle closed first in id order

    @property
    def arcs(self) -> tuple[GroupoidArc, ...]:
        """The arcs the pass built: those of its classes' unbalanced cycles."""
        cycles = (cls.verdict.cycle for cls in self.classes if isinstance(cls.verdict, Unbalanced))
        return tuple(arc for cycle in cycles for arc in cycle)

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


def canonical_root(letters: fw.Letters) -> tuple[fw.Letters, fw.Letters, int]:
    """(canonical root R, conjugator g, signed exponent p) as letters, with
    w = g R^p g^-1 for the nontrivial freely reduced letters w.

    R is the lexicographically least rotation of the primitive root or of
    its inverse, ordered by (generator, exponent sign, exponent size), so
    commensurable words share the same R.  Booth's least rotation runs once
    on the root and once on its inverse, so this is O(L) in the root's
    letters.  The two never tie: no nontrivial free word is conjugate to
    its inverse.
    """
    rd = fw.primitive_root(letters)
    best = None
    for source, flip in ((rd.root, 1), (fw.inv_letters(rd.root), -1)):
        keys = [_letter_key(l) for l in source]
        i = _least_rotation(keys)
        key = keys[i:] + keys[:i]
        if best is None or key < best[0]:
            best = (key, source[i:] + source[:i], flip, source[:i])
    _, rot, flip, prefix = best
    # source = prefix * rot * prefix^-1, and root = source^flip
    return rot, fw.mul_letters(rd.conjugator, prefix), rd.exponent * flip


def _letter_node(vertex: str, g, shared: dict) -> GroupoidNode:
    """The node of root g at vertex, stored in shared at (vertex, g), where
    a caller looks first."""
    root = shared.get(g)
    if root is None:
        root = shared[g] = ((g, 1),)
    node = shared[vertex, g] = GroupoidNode(vertex, root)
    return node


def attachment_data(word: VertexWord, shared: dict):
    """(node, signed root exponent n, conjugator letters c) with
    word = c root^n c^-1, for the attachment word on one side of an edge;
    c's vertex is the node's.  A one-letter g^k, free or dihedral, is root
    g, n = k, c = () (see above).  A free word c g^k c^-1 whose cyclic core
    is the one letter g^k is root g, n = k and conjugator c, with no least
    rotation to find: g's key (g, 0, 1) sorts before its inverse's
    (g, 1, 1), and c, a prefix of the reduced word, is reduced, so
    ``canonical_root`` gives the same.  Every one-letter image or core at a
    vertex with root g gets the node that ``shared`` holds for (vertex, g),
    and every node of root g the letters ``shared`` holds for g, all
    immutable, so a pass builds them once per root."""
    vertex, letters = word.vertex, word.letters
    if len(letters) == 1:
        ((g, k),) = letters
        return shared.get((vertex, g)) or _letter_node(vertex, g, shared), k, ()
    conj, core = fw.cyclic_reduce(letters)
    if len(core) == 1:
        ((g, k),) = core
        return shared.get((vertex, g)) or _letter_node(vertex, g, shared), k, conj
    root, conj, n = canonical_root(letters)
    return GroupoidNode(vertex, root), n, conj


def _close_cycles(occurrences: dict, heads: list, tails: list, parent: list, closing: dict) -> dict:
    """The unbalanced verdict of each class in closing (its root -> the
    position k of its closing edge): the cycle is edge k's +1 arc, from
    t = tails[k] to s = heads[k], then the fewest arcs from s back to t over
    the class's edges before k.  Those edges join s and t in a balanced
    part, so a shortest path repeats no node.

    An arc is an int: 2j is edge j's +1 arc, from tails[j] to heads[j], and
    2j + 1 its -1 arc, so arc a runs from ends[a ^ 1] to ends[a].  Each node
    lists its arcs out in edge order, and the breadth-first search reads
    them in that order, so of several shortest paths it keeps the one that
    reaches each node by its first arc.  back[v] is the arc that first
    reached v (for s, the closing arc), and a search stops once it has
    reached t.  Classes share no node, so they share one back list.  Arcs,
    with their ``Fraction`` weights, are built for the cycle only: one
    weight per distinct (top, bottom) exponent ratio in the call, which
    the arcs of that ratio share, since a ``Fraction`` is immutable.  The
    modulus, their product, is one ``Fraction`` of the products of the two
    sides of their exponent ratios.
    """
    stop = max(closing.values())
    ends = [0] * (2 * stop)
    ends[0::2], ends[1::2] = heads[:stop], tails[:stop]
    arcs_out: list[list[int]] = [[] for _ in parent]
    for k in range(stop):
        t = tails[k]
        if k < closing.get(parent[t], 0):
            arcs_out[t].append(2 * k)
            arcs_out[heads[k]].append(2 * k + 1)
    back = [-1] * len(parent)
    labels = list(occurrences)
    weights: dict[tuple[int, int], Fraction] = {}  # (top, bottom) -> its arcs' weight
    found = {}
    for r, k in closing.items():
        s = heads[k]
        t = tails[k]
        back[s] = 2 * k
        queue = [s]
        for u in queue:  # the list grows as it is read: a FIFO queue
            for a in arcs_out[u]:
                v = ends[a]
                if back[v] < 0:
                    back[v] = a
                    queue.append(v)
            if back[t] >= 0:
                break
        steps = []
        while t != s:
            a = back[t]
            steps.append(a)
            t = ends[a ^ 1]
        cycle, tops, bottoms = [], [], []
        for a in (2 * k, *reversed(steps)):
            label = labels[a >> 1]
            (node_s, n_s, _), (node_t, n_t, _) = occurrences[label]
            if a & 1:
                src, dst, top, bottom, sign = node_s, node_t, n_t, n_s, -1
            else:
                src, dst, top, bottom, sign = node_t, node_s, n_s, n_t, 1
            weight = weights.get((top, bottom))
            if weight is None:
                weight = weights[top, bottom] = Fraction(top, bottom)
            cycle.append(GroupoidArc(src, dst, weight, label, sign))
            tops.append(top)
            bottoms.append(bottom)
        modulus = Fraction(prod(tops), prod(bottoms))
        if abs(modulus) == 1:
            raise RuntimeError(f"cycle through arc {labels[k]} is balanced")
        found[r] = Unbalanced(tuple(cycle), modulus, occurrences)
    return found


def build_groupoid(graph: GraphOfGroups) -> RatioGroupoid:
    """The ratio groupoid of the graph, split into components and decided.

    Each edge is read into its record in id order (a validated graph stores
    its edges sorted), and each node is hashed once per edge side, to number
    it in order of first sight.  The nodes are then numbered in vertex-table
    order, by ``GroupoidNode.sort_key`` within a vertex.  One union-find
    loop over the edges in id order unites components and tests the edges
    inside one.  Each unbalanced class's cycle is its first failing edge's
    +1 arc, then the fewest arcs back by a BFS through the class's earlier
    edges; the graph's verdict is the class whose cycle closed first.
    """
    shared: dict = {}
    occurrences = {}
    seen: dict[GroupoidNode, int] = {}  # node -> its number in order of first sight
    heads: list[int] = []  # each edge's source node, by first-sight number
    tails: list[int] = []  # each edge's target node, likewise
    for e in graph.edges:
        (node_s, _, _), (node_t, _, _) = occurrences[e.name] = (
            attachment_data(e.attachment_source, shared),
            attachment_data(e.attachment_target, shared),
        )
        heads.append(seen.setdefault(node_s, len(seen)))
        tails.append(seen.setdefault(node_t, len(seen)))
    at_vertex: dict[str, list[GroupoidNode]] = {}
    for node in seen:
        at_vertex.setdefault(node.vertex, []).append(node)
    nodes: list[GroupoidNode] = []
    for v, _ in graph.vertices:
        roots = at_vertex.get(v, ())
        nodes += sorted(roots, key=GroupoidNode.sort_key) if len(roots) > 1 else roots
    del at_vertex  # freed before the pass, whose peak it would raise
    renumber = [0] * len(nodes)  # first-sight number -> number
    for i, node in enumerate(nodes):
        renumber[seen[node]] = i
    del seen
    heads = [renumber[i] for i in heads]
    tails = [renumber[i] for i in tails]

    # |potential of v| = num[v] / den[v] times parent[v]'s; a root is its own parent
    parent = list(range(len(nodes)))
    num, den = [1] * len(nodes), [1] * len(nodes)

    def find(v: int) -> int:
        """v's root, pointing v and the nodes above it straight at it."""
        root = parent[v]
        path = []
        while parent[root] != root:
            path.append(v)
            v, root = root, parent[root]
        for u in reversed(path):  # each points at a node that points at root
            w = parent[u]
            p, q = num[u] * num[w], den[u] * den[w]
            g = gcd(p, q)
            num[u], den[u], parent[u] = p // g, q // g, root
        return root

    closing: dict[int, int] = {}  # root -> position of its first failing edge
    pairs = zip(occurrences.values(), heads, tails)
    for k, (((_, n_s, _), (_, n_t, _)), s, t) in enumerate(pairs):
        r_t, r_s = parent[t], parent[s]
        if parent[r_t] != r_t:
            r_t = find(t)
        if parent[r_s] != r_s:
            r_s = find(s)
        # the arc t -> s scales the potential by |n_s/n_t|: it agrees iff x == y
        x = num[t] * den[s] * abs(n_s)
        y = num[s] * den[t] * abs(n_t)
        if r_t == r_s:
            if x != y:
                closing.setdefault(r_t, k)
            continue
        if r_s < r_t:
            r_t, r_s, x, y = r_s, r_t, y, x
        g = gcd(x, y)  # |potential of r_s| / |potential of r_t| = x / y
        parent[r_s], num[r_s], den[r_s] = r_t, x // g, y // g
        if r_s in closing:
            closing[r_t] = min(closing.pop(r_s), closing.get(r_t, k))

    for v in range(len(nodes)):
        if parent[parent[v]] != parent[v]:
            find(v)  # from here on, parent[v] is v's root
    # edges come in sorted, and an edge's two ends share its component: so
    # each component's edges come out sorted and the components come out
    # ordered by least edge
    edges: dict[int, list[str]] = {}
    for name, t in zip(occurrences, tails):
        members = edges.get(parent[t])
        if members is None:
            members = edges[parent[t]] = []
        members.append(name)
    first_bad = _close_cycles(occurrences, heads, tails, parent, closing) if closing else {}
    verdict = first_bad[min(closing, key=closing.get)] if closing else Balanced()

    position = {root: i for i, root in enumerate(edges)}
    of_node = [position[root] for root in parent]
    class_nodes: list[list[GroupoidNode]] = [[] for _ in edges]
    class_potentials: list[list[tuple[int, int]]] = [[] for _ in edges]
    for node, c, potential in zip(nodes, of_node, zip(num, den)):
        class_nodes[c].append(node)
        class_potentials[c].append(potential)
    return RatioGroupoid(
        nodes=tuple(nodes),
        occurrences=occurrences,
        component=dict(zip(nodes, of_node)),
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
