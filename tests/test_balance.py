import random
from collections import Counter, deque
from fractions import Fraction

import pytest

from conftest import (
    check_cycle_contract,
    edge_arc,
    multi_letter_cycle,
    random_graph,
    random_tree_graph,
    relabel_graph,
)
import gogh.balance
import oracles
from gogh.balance import (
    SIDES,
    Balanced,
    EdgeClass,
    GroupoidArc,
    GroupoidNode,
    RatioGroupoid,
    Unbalanced,
    attachment_data,
    build_groupoid,
    canonical_root,
)
from gogh.dihedral import word_to_element
from gogh.cli import parse
from gogh.freewords import inv_letters, mul_letters, pow_letters
from gogh.model import (
    DIHEDRAL_R,
    DihedralInfinite,
    EdgeRecord,
    Free,
    GoghError,
    VertexWord,
    make_graph,
)
from oracles import (
    OracleBalancedWithinBounds,
    OracleUnbalanced,
    SearchBudgetExceeded,
    brute_force_balance_oracle,
)
from test_memory import balanced_cycle


def flip_edge(graph, name):
    edges = []
    for e in graph.edges:
        if e.name == name:
            edges.append(
                EdgeRecord(
                    name=e.name,
                    source=e.target,
                    target=e.source,
                    attachment_source=e.attachment_target,
                    attachment_target=e.attachment_source,
                )
            )
        else:
            edges.append(e)
    return make_graph(graph.vertices, edges)


# -- groupoid construction -------------------------------------------------------


def test_bs32_groupoid(bs32):
    g = build_groupoid(bs32)
    assert len(g.nodes) == 1
    # the one arc the pass builds: the loop that is its unbalanced cycle
    (arc,) = g.arcs
    assert arc.sign == 1 and arc.weight == Fraction(3, 2)


def test_trefoil_groupoid(trefoil):
    g = build_groupoid(trefoil)
    assert len(g.nodes) == 2 and g.arcs == ()
    arc = edge_arc(g.occurrences, "e", 1)
    # from the target-side root to the source-side root
    assert arc.src.vertex == "v" and arc.dst.vertex == "u"
    assert arc.weight == Fraction(2, 3)


def test_f2_groupoid_collapses_to_one_class(f2_example):
    g = build_groupoid(f2_example)
    # a^3 and b a^2 b^-1 share the canonical root a
    assert len(g.nodes) == 1
    (node,) = g.nodes
    assert node.root == ((1, 1),)
    # composed cycle modulus 3/2, from the exponent pair (3, 2)
    verdict = g.verdict
    assert isinstance(verdict, Unbalanced)
    assert abs(verdict.modulus) == Fraction(3, 2)


def test_every_arc_has_reciprocal_inverse():
    """Each arc the pass builds is its edge's arc, and the edge's other arc
    runs back with the reciprocal weight."""
    rng = random.Random(41)
    seen = 0
    for _ in range(25):
        graph = random_graph(rng)
        g = build_groupoid(graph)
        for arc in g.arcs:
            assert arc == edge_arc(g.occurrences, arc.label, arc.sign)
            back = edge_arc(g.occurrences, arc.label, -arc.sign)
            assert (back.src, back.dst, back.weight) == (arc.dst, arc.src, 1 / arc.weight)
            seen += 1
    assert seen >= 20, seen


def test_pass_emits_edge_arcs_in_order_and_class_attachments():
    """The pass emits the arcs of its unbalanced classes' cycles, in class
    order; each cycle opens with the +1 arc of the edge that closed it, and
    runs back through edges before that one in id order.  Each class reads
    its edges' records from the groupoid's one map, and carries its nodes in
    groupoid order."""
    rng = random.Random(73)
    kinds = set()
    for _ in range(50):
        graph = random_graph(rng, rank2_prob=0.3)
        kinds.update(kind for _, kind in graph.vertices)
        g = build_groupoid(graph)
        position = {e: k for k, e in enumerate(graph.edge_ids())}
        cycles = [cls.verdict.cycle for cls in g.classes if isinstance(cls.verdict, Unbalanced)]
        assert g.arcs == tuple(arc for cycle in cycles for arc in cycle)
        for first, *back in cycles:
            assert first.sign == 1
            assert all(position[arc.label] < position[first.label] for arc in back)
        for cls in g.classes:
            assert list(cls.edges) == sorted(cls.edges)
            assert cls.occurrences is g.occurrences
            for name in cls.edges:
                e = graph.edge(name)
                assert cls.occurrences[name] == (
                    attachment_data(e.attachment_source, {}),
                    attachment_data(e.attachment_target, {}),
                )
            assert cls.nodes == tuple(n for n in g.nodes if g.component[n] == cls.index)
    assert {DihedralInfinite(), Free(1), Free(2)} <= kinds


def test_dihedral_exponent_is_the_rotation_of_the_attachment():
    """The pass reads a one-letter attachment (g, k) as k times its root g,
    whatever the vertex kind.  In a dihedral vertex the element the word
    denotes, by the dihedral arithmetic, must be the rotation r^k.  In a free
    vertex the pass's (root, exponent, conjugator) must be canonical_root's,
    for one-letter words of rank-1 and rank-2 vertices, conjugated
    one-letter cores and multi-letter roots alike."""
    rng = random.Random(131)
    graphs = 0
    seen = Counter()
    for i in range(240):
        rank2_prob = (0.0, 0.5)[i % 2]
        graph = random_graph(rng, v_max=2 + i % 4, exp_max=(1, 5, 40)[i % 3], rank2_prob=rank2_prob)
        data = build_groupoid(graph).occurrences
        found = 0
        for e in graph.edges:
            for side, word, (node, k, conj) in zip(
                SIDES, (e.attachment_source, e.attachment_target), data[e.name]
            ):
                assert node.vertex == word.vertex
                kind = graph.kind(word.vertex)
                if isinstance(kind, DihedralInfinite):
                    assert k == word_to_element(word).k, (e.name, side, word)
                    assert node == GroupoidNode(word.vertex, ((DIHEDRAL_R, 1),))
                    assert conj == ()
                    found += 1
                    seen["dihedral"] += 1
                else:
                    root, g, n = canonical_root(word.letters)
                    assert (node.root, k, conj) == (root, n, g), (e.name, side, word)
                    if len(word.letters) == 1:
                        seen[f"rank {kind.rank}, one letter"] += 1
                    elif len(root) == 1:
                        seen["conjugated one-letter core"] += 1
                    else:
                        seen["multi-letter root"] += 1
        graphs += found > 0
    assert graphs >= 100 and seen["dihedral"] >= 300, (graphs, seen)
    assert min(seen.values()) >= 50 and len(seen) == 5, seen


def _random_reduced(rng, rank: int, size: int, last=None) -> tuple:
    """A freely reduced word of size letters of rank generators, with
    exponents in -3..3 but 0, its last letter of generator last if given."""
    letters = []
    for i in range(size):
        gens = [g for g in range(1, rank + 1) if not letters or g != letters[-1][0]]
        if i == size - 1 and last in gens:
            gens = [last]
        letters.append((rng.choice(gens), rng.choice([-3, -2, -1, 1, 2, 3])))
    return tuple(letters)


def test_one_letter_core_rule_is_canonical_roots(monkeypatch):
    """A word c g^k c^-1 whose cyclic core is one letter gets the node,
    exponent and conjugator that canonical_root gives, without calling it;
    a core of two or more letters still goes through canonical_root."""
    calls = Counter()

    def counted(letters):
        calls[letters] += 1
        return canonical_root(letters)

    monkeypatch.setattr(gogh.balance, "canonical_root", counted)
    rng = random.Random(35)
    seen = Counter()
    for i in range(500):
        rank = 2 + i % 2
        g = rng.randint(1, rank)
        k = rng.choice([-1, 1]) * rng.randint(1, 9)
        # a conjugator of 0-6 letters; every fourth ends in g or g^-1
        c = _random_reduced(rng, rank, rng.randint(0, 6), last=g if i % 4 == 0 else None)
        word = VertexWord("v", mul_letters(c, ((g, k),), inv_letters(c)))
        node, n, conj = attachment_data(word, {})
        root, want_conj, want_n = canonical_root(word.letters)
        assert (node, n, conj) == (GroupoidNode("v", root), want_n, want_conj), (c, g, k)
        assert node.root == ((g, 1),) and n == k
        seen["conjugated" if conj else "unconjugated"] += 1
        seen["ends in g" if c and c[-1][0] == g else "other"] += 1
    assert not calls
    assert min(seen.values()) >= 100, seen

    for i in range(100):
        rank = 2 + i % 2
        core = _random_reduced(rng, rank, rng.randint(2, 5))
        while core[0][0] == core[-1][0]:
            core = _random_reduced(rng, rank, rng.randint(2, 5))
        c = _random_reduced(rng, rank, rng.randint(0, 3))
        word = VertexWord("v", mul_letters(c, core, inv_letters(c)))
        calls.clear()
        node, n, conj = attachment_data(word, {})
        assert calls == {word.letters: 1}
        root, want_conj, want_n = canonical_root(word.letters)
        assert (node, n, conj) == (GroupoidNode("v", root), want_n, want_conj)


def _conjugated_cycle(n: int) -> str:
    """An n-cycle of rank-2 vertices, each edge attached by
    v.2 v.1^k v.2^-1 at its source and v.1^k at its target: every vertex
    has a one-letter image and a conjugated one-letter core of root v.1."""
    lines = [f"vertex v{i} free 2" for i in range(n)]
    for i in range(n):
        a, b = (2, 3) if i % 2 else (3, 2)
        j = (i + 1) % n
        lines.append(f'edge e{i} from=v{i} to=v{j} img_from="v{i}.2 v{i}.1^{a} v{i}.2^-1" img_to="v{j}.1^{b}"')
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text, letter_roots",
    [(balanced_cycle(200), 200), (multi_letter_cycle(8), 0), (_conjugated_cycle(12), 12)],
    ids=["balanced_cycle", "multi_letter_cycle", "conjugated_cycle"],
)
def test_records_hold_letters_and_one_node_per_root(text, letter_roots):
    """Each record is (node, n, conjugator letters): every conjugator is a
    tuple, so none is a VertexWord, a one-letter image's is the empty tuple
    itself, the letters rebuild the attachment as c R^n c^-1, and every
    record at one vertex with one one-letter root (letter_roots such pairs)
    holds one node object.  canonical_root's letters rebuild each word as
    g R^p g^-1 as well."""
    graph = parse(text)
    g = build_groupoid(graph)
    empty = ()
    nodes: dict = {}  # (vertex, root) -> ids of the record nodes there
    for e in graph.edges:
        for word, (node, n, conj) in zip((e.attachment_source, e.attachment_target), g.occurrences[e.name]):
            assert type(conj) is tuple, conj
            assert all(type(letter) is tuple for letter in conj), conj
            if len(word.letters) == 1:
                assert conj is empty, (e.name, conj)
            assert node.vertex == word.vertex
            assert mul_letters(conj, pow_letters(node.root, n), inv_letters(conj)) == word.letters
            root, c, p = canonical_root(word.letters)
            assert type(root) is tuple and type(c) is tuple
            assert mul_letters(c, pow_letters(root, p), inv_letters(c)) == word.letters
            assert (node.root, n, conj) == (root, p, c)
            if len(node.root) == 1:
                nodes.setdefault((node.vertex, node.root), set()).add(id(node))
    assert all(len(ids) == 1 for ids in nodes.values()), nodes
    assert len(nodes) == letter_roots


def _bfs_potentials(nodes, arcs):
    """BFS from each node in turn, in the order given: Fraction potentials,
    the start each node was reached from, and the arcs that disagree with
    the potentials."""
    adj = {n: [] for n in nodes}
    for arc in arcs:
        adj[arc.src].append(arc)
    potential, root_of = {}, {}
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
                    root_of[arc.dst] = start
                    queue.append(arc.dst)
    bad = [a for a in arcs if abs(potential[a.src] * a.weight) != abs(potential[a.dst])]
    return potential, root_of, bad


def _reference_groupoid(graph):
    """The groupoid pass written as a BFS with node-keyed dicts and Fraction
    potentials, testing both arcs of every edge: the reference the
    union-find pass must reproduce.  Each class holds its edges, its nodes,
    its potentials and, when unbalanced, its closing edge (the first edge in
    id order with which the class's edges so far are unbalanced) and the
    fewest arcs that join that edge's ends through earlier edges.  The
    potentials of an unbalanced class depend on the path they are read
    along, so the pass's are not compared."""
    occurrences = {}
    for e in graph.edges:
        occurrences[e.name] = tuple(
            attachment_data(word, {}) for word in (e.attachment_source, e.attachment_target)
        )
    nodes = tuple(
        sorted(
            {node for pair in occurrences.values() for node, _, _ in pair},
            key=GroupoidNode.sort_key,
        )
    )
    arcs = [edge_arc(occurrences, name, sign) for name in occurrences for sign in (1, -1)]
    potential, root_of, _ = _bfs_potentials(nodes, arcs)
    class_edges, class_nodes = {}, {}
    for edge, pair in occurrences.items():
        for node, _, _ in pair:  # both sides land in one component
            class_edges.setdefault(root_of[node], {})[edge] = None
    for node in nodes:
        class_nodes.setdefault(root_of[node], []).append(node)
    classes = []
    for r, edges in class_edges.items():
        closing, length = None, None
        for k, edge in enumerate(edges):
            before = [a for a in arcs if a.label in list(edges)[:k]]
            if not _bfs_potentials(class_nodes[r], before + [a for a in arcs if a.label == edge])[2]:
                continue
            # the fewest arcs back from the closing edge's source-side end
            closing = edge_arc(occurrences, edge, 1)
            distance = {closing.dst: 0}
            queue = deque([closing.dst])
            while queue:
                u = queue.popleft()
                for arc in before:
                    if arc.src == u and arc.dst not in distance:
                        distance[arc.dst] = distance[u] + 1
                        queue.append(arc.dst)
            length = 1 + distance[closing.src]
            break
        classes.append(
            {
                "edges": tuple(edges),
                "nodes": tuple(class_nodes[r]),
                "potentials": tuple(
                    (abs(potential[n].numerator), potential[n].denominator) for n in class_nodes[r]
                ),
                "closing": closing,
                "length": length,
            }
        )
    return nodes, occurrences, {node: root_of[node] for node in nodes}, classes


def test_pass_matches_the_reference_pass():
    """Equal nodes, occurrences, components, class edges and nodes, and
    verdict types; equal potentials in balanced classes.  An unbalanced
    class's cycle keeps the contract, opens with the reference's closing
    edge and has the reference's fewest arcs; the graph's verdict is the
    class closed first.  On seeded graphs with dihedral, rank-1 and rank-2
    vertices, balanced and unbalanced components side by side."""
    rng = random.Random(97)
    kinds = set()
    seen = {"unbalanced": 0, "balanced": 0, "mixed": 0, "long cycle": 0}
    for i in range(600):
        graph = random_graph(
            rng, v_max=4 + i % 5, e_max=5 + i % 6, exp_max=(1, 2, 5)[i % 3], rank2_prob=0.3
        )
        kinds.update(kind for _, kind in graph.vertices)
        got = build_groupoid(graph)
        nodes, occurrences, root_of, classes = _reference_groupoid(graph)
        assert got.nodes == nodes
        assert got.occurrences == occurrences
        assert all(cls.occurrences is got.occurrences for cls in got.classes)
        assert len(got.classes) == len(classes)
        for cls, want in zip(got.classes, classes):
            assert (cls.edges, cls.nodes) == (want["edges"], want["nodes"])
            assert {got.component[n] for n in cls.nodes} == {cls.index}
            assert len({root_of[n] for n in cls.nodes}) == 1
            if want["closing"] is None:
                assert cls.verdict == Balanced()
                assert cls.potentials == want["potentials"]
                continue
            check_cycle_contract(cls.verdict)
            assert cls.verdict.cycle[0] == want["closing"]
            assert len(cls.verdict.cycle) == want["length"]
            seen["long cycle"] += want["length"] >= 3
        position = {e: k for k, e in enumerate(graph.edge_ids())}
        closed = sorted(
            (position[want["closing"].label], cls.index)
            for cls, want in zip(got.classes, classes)
            if want["closing"] is not None
        )
        if closed:
            assert got.verdict is got.classes[closed[0][1]].verdict
        else:
            assert got.verdict == Balanced()
        seen["unbalanced"] += bool(closed)
        seen["balanced"] += len(closed) < len(classes)
        seen["mixed"] += 0 < len(closed) < len(classes)
    assert {DihedralInfinite(), Free(1), Free(2)} <= kinds
    assert min(seen.values()) >= 20, seen


def _reference_cycles(graph):
    """Each unbalanced class's cycle, by the search written with node-keyed
    dicts and (edge, node, sign) tuples: the closing edge's +1 arc, then
    the fewest arcs back by a breadth-first search over the class's edges
    before it, each node's arcs read in edge order, +1 before -1.  The
    closing edges are the reference pass's."""
    _, occurrences, _, classes = _reference_groupoid(graph)
    labels = list(occurrences)
    position = {label: k for k, label in enumerate(labels)}
    cycles = []
    for cls in classes:
        if cls["closing"] is None:
            cycles.append(None)
            continue
        closing = cls["closing"].label
        adj = {}
        for label in cls["edges"]:
            if position[label] < position[closing]:
                (s, _, _), (t, _, _) = occurrences[label]
                adj.setdefault(t, []).append((label, s, 1))
                adj.setdefault(s, []).append((label, t, -1))
        (s, _, _), (t, _, _) = occurrences[closing]
        back = {s: None}
        queue = deque([s])
        while queue and t not in back:
            u = queue.popleft()
            for label, v, sign in adj.get(u, ()):
                if v not in back:
                    back[v] = (u, label, sign)
                    queue.append(v)
        steps = []
        while t != s:
            t, label, sign = back[t]
            steps.append(edge_arc(occurrences, label, sign))
        cycles.append((edge_arc(occurrences, closing, 1), *reversed(steps)))
    return cycles


def _tied_paths(rng, paths, length):
    """Balanced paths of equal length between vertices x and y, each edge
    named, oriented and given its ratio at random, then a bad edge x -> y
    named after all of them: every path is a shortest way back."""
    kinds = {"x": Free(1), "y": DihedralInfinite()}
    chains = []
    for p in range(paths):
        inner = [f"p{p}m{i}" for i in range(length - 1)]
        for v in inner:
            kinds[v] = rng.choice((Free(1), DihedralInfinite()))
        chains.append(["x", *inner, "y"])

    def image(v, k):
        return VertexWord(v, ((DIHEDRAL_R if isinstance(kinds[v], DihedralInfinite) else 1, k),))

    names = [f"e{i:03d}" for i in range(paths * length)]
    rng.shuffle(names)
    edges = []
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            k = rng.choice((1, -1, 2, -2))  # |n_s| == |n_t|: every path has weight +-1
            a, b = (a, b) if rng.random() < 0.5 else (b, a)
            edges.append(EdgeRecord(names.pop(), a, b, image(a, k), image(b, -k)))
        if rng.random() < 0.3:  # a balanced loop on the way adds a self-arc
            v = rng.choice(chain)
            edges.append(EdgeRecord(f"loop{len(edges)}", v, v, image(v, 2), image(v, -2)))
    edges.append(EdgeRecord("z", "x", "y", image("x", 3), image("y", 1)))
    return make_graph(list(kinds.items()), edges)


def test_cycle_search_matches_the_reference_search():
    """Every unbalanced class's cycle equals the reference search's arc for
    arc: on seeded graphs with rank-2 and dihedral vertices, and on graphs
    where several shortest paths tie, where the choice among them must
    follow edge order the same way."""
    rng = random.Random(2028)
    kinds, cycles = set(), Counter()
    for i in range(600):
        graph = random_graph(
            rng, v_max=4 + i % 5, e_max=5 + i % 6, exp_max=(1, 2, 5)[i % 3], rank2_prob=0.3
        )
        kinds.update(kind for _, kind in graph.vertices)
        got = [cls.verdict for cls in build_groupoid(graph).classes]
        for verdict, want in zip(got, _reference_cycles(graph), strict=True):
            if want is None:
                assert verdict == Balanced()
                continue
            assert verdict.cycle == want
            check_cycle_contract(verdict)
            cycles["long" if len(want) >= 3 else "short"] += 1
    assert {DihedralInfinite(), Free(1), Free(2)} <= kinds, kinds
    assert min(cycles.values()) >= 50, cycles
    chosen = Counter()
    for i in range(200):
        graph = _tied_paths(rng, paths=2 + i % 3, length=2 + i % 4)
        (verdict,) = [cls.verdict for cls in build_groupoid(graph).classes]
        assert verdict.cycle == _reference_cycles(graph)[0]
        check_cycle_contract(verdict)
        # the path the search kept, by its first inner vertex
        chosen[(2 + i % 3, verdict.cycle[1].dst.vertex)] += 1
    # each tie size sees more than one of its paths chosen
    for paths in (2, 3, 4):
        assert len([v for p, v in chosen if p == paths]) > 1, chosen


def _ratio_cycle(n, unbalanced):
    """A cycle of n (even) vertices whose edge ratios n_s/n_t alternate
    -2/3 and 3/2, so that they multiply to 1, or to 4 when unbalanced.
    Every third vertex is dihedral and every fifth free of rank 2, which
    leaves v.2 v.1^k v.2^-1, a conjugated root, on its outgoing edge."""
    kinds = [
        Free(2) if i % 5 == 0 else DihedralInfinite() if i % 3 == 0 else Free(1) for i in range(n)
    ]

    def word(i, k, outgoing):
        vertex = f"v{i:04d}"
        if isinstance(kinds[i], DihedralInfinite):
            return VertexWord(vertex, ((DIHEDRAL_R, k),))
        if kinds[i] == Free(2) and outgoing:
            return VertexWord(vertex, ((2, 1), (1, k), (2, -1)))
        return VertexWord(vertex, ((1, k),))

    edges = []
    for i in range(n):
        n_s, n_t = (-2, 3) if i % 2 == 0 else (3, 2)
        if unbalanced and i == n // 2:
            n_s *= 4
        j = (i + 1) % n
        edges.append(
            EdgeRecord(f"e{i:04d}", f"v{i:04d}", f"v{j:04d}", word(i, n_s, True), word(j, n_t, False))
        )
    return make_graph([(f"v{i:04d}", kind) for i, kind in enumerate(kinds)], edges)


def test_pass_builds_only_the_arcs_it_reports(monkeypatch):
    """The pass builds an arc, and its Fraction weight, only for the cycle it
    reports, and the groupoid's arcs are those.  One-letter images share
    their node objects and the empty conjugator."""
    built = Counter()

    def counting(name, make):
        def counted(*args):
            built[name] += 1
            return make(*args)

        return counted

    monkeypatch.setattr(gogh.balance, "Fraction", counting("Fraction", Fraction))
    monkeypatch.setattr(gogh.balance, "GroupoidArc", counting("GroupoidArc", GroupoidArc))
    g = build_groupoid(_ratio_cycle(400, unbalanced=False))
    assert isinstance(g.verdict, Balanced) and len(g.nodes) == 400
    assert g.arcs == () and not built
    # the one-letter images at a vertex share one node, and all the empty conjugator
    one_letter = [data for pair in g.occurrences.values() for data in pair if not data[2]]
    assert len(one_letter) == 800 - 80
    assert len({id(node) for node, _, _ in one_letter}) == len({node for node, _, _ in one_letter})
    assert {id(conj) for _, _, conj in one_letter} == {id(())}

    built.clear()
    g = build_groupoid(_ratio_cycle(400, unbalanced=True))
    assert isinstance(g.verdict, Unbalanced) and abs(g.verdict.modulus) == 4
    assert len(g.verdict.cycle) == 400 and g.arcs == g.verdict.cycle
    check_cycle_contract(g.verdict)
    # one weight per distinct (top, bottom) exponent ratio, which every arc
    # of that ratio shares, and the modulus
    weights: dict[tuple[int, int], set[int]] = {}
    for arc in g.verdict.cycle:
        (_, n_s, _), (_, n_t, _) = g.occurrences[arc.label]
        ratio = (n_s, n_t) if arc.sign > 0 else (n_t, n_s)
        assert arc.weight == Fraction(*ratio)
        weights.setdefault(ratio, set()).add(id(arc.weight))
    assert all(len(ids) == 1 for ids in weights.values()), weights
    assert 1 < len(weights) < 400
    assert built == {"Fraction": len(weights) + 1, "GroupoidArc": 400}


# -- group-level balance ----------------------------------------------------------


def test_bs32_unbalanced(bs32):
    verdict = build_groupoid(bs32).verdict
    assert isinstance(verdict, Unbalanced)
    assert verdict.modulus == Fraction(3, 2)
    check_cycle_contract(verdict)


def test_unbalanced_verdict_carries_the_pass_data(f2_example):
    """The verdict holds the pass's occurrences map itself, and equality and
    hashing still see only the cycle and the modulus."""
    g = build_groupoid(f2_example)
    assert g.verdict.occurrences is g.occurrences
    assert g.classes[0].verdict is g.verdict
    bare = Unbalanced(g.verdict.cycle, g.verdict.modulus, {})
    assert bare == g.verdict and hash(bare) == hash(g.verdict)
    assert "occurrences" not in repr(g.verdict)


def test_inverting_loop_balanced(klein):
    assert isinstance(build_groupoid(klein).verdict, Balanced)


def test_dihedral_flip_never_unbalances(dihedral_loop):
    assert isinstance(build_groupoid(dihedral_loop).verdict, Balanced)


def test_inverting_square_loop_balanced():
    # t v^2 t^-1 = v^-2: the lone cycle has weight -1
    from gogh.cli import parse

    g = parse('vertex v free 1\nedge e from=v to=v img_from="v.1^-2" img_to="v.1^2"\n')
    assert isinstance(build_groupoid(g).verdict, Balanced)
    assert isinstance(brute_force_balance_oracle(g, "e", 3, 4), OracleBalancedWithinBounds)


def test_trees_always_balanced():
    rng = random.Random(43)
    for _ in range(50):
        g = random_tree_graph(rng)
        assert isinstance(build_groupoid(g).verdict, Balanced)


# -- per-edge balance ---------------------------------------------------------------


def test_edge_verdicts_on_fixtures(bs32, trefoil, f2_example):
    assert isinstance(build_groupoid(bs32).class_of("e").verdict, Unbalanced)
    assert isinstance(build_groupoid(trefoil).class_of("e").verdict, Balanced)
    assert isinstance(build_groupoid(f2_example).class_of("e").verdict, Unbalanced)


def test_group_unbalanced_iff_some_edge_unbalanced():
    rng = random.Random(47)
    for _ in range(60):
        g = random_graph(rng)
        groupoid = build_groupoid(g)
        group = isinstance(groupoid.verdict, Unbalanced)
        edges = any(isinstance(groupoid.class_of(e).verdict, Unbalanced) for e in g.edge_ids())
        assert group == edges


def test_verdict_invariant_under_edge_reversal():
    rng = random.Random(53)
    for _ in range(40):
        g = random_graph(rng)
        flipped = g
        for e in g.edge_ids():
            if rng.random() < 0.5:
                flipped = flip_edge(flipped, e)
        before, after = build_groupoid(g), build_groupoid(flipped)
        assert isinstance(before.verdict, Balanced) == isinstance(after.verdict, Balanced)
        for e in g.edge_ids():
            assert isinstance(before.class_of(e).verdict, Balanced) == isinstance(
                after.class_of(e).verdict, Balanced
            )


def test_verdict_invariant_under_relabeling():
    rng = random.Random(59)
    for _ in range(30):
        g = random_graph(rng)
        ids = list(g.vertex_ids())
        shuffled = ids[:]
        rng.shuffle(shuffled)
        vmap = dict(zip(ids, (f"w{s}" for s in shuffled)))
        h = relabel_graph(g, vmap)
        assert isinstance(build_groupoid(g).verdict, Balanced) == isinstance(
            build_groupoid(h).verdict, Balanced
        )


def test_amalgam_closure():
    # joining two balanced graphs by one new edge between them stays balanced
    rng = random.Random(61)
    built = 0
    while built < 20:
        g1 = random_graph(rng, v_max=3, e_max=3)
        g2 = random_graph(rng, v_max=3, e_max=3)
        if not isinstance(build_groupoid(g1).verdict, Balanced):
            continue
        if not isinstance(build_groupoid(g2).verdict, Balanced):
            continue
        vmap = {v: f"l_{v}" for v in g1.vertex_ids()}
        g1r = relabel_graph(g1, vmap)
        g2r = relabel_graph(g2, {v: f"r_{v}" for v in g2.vertex_ids()})
        edges = list(g1r.edges) + [
            EdgeRecord(
                name=e.name + "_r",
                source=e.source,
                target=e.target,
                attachment_source=e.attachment_source,
                attachment_target=e.attachment_target,
            )
            for e in g2r.edges
        ]
        from conftest import _random_attachment

        kinds = dict(g1r.vertices) | dict(g2r.vertices)
        src = rng.choice(g1r.vertex_ids())
        tgt = rng.choice(g2r.vertex_ids())
        edges.append(
            EdgeRecord(
                name="bridge",
                source=src,
                target=tgt,
                attachment_source=_random_attachment(rng, src, kinds[src], 5),
                attachment_target=_random_attachment(rng, tgt, kinds[tgt], 5),
            )
        )
        joined = make_graph(list(g1r.vertices) + list(g2r.vertices), edges)
        assert isinstance(build_groupoid(joined).verdict, Balanced)
        built += 1


# -- brute-force oracle ---------------------------------------------------------------


def test_oracle_finds_bs32_relation(bs32):
    out = brute_force_balance_oracle(bs32, "e", 1, 3)
    assert isinstance(out, OracleUnbalanced)
    assert {abs(out.i), abs(out.j)} == {2, 3}


def test_oracle_trefoil_balanced_within_bounds(trefoil):
    out = brute_force_balance_oracle(trefoil, "e", 4, 4)
    assert isinstance(out, OracleBalancedWithinBounds)


def test_oracle_f2_finds_three_two(f2_example):
    out = brute_force_balance_oracle(f2_example, "e", 3, 3)
    assert isinstance(out, OracleUnbalanced)
    assert {abs(out.i), abs(out.j)} == {2, 3}
    # the conjugator lives in the vertex group, no stable letters
    assert all(tok[0] == "g" for tok in out.conjugator)


def test_oracle_reverifies_its_hit_without_asserts(bs32, monkeypatch):
    # an explicit raise, so `python -O` cannot strip the re-verification
    monkeypatch.setattr(oracles, "are_equal", lambda *args: False)
    with pytest.raises(GoghError, match="re-verification"):
        brute_force_balance_oracle(bs32, "e", 1, 3)


def test_oracle_budget(f2_example):
    with pytest.raises(SearchBudgetExceeded):
        brute_force_balance_oracle(f2_example, "e", 6, 3, node_cap=10)


def test_oracle_agreement_small_sample():
    rng = random.Random(67)
    for _ in range(25):
        g = random_graph(rng, v_max=3, e_max=4, rank2_prob=0.1)
        groupoid = build_groupoid(g)
        for e in g.edge_ids():
            try:
                out = brute_force_balance_oracle(g, e, 4, 4, node_cap=3000)
            except SearchBudgetExceeded:
                continue
            if isinstance(out, OracleUnbalanced):
                assert isinstance(groupoid.class_of(e).verdict, Unbalanced)
