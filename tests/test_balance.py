import random
from collections import Counter, deque
from fractions import Fraction

import pytest

from conftest import random_graph, random_tree_graph, relabel_graph
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


def cycle_is_consistent(verdict):
    prod = Fraction(1)
    for a, b in zip(verdict.cycle, verdict.cycle[1:]):
        assert a.dst == b.src
    assert verdict.cycle[-1].dst == verdict.cycle[0].src
    for arc in verdict.cycle:
        prod *= arc.weight
    return prod == verdict.modulus


# -- groupoid construction -------------------------------------------------------


def test_bs32_groupoid(bs32):
    g = build_groupoid(bs32)
    assert len(g.nodes) == 1
    edge_arcs = [a for a in g.arcs if a.sign == 1]
    assert len(edge_arcs) == 1
    assert edge_arcs[0].weight == Fraction(3, 2)


def test_trefoil_groupoid(trefoil):
    g = build_groupoid(trefoil)
    assert len(g.nodes) == 2
    arc = next(a for a in g.arcs if a.sign == 1)
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
    rng = random.Random(41)
    for _ in range(25):
        graph = random_graph(rng)
        g = build_groupoid(graph)
        weights = {}
        for arc in g.arcs:
            weights[(arc.label, arc.sign, arc.src, arc.dst)] = arc.weight
        for (label, sign, src, dst), w in weights.items():
            assert weights[(label, -sign, dst, src)] == 1 / w


def test_pass_emits_edge_arcs_in_order_and_class_attachments():
    """Two arcs per edge, in edge-id order with the stored orientation
    first: the order the first unbalanced cycle is read in.  Each class
    reads its edges' records from the groupoid's one map, and carries its
    nodes in groupoid order."""
    rng = random.Random(73)
    kinds = set()
    for _ in range(50):
        graph = random_graph(rng, rank2_prob=0.3)
        kinds.update(kind for _, kind in graph.vertices)
        g = build_groupoid(graph)
        assert [(a.label, a.sign) for a in g.arcs] == [
            (e, s) for e in graph.edge_ids() for s in (1, -1)
        ]
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
                    assert conj.is_identity
                    found += 1
                    seen["dihedral"] += 1
                else:
                    root, g, n = canonical_root(word)
                    assert (node.root, k, conj) == (root.letters, n, g), (e.name, side, word)
                    if len(word.letters) == 1:
                        seen[f"rank {kind.rank}, one letter"] += 1
                    elif len(root.letters) == 1:
                        seen["conjugated one-letter core"] += 1
                    else:
                        seen["multi-letter root"] += 1
        graphs += found > 0
    assert graphs >= 100 and seen["dihedral"] >= 300, (graphs, seen)
    assert min(seen.values()) >= 50 and len(seen) == 5, seen


def _reference_groupoid(graph):
    """The groupoid pass written with node-keyed dicts and Fraction
    potentials, testing both arcs of every edge: the reference the
    id-indexed pass must reproduce field for field."""
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

    def invert(arc):
        return GroupoidArc(arc.dst, arc.src, 1 / arc.weight, arc.label, -arc.sign)

    arcs = []
    for e in graph.edges:
        (node_s, n_s, _), (node_t, n_t, _) = occurrences[e.name]
        fwd = GroupoidArc(node_t, node_s, Fraction(n_s, n_t), e.name, 1)
        arcs += [fwd, invert(fwd)]
    adj = {n: [] for n in nodes}
    for arc in arcs:
        adj[arc.src].append(arc)
    potential, tree_arc, root_of = {}, {}, {}
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

    def path_from_root(node):
        chain = []
        while node in tree_arc:
            chain.append(tree_arc[node])
            node = tree_arc[node].src
        return chain[::-1]

    first_bad = {}
    verdict = Balanced()
    for arc in arcs:
        root = root_of[arc.src]
        if root in first_bad or tree_arc.get(arc.dst) is arc:
            continue
        if abs(potential[arc.src] * arc.weight) == abs(potential[arc.dst]):
            continue
        cycle = (
            path_from_root(arc.src) + [arc] + [invert(a) for a in reversed(path_from_root(arc.dst))]
        )
        modulus = Fraction(1)
        for a in cycle:
            modulus *= a.weight
        first_bad[root] = Unbalanced(tuple(cycle), modulus, occurrences)
        if isinstance(verdict, Balanced):
            verdict = first_bad[root]
    class_edges, class_nodes = {}, {}
    for edge, pair in occurrences.items():
        for node, _, _ in pair:  # both sides land in one component
            class_edges.setdefault(root_of[node], {})[edge] = None
    for node in nodes:
        class_nodes.setdefault(root_of[node], []).append(node)
    position = {root: i for i, root in enumerate(class_edges)}
    return RatioGroupoid(
        nodes=nodes,
        arcs=tuple(arcs),
        occurrences=occurrences,
        component={node: position[root_of[node]] for node in nodes},
        classes=tuple(
            EdgeClass(
                i,
                tuple(class_edges[r]),
                tuple(class_nodes[r]),
                first_bad.get(r, Balanced()),
                tuple(
                    (abs(potential[n].numerator), potential[n].denominator) for n in class_nodes[r]
                ),
                occurrences,
            )
            for i, r in enumerate(class_edges)
        ),
        verdict=verdict,
    )


def test_pass_matches_the_reference_pass():
    """Equal nodes, arcs, occurrences, components, classes (with their
    verdicts and potentials) and graph verdict, on seeded graphs with dihedral, rank-1 and
    rank-2 vertices, balanced and unbalanced components side by side."""
    rng = random.Random(97)
    kinds = set()
    seen = {"unbalanced": 0, "balanced": 0, "mixed": 0, "long cycle": 0}
    for i in range(600):
        graph = random_graph(
            rng, v_max=4 + i % 5, e_max=5 + i % 6, exp_max=(1, 2, 5)[i % 3], rank2_prob=0.3
        )
        kinds.update(kind for _, kind in graph.vertices)
        got, want = build_groupoid(graph), _reference_groupoid(graph)
        assert got.nodes == want.nodes
        assert got.arcs == want.arcs
        assert got.occurrences == want.occurrences
        assert got.component == want.component
        assert got.classes == want.classes
        # the classes' one field outside equality: the groupoid's map, compared above
        assert all(cls.occurrences is got.occurrences for cls in got.classes)
        assert type(got.verdict) is type(want.verdict)
        if isinstance(want.verdict, Unbalanced):
            assert got.verdict.cycle == want.verdict.cycle
            assert got.verdict.modulus == want.verdict.modulus
            assert cycle_is_consistent(got.verdict)
            seen["long cycle"] += len(want.verdict.cycle) >= 3
        verdicts = {type(cls.verdict) for cls in want.classes}
        seen["unbalanced"] += Unbalanced in verdicts
        seen["balanced"] += Balanced in verdicts
        seen["mixed"] += verdicts == {Balanced, Unbalanced}
    assert {DihedralInfinite(), Free(1), Free(2)} <= kinds
    assert min(seen.values()) >= 20, seen


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
    reports; the groupoid's arcs are built when they are read, and their
    count is known without building them.  One-letter images share their
    node and conjugator objects."""
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
    assert len(g.arcs) == 800 and not built
    arcs = list(g.arcs)
    assert built == {"Fraction": 800, "GroupoidArc": 800}
    assert [(a.label, a.sign) for a in arcs] == [(f"e{i:04d}", s) for i in range(400) for s in (1, -1)]
    # the one-letter images at a vertex share one node and one identity conjugator
    one_letter = [data for pair in g.occurrences.values() for data in pair if data[2].is_identity]
    assert len(one_letter) == 800 - 80
    assert len({id(node) for node, _, _ in one_letter}) == len({node for node, _, _ in one_letter})
    assert len({id(conj) for _, _, conj in one_letter}) == len({node for node, _, _ in one_letter})

    built.clear()
    g = build_groupoid(_ratio_cycle(400, unbalanced=True))
    assert isinstance(g.verdict, Unbalanced) and abs(g.verdict.modulus) == 4
    assert len(g.verdict.cycle) == 400 and cycle_is_consistent(g.verdict)
    # one weight per cycle arc, and the modulus
    assert built == {"Fraction": 401, "GroupoidArc": 400}


# -- group-level balance ----------------------------------------------------------


def test_bs32_unbalanced(bs32):
    verdict = build_groupoid(bs32).verdict
    assert isinstance(verdict, Unbalanced)
    assert verdict.modulus == Fraction(3, 2)
    assert cycle_is_consistent(verdict)


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
