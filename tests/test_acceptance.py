"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and enforcing the stated budget."""

import random
from fractions import Fraction

import pytest

from conftest import (
    BS32_TEXT,
    Clock,
    F2_EXAMPLE_TEXT,
    all_arcs,
    fixture_graphs,
    canonical_relabel,
    random_graph,
    random_tree_graph,
    relabel_graph,
    rewriting_bfs_trivial,
    random_word_tokens,
)
from gogh.balance import (
    Balanced,
    Unbalanced,
    build_groupoid,
)
from gogh.certify import almost_bs_witness, distortion_certificate, relation_tokens
from gogh import cli
from gogh.checks import verify_parametrization
from gogh.cli import parse, render_json, serialize
from gogh.conjgraph import build_conjugacy_graph
from gogh.dihedral import DihedralElement, dinv, dmul, dpow
from gogh.model import Free, VertexWord
from gogh.parametrize import (
    HHG,
    LinearParametrization,
    NotHHG,
    hhg_verdict,
    parametrize,
)
from gogh.words import invert_tokens, is_trivial, to_path_form, are_equal
from oracles import OracleUnbalanced, brute_force_balance_oracle


@pytest.fixture(scope="module")
def small_instances():
    rng = random.Random(20240)
    return [random_graph(rng, v_max=4, e_max=5, exp_max=5, rank2_prob=0.15) for _ in range(100)]


def test_criterion_1_worked_example_end_to_end():
    with Clock("1 worked-example", 1.0):
        g = parse(F2_EXAMPLE_TEXT)
        # derived graph: one rank-one vertex, one loop, exponents {2, 3}
        cg = build_conjugacy_graph(g, build_groupoid(g).class_of("e"))
        assert len(cg.graph.vertices) == 1
        assert cg.graph.vertices[0][1] == Free(1)
        (loop,) = cg.graph.edges
        assert loop.source == loop.target
        exps = {
            abs(loop.attachment_source.letters[0][1]),
            abs(loop.attachment_target.letters[0][1]),
        }
        assert exps == {2, 3}
        verdict = hhg_verdict(g)
        assert isinstance(verdict, NotHHG)
        w = verdict.witness
        # the emitted conjugator, read backwards, is b^-1 t^-1 and satisfies
        # s a^3 s^-1 = a^2; Britton reduction verifies both orientations
        s_inverse = invert_tokens(w.s)
        stated = [("g", "v", 2, -1), ("t", "e", -1)]
        assert are_equal(
            g, to_path_form(g, s_inverse, "v"), to_path_form(g, stated, "v")
        )
        a3_conj = relation_tokens(VertexWord("v", ((1, 1),)), stated, 3, 2)
        assert is_trivial(g, a3_conj)
        assert is_trivial(g, relation_tokens(w.a, w.s, w.i, w.j))
        assert not w.transcript.tail and w.transcript.head.is_identity


def test_criterion_2_bs_family():
    with Clock("2 bs-family", 5.0):
        for m in range(-6, 7):
            for n in range(-6, 7):
                if m == 0 or n == 0:
                    continue
                g = parse(
                    f'vertex v free 1\n'
                    f'edge e from=v to=v img_from="v.1^{m}" img_to="v.1^{n}"\n'
                )
                verdict = hhg_verdict(g)
                assert isinstance(verdict, HHG) == (abs(m) == abs(n)), (m, n)
                if isinstance(verdict, HHG):
                    for cert in verdict.certificates:
                        ok, report = verify_parametrization(cert.conjugacy_graph.graph, cert.phi)
                        assert ok, report
                else:
                    t = verdict.witness.transcript
                    assert not t.tail and t.head.is_identity


def test_criterion_3_tree_theorem():
    with Clock("3 tree-theorem", 10.0):
        rng = random.Random(555)
        for _ in range(200):
            g = random_tree_graph(rng, v_max=6, exp_max=9)
            assert isinstance(build_groupoid(g).verdict, Balanced)
            assert isinstance(hhg_verdict(g), HHG)


def _cycle_moduli_closure(graph, depth=6):
    """Absolute moduli of groupoid cycles, as a bounded multiplicative closure
    of the fundamental-cycle moduli."""
    groupoid = build_groupoid(graph)
    adjacency = {}
    for arc in all_arcs(groupoid.occurrences):
        adjacency.setdefault(arc.src, []).append(arc)
    potential, basis = {}, set()
    for start in groupoid.nodes:
        if start in potential:
            continue
        potential[start] = Fraction(1)
        queue = [start]
        while queue:
            u = queue.pop()
            for arc in adjacency.get(u, ()):
                if arc.dst in potential:
                    m = abs(potential[u] * arc.weight / potential[arc.dst])
                    if m != 1:
                        basis.add(m)
                else:
                    potential[arc.dst] = potential[u] * arc.weight
                    queue.append(arc.dst)
    closure = {Fraction(1)}
    frontier = {Fraction(1)}
    for _ in range(depth):
        frontier = {
            v * m for v in frontier for b in basis for m in (b, 1 / b)
        } - closure
        closure |= frontier
    return closure


def test_criterion_4_balance_oracle_agreement(small_instances):
    with Clock("4 balance-oracle", 60.0):
        from oracles import SearchBudgetExceeded

        conclusive = inconclusive = 0
        for g in small_instances:
            groupoid = build_groupoid(g)
            for e in g.edge_ids():
                try:
                    out = brute_force_balance_oracle(g, e, 4, 4, node_cap=4000)
                except SearchBudgetExceeded:
                    inconclusive += 1
                    continue
                if isinstance(out, OracleUnbalanced):
                    conclusive += 1
                    assert isinstance(groupoid.class_of(e).verdict, Unbalanced)
                    ratio = Fraction(abs(out.j), abs(out.i))
                    assert ratio in _cycle_moduli_closure(g), (serialize(g), e, out)
        # the sample must actually exercise the unbalanced side
        assert conclusive >= 20, (conclusive, inconclusive)


def test_criterion_5_word_problem_oracle():
    with Clock("5 word-problem", 60.0):
        rng = random.Random(777)
        agreements = 0
        for _ in range(500):
            g = random_graph(rng, v_max=3, e_max=3, exp_max=4, rank2_prob=0.1)
            tokens = random_word_tokens(rng, g, syllables=8, exp_max=4)
            verdict = is_trivial(g, tokens)
            oracle = rewriting_bfs_trivial(g, tokens, depth=10, node_cap=600)
            if verdict:
                assert oracle is True
            else:
                assert oracle is not True
            agreements += 1
            assert is_trivial(g, tokens + invert_tokens(tokens))
        assert agreements == 500


def test_criterion_6_conjugacy_graph_transfer(small_instances):
    with Clock("6 conjugacy-transfer", 60.0):
        for g in small_instances:
            groupoid = build_groupoid(g)
            for e in g.edge_ids():
                cg = build_conjugacy_graph(g, groupoid.class_of(e))
                per_edge = isinstance(groupoid.class_of(e).verdict, Unbalanced)
                derived = isinstance(build_groupoid(cg.graph).verdict, Unbalanced)
                assert per_edge == derived, (serialize(g), e)


def test_criterion_7_distortion():
    with Clock("7 distortion", 1.0):
        g = parse(BS32_TEXT)
        w = almost_bs_witness(g, build_groupoid(g).verdict)
        assert (w.i, w.j) == (2, 3)
        cert = distortion_certificate(g, w, 10)
        for row in cert.rows:
            assert row.exponent == 3**row.k
            assert row.length_bound == 2 * row.k + 2**row.k
        ratios = [row.ratio for row in cert.rows]
        for a, b in zip(ratios[1:], ratios[2:]):
            assert a > b


def test_criterion_7_merge_is_linear(tmp_path):
    """m pinches that all merge into one growing syllable.

    With t v^2 t^-1 = v^3, (v.2 e.t v.1^2 e.t^-1)^m reduces to
    (v.2 v.1^3)^m, each pinch merging at the seam of the head.  With
    t (v.2 v.1^2 v.2^-1) t^-1 = v^3, e.t v.2 (e.t^-1 v.1^3 e.t v.2)^m e.t^-1
    grows the syllable after the first e.t, and each e.t^-1 that arrives
    tests it for a pinch that never applies."""
    plain = tmp_path / "merge.gog"
    plain.write_text('vertex v free 2\nedge e from=v to=v img_from="v.1^3" img_to="v.1^2"\n')
    conjugated = tmp_path / "conjugated.gog"
    conjugated.write_text(
        'vertex v free 2\nedge e from=v to=v img_from="v.1^3" img_to="v.2 v.1^2 v.2^-1"\n'
    )
    m = 4000
    cases = [
        (plain, " ".join(["v.2 e.t v.1^2 e.t^-1"] * m), " ".join(["v.2 v.1^3"] * m)),
        (
            conjugated,
            "e.t v.2 " + " ".join(["e.t^-1 v.1^3 e.t v.2"] * m) + " e.t^-1",
            " ".join(["e.t v.2^2 v.1^2"] + ["v.2 v.1^2"] * (m - 1) + ["e.t^-1"]),
        ),
    ]
    with Clock("7 merge at the seam", 1.0):
        for path, word, reduced in cases:
            code, payload = cli.run(["reduce", str(path), "--word", word])
            assert code == 0
            assert payload["reduced"] == reduced
            assert payload["trivial"] is False


def _mutations(rng, graph, phi):
    """Single-exponent mutations of a parametrization, with an independent
    relation/finite-index evaluation for each."""

    def image(word, p):
        out = DihedralElement(0, 0)
        for gg, ee in word.letters:
            out = dmul(out, dpow(p.vertex_image(word.vertex)[gg], ee))
        return out

    def direct_check(p):
        for v, kind in graph.vertices:
            gen = 1 if isinstance(kind, Free) else "r"
            if not p.vertex_image(v)[gen].infinite_order:
                return False
        for e in graph.edges:
            t = p.stable_image(e.name)
            if dmul(dmul(t, image(e.attachment_target, p)), dinv(t)) != image(
                e.attachment_source, p
            ):
                return False
        return True

    vertex = rng.choice(graph.vertex_ids())
    images = phi.vertex_image(vertex)
    gen = rng.choice(sorted(images, key=str))
    old = images[gen]
    mutated = DihedralElement(old.eps, old.k + rng.choice([1, -1]))
    vertex_images = tuple(
        (v, tuple((g, mutated if (v == vertex and g == gen) else el) for g, el in imgs))
        for v, imgs in phi.vertex_images
    )
    candidate = LinearParametrization(vertex_images, phi.stable_images)
    return candidate, direct_check(candidate)


def test_criterion_8_certificate_robustness():
    with Clock("8 mutation-robustness", 30.0):
        rng = random.Random(888)
        checked = 0
        while checked < 100:
            g = random_graph(rng, v_max=4, e_max=5, exp_max=5, rank2_prob=0.0)
            phi = parametrize(g)
            if not isinstance(phi, LinearParametrization):
                continue
            ok, report = verify_parametrization(g, phi)
            assert ok, report
            candidate, should_pass = _mutations(rng, g, phi)
            got, _ = verify_parametrization(g, candidate)
            assert got == should_pass
            checked += 1


def _certificate_signature(verdict):
    if isinstance(verdict, NotHHG):
        return ("NotHHG", tuple(sorted((abs(verdict.witness.i), abs(verdict.witness.j)))))
    sigs = []
    for cert in verdict.certificates:
        entries = []
        for _, images in cert.phi.vertex_images:
            for _, el in images:
                entries.append((el.eps, abs(el.k)))
        for _, el in cert.phi.stable_images:
            entries.append((el.eps, abs(el.k)))
        sigs.append(tuple(sorted(entries)))
    return ("HHG", tuple(sorted(sigs)))


def test_criterion_9_determinism_under_relabeling():
    with Clock("9 determinism", 30.0):
        rng = random.Random(999)
        graphs = list(fixture_graphs().values())
        for trial in range(20):
            g = graphs[trial % len(graphs)]
            ids = list(g.vertex_ids())
            names = [f"n{rng.randrange(1000)}_{i}" for i in range(len(ids))]
            rng.shuffle(names)
            relabeled = relabel_graph(g, dict(zip(ids, names)))
            # edge reordering: shuffling declaration lines changes nothing
            lines = serialize(relabeled).strip().splitlines()
            rng.shuffle(lines)
            reordered = parse("\n".join(lines) + "\n")
            assert reordered == relabeled
            # identical status and isomorphic certificates on the relabeling
            original = hhg_verdict(g)
            shuffled = hhg_verdict(relabeled)
            assert original.status == shuffled.status
            assert _certificate_signature(original) == _certificate_signature(shuffled)
            # byte-identical JSON after canonical relabeling
            def verdict_json(graph):
                from gogh.cli import _verdict_json

                return render_json(_verdict_json(graph, hhg_verdict(graph)))

            assert verdict_json(canonical_relabel(g)) == verdict_json(
                canonical_relabel(relabeled)
            )
