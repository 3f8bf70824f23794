import random
import sys
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import gogh.balance
from conftest import BS32_TEXT, F2_EXAMPLE_TEXT, all_arcs, arc_conjugator, random_graph
from gogh.balance import Balanced, build_groupoid
from gogh.certify import (
    BSWitness,
    NoWitness,
    _minimal_base_power,
    almost_bs_witness,
    distortion_certificate,
    relation_tokens,
    tokens_of_vertex_word_power,
)
from gogh.cli import parse, run
from gogh.model import DihedralInfinite, Free, VertexWord
from gogh.words import invert_tokens, is_trivial


def test_bs32_witness(bs32):
    w = almost_bs_witness(bs32, build_groupoid(bs32).verdict)
    assert w.a == VertexWord("v", ((1, 1),))
    assert list(w.s) == [("t", "e", 1)]
    assert (w.i, w.j) == (2, 3)
    assert not w.transcript.tail and w.transcript.head.is_identity


def test_f2_witness(f2_example):
    w = almost_bs_witness(f2_example, build_groupoid(f2_example).verdict)
    assert w.a == VertexWord("v", ((1, 1),))
    assert {abs(w.i), abs(w.j)} == {2, 3}
    # the emitted relation and the one written with the inverse conjugator
    # both Britton-reduce to the identity
    assert is_trivial(f2_example, relation_tokens(w.a, w.s, w.i, w.j))
    assert is_trivial(f2_example, relation_tokens(w.a, invert_tokens(w.s), w.j, w.i))


def test_balanced_graph_has_no_witness(trefoil):
    with pytest.raises(NoWitness):
        almost_bs_witness(trefoil, build_groupoid(trefoil).verdict)


def _entry_exponents(cycle, occurrences) -> list:
    """(entry exponent, exit exponent) of each arc: the near (src) and far
    (dst) side's root exponents in its edge's record."""
    out = []
    for arc in cycle:
        (_, n_s, _), (_, n_t, _) = occurrences[arc.label]
        out.append((n_t, n_s) if arc.sign > 0 else (n_s, n_t))
    return out


def test_every_arc_crossing_conjugates_root_powers():
    """kappa R_src^n kappa^-1 = R_dst^(n*weight) for every groupoid arc, in
    both orientations, not only for the arcs of witness cycles: the arc
    lemma that the witness checker reads off the records holds in the
    fundamental group, checked by Britton reduction."""
    rng = random.Random(131)
    kinds = set()
    for _ in range(50):
        graph = random_graph(rng, rank2_prob=0.3)
        kinds.update(kind for _, kind in graph.vertices)
        groupoid = build_groupoid(graph)
        for arc in all_arcs(groupoid.occurrences):
            ((n, far),) = _entry_exponents([arc], groupoid.occurrences)
            kappa = arc_conjugator(groupoid.occurrences, arc)
            exit_exp = n * arc.weight
            assert exit_exp == far
            assert exit_exp.denominator == 1
            src = VertexWord(arc.src.vertex, arc.src.root)
            dst = VertexWord(arc.dst.vertex, arc.dst.root)
            tokens = (
                kappa
                + tokens_of_vertex_word_power(src, n)
                + invert_tokens(kappa)
                + tokens_of_vertex_word_power(dst, -int(exit_exp))
            )
            assert is_trivial(graph, tokens)
    assert {DihedralInfinite(), Free(2)} <= kinds


def _reference_minimal_base_power(cycle, crossings, i):
    """certify._minimal_base_power in Fractions, with the arcs' weights: the
    reference."""
    constraints = []
    prefix = Fraction(i)
    for arc, (n, _) in zip(cycle, crossings):
        constraints.append((prefix / n).denominator)
        prefix *= arc.weight
    return lcm(*constraints)


def test_minimal_base_power_matches_the_fraction_reference():
    """The integer computation equals the Fraction one on the unbalanced
    cycles of seeded graphs (rank-2 roots and exponents up to 60), for the
    cycle's own base exponent i and for others."""
    rng = random.Random(151)
    seen = Counter()
    for k in range(1000):
        graph = random_graph(
            rng, v_max=3 + k % 5, e_max=4 + k % 6, exp_max=(3, 12, 60)[k % 3], rank2_prob=0.3
        )
        verdict = build_groupoid(graph).verdict
        if isinstance(verdict, Balanced):
            continue
        crossings = _entry_exponents(verdict.cycle, verdict.occurrences)
        for i in (verdict.modulus.denominator, 1, 6, 35, 2**70 + 1):
            got = _minimal_base_power(crossings, i)
            assert got == _reference_minimal_base_power(verdict.cycle, crossings, i)
            seen["m > 1"] += got > 1
        seen["cycles"] += 1
        seen["long cycles"] += len(verdict.cycle) >= 3
    assert seen["cycles"] >= 200 and min(seen.values()) >= 80, seen


# a 3-cycle of rank-2 vertices, each attached by v.1^k and v.2 v.1^k v.2^-1,
# with modulus 3/2
RANK2_CYCLE_TEXT = """\
vertex a free 2
vertex b free 2
vertex c free 2
edge e0 from=a to=b img_from="a.2 a.1^3 a.2^-1" img_to="b.1^2"
edge e1 from=b to=c img_from="b.2 b.1 b.2^-1" img_to="c.1"
edge e2 from=c to=a img_from="c.2 c.1^5 c.2^-1" img_to="a.1^5"
"""


@pytest.mark.parametrize(
    "text", [BS32_TEXT, F2_EXAMPLE_TEXT, RANK2_CYCLE_TEXT], ids=["bs32", "f2_example", "rank2_cycle"]
)
@pytest.mark.parametrize(
    "argv", [["verdict"], ["witness"], ["distortion", "--depth", "2"]], ids=lambda a: a[0]
)
def test_attachment_data_is_computed_once_per_occurrence(tmp_path, monkeypatch, text, argv):
    """The witness reads the crossings' attachment data from the groupoid
    pass, so each of the 2|E| attachment words is computed exactly once."""
    calls = []
    original = gogh.balance.attachment_data

    def counting(word, shared):
        calls.append(word)
        return original(word, shared)

    # patch every gogh namespace that holds the function, so a call through
    # any imported name is counted too
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gogh" and getattr(module, "attachment_data", None) is original:
            monkeypatch.setattr(module, "attachment_data", counting)
    path = tmp_path / "g.gog"
    path.write_text(text)
    code, out = run([argv[0], str(path), *argv[1:]])
    assert code == 0 and out.get("status") != "Balanced"
    edges = parse(text).edges
    assert len(calls) == 2 * len(edges)
    assert Counter(calls) == Counter(w for e in edges for w in (e.attachment_source, e.attachment_target))


def test_witness_exponents_normalized():
    rng = random.Random(107)
    found = 0
    while found < 25:
        g = random_graph(rng)
        verdict = build_groupoid(g).verdict
        if isinstance(verdict, Balanced):
            continue
        found += 1
        w = almost_bs_witness(g, verdict)
        from math import gcd

        assert w.i > 0
        assert gcd(w.i, abs(w.j)) == 1
        assert abs(w.i) != abs(w.j)
        # a is a nonzero root power, so it has infinite order
        assert not w.a.is_identity


def test_witness_reverifies_from_scratch():
    rng = random.Random(109)
    found = 0
    while found < 25:
        g = random_graph(rng)
        verdict = build_groupoid(g).verdict
        if isinstance(verdict, Balanced):
            continue
        found += 1
        w = almost_bs_witness(g, verdict)
        assert is_trivial(g, relation_tokens(w.a, w.s, w.i, w.j))


def test_power_compatibility_of_relation(bs32):
    w = almost_bs_witness(bs32, build_groupoid(bs32).verdict)
    rng = random.Random(113)
    for _ in range(5):
        m = rng.randint(1, 10)
        assert is_trivial(bs32, relation_tokens(w.a, w.s, w.i * m, w.j * m))


def test_distortion_depth_one(bs32):
    w = almost_bs_witness(bs32, build_groupoid(bs32).verdict)
    cert = distortion_certificate(bs32, w, 1)
    row = cert.rows[0]
    assert row.exponent == 3
    assert row.length_bound == 4  # 2*1*len(t) + 2*len(v)


def test_distortion_depth_three(bs32):
    w = almost_bs_witness(bs32, build_groupoid(bs32).verdict)
    cert = distortion_certificate(bs32, w, 3)
    assert cert.rows[2].exponent == 27
    assert cert.rows[2].length_bound == 2 * 3 + 2**3


def test_distortion_big_depth_and_monotone_ratios(bs32):
    w = almost_bs_witness(bs32, build_groupoid(bs32).verdict)
    cert = distortion_certificate(bs32, w, 10)
    assert cert.rows[-1].exponent == 3**10 == 59049
    assert cert.rows[-1].length_bound == 2 * 10 + 2**10 == 1044
    ratios = [row.ratio for row in cert.rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_distortion_swaps_shrinking_witness(bs32):
    w = almost_bs_witness(bs32, build_groupoid(bs32).verdict)
    flipped = BSWitness(
        a=w.a, s=tuple(invert_tokens(w.s)), i=w.j, j=w.i, transcript=w.transcript
    )
    cert = distortion_certificate(bs32, flipped, 4)
    assert [row.exponent for row in cert.rows] == [3, 9, 27, 81]


def test_distortion_on_f2_example(f2_example):
    w = almost_bs_witness(f2_example, build_groupoid(f2_example).verdict)
    cert = distortion_certificate(f2_example, w, 6)
    ratios = [row.ratio for row in cert.rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
