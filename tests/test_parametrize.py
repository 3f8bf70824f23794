import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

import gogh.parametrize
from conftest import KLEIN_TEXT, TREFOIL_TEXT, check_against_reference, random_graph, relabel_graph
from gogh import dihedral as dih
from gogh.balance import Balanced, Unbalanced, build_groupoid
from gogh.checks import verify_parametrization
from gogh.cli import parse, run
from gogh.dihedral import DihedralElement, dinv, dmul, dpow
from gogh.model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralInfinite,
    EdgeRecord,
    Free,
    GoghError,
    GraphOfGroups,
    VertexWord,
    make_graph,
    spanning_tree,
)
from gogh.parametrize import (
    HHG,
    LinearParametrization,
    NotHHG,
    NotTwoEnded,
    hhg_verdict,
    parametrize,
)
from oracles import reference_verify_parametrization

GOLDEN = Path(__file__).parent / "golden"


def images(phi, vertex):
    return phi.vertex_image(vertex)


def test_isolated_vertex():
    g = make_graph([("v", Free(1))], [])
    phi = parametrize(g)
    assert images(phi, "v")[1] == DihedralElement(0, 1)


def test_klein_bottle_loop(klein):
    phi = parametrize(klein)
    assert images(phi, "v")[1] == DihedralElement(0, 1)
    assert phi.stable_image("e") == DihedralElement(1, 0)
    # the relation holds because conjugation by the reflection inverts rotations
    t = phi.stable_image("e")
    r = images(phi, "v")[1]
    assert dmul(dmul(t, r), dinv(t)) == dinv(r)


def test_trefoil_exponents(trefoil):
    phi = parametrize(trefoil)
    u = images(phi, "u")[1]
    v = images(phi, "v")[1]
    assert (u, v) == (DihedralElement(0, 3), DihedralElement(0, 2))
    assert dpow(u, 2) == dpow(v, 3) == DihedralElement(0, 6)


def test_unbalanced_graph_returns_verdict(bs32):
    out = parametrize(bs32)
    assert isinstance(out, Unbalanced)


def test_rank_two_rejected(f2_example):
    with pytest.raises(NotTwoEnded):
        parametrize(f2_example)


def test_dihedral_vertex_images(dihedral_loop):
    phi = parametrize(dihedral_loop)
    imgs = images(phi, "d")
    assert imgs["r"].infinite_order
    assert imgs["s"].eps == 1
    ok, report = verify_parametrization(dihedral_loop, phi)
    assert ok, report


def test_dihedral_pair_across_tree_edge():
    g = parse(
        "vertex c dihedral\nvertex d dihedral\n"
        'edge e from=c to=d img_from="c.r^2" img_to="d.r^3"\n'
    )
    phi = parametrize(g)
    assert (images(phi, "c")["r"], images(phi, "d")["r"]) == (
        DihedralElement(0, 3),
        DihedralElement(0, 2),
    )
    ok, report = verify_parametrization(g, phi)
    assert ok, report


# -- verifier --------------------------------------------------------------------


def _with_vertex_image(phi, vertex, gen, element):
    vertex_images = []
    for v, imgs in phi.vertex_images:
        if v == vertex:
            imgs = tuple((g, element if g == gen else el) for g, el in imgs)
        vertex_images.append((v, imgs))
    return LinearParametrization(tuple(vertex_images), phi.stable_images)


def test_verifier_accepts_constructor_output(trefoil):
    phi = parametrize(trefoil)
    ok, report = verify_parametrization(trefoil, phi)
    assert ok and not report


def test_verifier_rejects_perturbation(trefoil):
    phi = parametrize(trefoil)
    bad = _with_vertex_image(phi, "u", 1, DihedralElement(0, 4))
    ok, report = verify_parametrization(trefoil, bad)
    assert not ok
    assert any("relation" in line for line in report)


def test_verifier_rejects_zero_image(trefoil):
    phi = parametrize(trefoil)
    bad = _with_vertex_image(phi, "u", 1, DihedralElement(0, 0))
    ok, report = verify_parametrization(trefoil, bad)
    assert not ok
    assert any("finite order" in line for line in report)


def test_verifier_rejects_tree_letter_image(trefoil):
    phi = parametrize(trefoil)
    bad = LinearParametrization(phi.vertex_images, (("e", DihedralElement(1, 0)),))
    ok, report = verify_parametrization(trefoil, bad)
    assert not ok


def test_mutations_match_direct_relation_checks():
    rng = random.Random(97)
    done = 0
    while done < 30:
        g = random_graph(rng, rank2_prob=0.0)
        phi = parametrize(g)
        if isinstance(phi, Unbalanced):
            continue
        done += 1
        vertex = rng.choice(g.vertex_ids())
        imgs = phi.vertex_image(vertex)
        gen = sorted(imgs, key=str)[0]
        old = imgs[gen]
        delta = rng.choice([1, -1])
        if old.eps == 1:
            mutated = DihedralElement(1, old.k + delta)
        else:
            mutated = DihedralElement(0, old.k + delta)
        bad = _with_vertex_image(phi, vertex, gen, mutated)
        ok, _ = verify_parametrization(g, bad)
        # independent re-check of every edge relation by direct arithmetic
        holds = mutated.eps == 0 or mutated.k != 0

        def img(word, p):
            out = DihedralElement(0, 0)
            for gg, ee in word.letters:
                out = dmul(out, dpow(p.vertex_image(word.vertex)[gg], ee))
            return out

        direct = all(
            dmul(dmul(p := bad.stable_image(e.name), img(e.attachment_target, bad)), dinv(p))
            == img(e.attachment_source, bad)
            for e in g.edges
        ) and all(
            bad.vertex_image(v)[1 if isinstance(k, Free) else "r"].infinite_order
            for v, k in g.vertices
        )
        assert ok == direct


# -- global verdict ----------------------------------------------------------------


def test_single_vertex_graphs_are_hhg():
    # no edges, no classes: hyperbolic (or 2-ended) vertex groups alone
    for decl in ("vertex v free 1", "vertex v free 2", "vertex v dihedral"):
        verdict = hhg_verdict(parse(decl + "\n"))
        assert isinstance(verdict, HHG)
        assert verdict.certificates == ()


def test_f2_example_not_hhg(f2_example):
    verdict = hhg_verdict(f2_example)
    assert isinstance(verdict, NotHHG)
    assert verdict.edge == "e"
    assert {abs(verdict.witness.i), abs(verdict.witness.j)} == {2, 3}


def test_trefoil_hhg(trefoil):
    verdict = hhg_verdict(trefoil)
    assert isinstance(verdict, HHG)
    assert len(verdict.certificates) == 1


def test_bs_family_small():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            g = parse(
                f'vertex v free 1\nedge e from=v to=v img_from="v.1^{m}" img_to="v.1^{n}"\n'
            )
            verdict = hhg_verdict(g)
            assert isinstance(verdict, HHG) == (abs(m) == abs(n))


def test_three_way_agreement():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng, rank2_prob=0.0)
        phi = parametrize(g)
        groupoid = build_groupoid(g)
        balanced = isinstance(groupoid.verdict, Balanced)
        no_bad_edge = not any(
            isinstance(groupoid.class_of(e).verdict, Unbalanced) for e in g.edge_ids()
        )
        assert isinstance(phi, LinearParametrization) == balanced == no_bad_edge
        if isinstance(phi, LinearParametrization):
            ok, report = verify_parametrization(g, phi)
            assert ok, report


def test_verdict_status_invariant_under_relabeling():
    rng = random.Random(103)
    for _ in range(20):
        g = random_graph(rng)
        ids = list(g.vertex_ids())
        shuffled = ids[:]
        rng.shuffle(shuffled)
        h = relabel_graph(g, dict(zip(ids, (f"z{s}" for s in shuffled))))
        assert hhg_verdict(g).status == hhg_verdict(h).status


def test_failed_verification_raises_even_without_asserts(trefoil, monkeypatch):
    monkeypatch.setattr(
        gogh.parametrize, "verify_parametrization", lambda graph, phi: (False, ["forced"])
    )
    with pytest.raises(RuntimeError, match="forced"):
        parametrize(trefoil)
    with pytest.raises(RuntimeError, match="forced"):
        hhg_verdict(trefoil)


def _deep_path_text(n):
    # the least label sits at one end and the next least at the far end, so
    # resolving exponents in label order starts at the bottom of the tree
    def name(i):
        return "v0000" if i == 0 else f"v{n - i:04d}"

    lines = [f"vertex {name(i)} free 1" for i in range(n)]
    for i in range(n - 1):
        a, b = (2, 1) if i % 2 == 0 else (1, 2)
        lines.append(
            f"edge e{i:04d} from={name(i)} to={name(i + 1)} "
            f'img_from="{name(i)}.1^{a}" img_to="{name(i + 1)}.1^{b}"'
        )
    return "\n".join(lines) + "\n"


def test_deep_path_does_not_recurse(tmp_path):
    path = tmp_path / "path.gog"
    path.write_text(_deep_path_text(1200))
    for command in ("verdict", "parametrize"):
        code, out = run([command, str(path)])
        assert code == 0
        assert out["status"] == "HHG"
        (cert,) = out["certificates"]
        assert len(cert["phi"]) == 1200


# -- references for the producer and the checker ----------------------------------


def _reference_tree_parametrization(graph):
    """The producer written with Fraction exponents propagated along the
    spanning tree in BFS order, cleared by the lcm of their denominators and
    the gcd of the results: the reference the integer producer, fed by the
    groupoid pass, must reproduce."""
    order = graph.vertex_ids()
    exponents = {order[0]: Fraction(1)}
    for vertex, (parent, step) in graph.index.parents.items():
        e = graph.edge(step[0])
        # tree relation: E_source * n_s = E_target * n_t
        ratio = Fraction(e.attachment_source.letters[0][1], e.attachment_target.letters[0][1])
        exponents[vertex] = exponents[parent] * (ratio if step[1] == 1 else 1 / ratio)
    scale = lcm(*(f.denominator for f in exponents.values()))
    ints = {v: f.numerator * (scale // f.denominator) for v, f in exponents.items()}
    shrink = gcd(*ints.values())
    ints = {v: k // shrink for v, k in ints.items()}
    vertex_images = []
    for v in order:
        k = ints[v]
        if isinstance(graph.kind(v), DihedralInfinite):
            images = ((DIHEDRAL_R, DihedralElement(0, k)), (DIHEDRAL_S, DihedralElement(1, 0)))
        else:
            images = ((1, DihedralElement(0, k)),)
        vertex_images.append((v, images))
    tree = spanning_tree(graph)
    stable_images = []
    for e in graph.edges:
        if e.name in tree:
            continue
        lhs = ints[e.target] * e.attachment_target.letters[0][1]
        rhs = ints[e.source] * e.attachment_source.letters[0][1]
        if lhs != rhs:
            stable_images.append((e.name, DihedralElement(1, 0)))
    return LinearParametrization(tuple(vertex_images), tuple(stable_images))


def _reference_word_image(phi, word):
    images = phi.vertex_image(word.vertex)
    out = dih.IDENTITY
    for gen, exp in word.letters:
        out = dmul(out, dpow(images[gen], exp))
    return out


def _reference_verify(graph, phi):
    """The checker written with a copy of the vertex's images per word and a
    conjugation on every edge: the reference for every phi whose images are
    group elements."""
    report = []
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
            if dmul(dmul(s_img, r_img), s_img) != dinv(r_img):
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
            lhs = dmul(dmul(t_img, _reference_word_image(phi, e.attachment_target)), dinv(t_img))
            rhs = _reference_word_image(phi, e.attachment_source)
        except KeyError:
            report.append(f"edge {e.name}: relation references unassigned generators")
            continue
        if lhs != rhs:
            report.append(
                f"edge {e.name}: relation image ({lhs.eps},{lhs.k}) != ({rhs.eps},{rhs.k})"
            )
    return (not report, report)


def _two_ended(graph):
    return all(isinstance(k, DihedralInfinite) or k.rank == 1 for _, k in graph.vertices)


def _magnitudes_gcd(phi):
    """The gcd of the rotation magnitudes |E_v|: every vertex's first image
    is its rotation r^E_v."""
    return gcd(*(images[0][1].k for _, images in phi.vertex_images))


def test_producer_matches_the_tree_reference():
    """Each certificate equals the reference built on its derived graph, and
    parametrize equals it on graphs of 2-ended groups and on lone vertices:
    seeded graphs with rank-2 (derived graphs), rank-1 and dihedral
    vertices, loops, negative exponents, reflections and several classes."""
    rng = random.Random(1401)
    seen = dict.fromkeys(
        ("derived", "dihedral", "loop", "negative", "reflection", "classes", "two-ended"), 0
    )
    balanced = 0
    for i in range(1500):
        g = random_graph(
            rng,
            v_max=3 + i % 4,
            e_max=3 + i % 5,
            exp_max=(1, 2, 4)[i % 3],
            rank2_prob=(0.0, 0.35)[i % 2],
        )
        verdict = hhg_verdict(g)
        if not isinstance(verdict, HHG):
            continue
        balanced += 1
        for cert in verdict.certificates:
            assert cert.phi == _reference_tree_parametrization(cert.conjugacy_graph.graph)
            assert _magnitudes_gcd(cert.phi) == 1
            cls = cert.conjugacy_graph.edge_class
            exponents = [data[1] for e in cls.edges for data in cls.occurrences[e]]
            seen["negative"] += min(exponents) < 0
            seen["reflection"] += bool(cert.phi.stable_images)
        if _two_ended(g):
            assert parametrize(g) == _reference_tree_parametrization(g)
            assert _magnitudes_gcd(parametrize(g)) == 1
            seen["two-ended"] += 1
        else:
            seen["derived"] += 1
        seen["dihedral"] += any(isinstance(k, DihedralInfinite) for _, k in g.vertices)
        seen["loop"] += any(e.source == e.target for e in g.edges)
        seen["classes"] += len(verdict.certificates) >= 2
    assert balanced >= 300, balanced
    assert min(seen.values()) >= 20, seen
    for decl in ("vertex v free 1", "vertex d dihedral"):
        g = parse(decl + "\n")
        assert parametrize(g) == _reference_tree_parametrization(g)
        assert _magnitudes_gcd(parametrize(g)) == 1


def _random_image(rng):
    return DihedralElement(rng.choice((0, 0, 1)), rng.randint(-3, 3))


def _random_phi(rng, graph):
    """Random images, some vertices and generators left out and some stable
    letters, tree letters included, sent anywhere."""
    vertex_images = []
    for v, kind in graph.vertices:
        if rng.random() < 0.1:
            continue
        if isinstance(kind, DihedralInfinite):
            gens = (DIHEDRAL_R, DIHEDRAL_S)
        else:
            gens = range(1, kind.rank + 1)
        images = tuple((g, _random_image(rng)) for g in gens if rng.random() > 0.1)
        vertex_images.append((v, images))
    stable_images = tuple(
        (e.name, _random_image(rng)) for e in graph.edges if rng.random() < 0.3
    )
    return LinearParametrization(tuple(vertex_images), stable_images)


def _mutants(rng, graph, phi):
    """Criterion-8 mutations of a certificate (one exponent moved by one),
    a lost vertex, a lost generator, a reflection on a tree edge and a
    reflection moved on or off a non-tree edge."""
    vertex = rng.choice(graph.vertex_ids())
    images = phi.vertex_image(vertex)
    gen = rng.choice(sorted(images, key=str))
    old = images[gen]
    moved = DihedralElement(old.eps, old.k + rng.choice((1, -1)))
    yield _with_vertex_image(phi, vertex, gen, moved)
    yield LinearParametrization(
        tuple(p for p in phi.vertex_images if p[0] != vertex), phi.stable_images
    )
    yield LinearParametrization(
        tuple(
            (v, tuple(p for p in imgs if not (v == vertex and p[0] == gen)))
            for v, imgs in phi.vertex_images
        ),
        phi.stable_images,
    )
    tree = sorted(spanning_tree(graph))
    if tree:
        edge = rng.choice(tree)
        yield LinearParametrization(
            phi.vertex_images, phi.stable_images + ((edge, DihedralElement(1, 0)),)
        )
    others = [e for e in graph.edge_ids() if e not in spanning_tree(graph)]
    if others:
        edge = rng.choice(others)
        stable = dict(phi.stable_images)
        if stable.pop(edge, None) is None:
            stable[edge] = DihedralElement(1, 0)
        yield LinearParametrization(phi.vertex_images, tuple(sorted(stable.items())))


def test_checker_matches_the_reference():
    """The same (ok, report), strings and order, as the reference above and
    the record-based one in ``oracles``, on certificates and their mutants,
    on random images with vertices and generators missing, and on graphs
    with rank-2 vertices and multi-letter attachments."""
    rng = random.Random(1402)
    seen = {"ok": 0, "rejected": 0, "lines": set()}

    def check(g, phi):
        got = verify_parametrization(g, phi)
        assert got == _reference_verify(g, phi) == reference_verify_parametrization(g, phi)
        seen["ok" if got[0] else "rejected"] += 1
        seen["lines"].update(line.split(": ", 1)[1].split(" (")[0] for line in got[1])

    for i in range(300):
        g = random_graph(rng, exp_max=(1, 3)[i % 2], rank2_prob=(0.0, 0.3)[i % 2])
        verdict = hhg_verdict(g)
        if isinstance(verdict, HHG):
            for cert in verdict.certificates:
                derived = cert.conjugacy_graph.graph
                check(derived, cert.phi)
                for mutant in _mutants(rng, derived, cert.phi):
                    check(derived, mutant)
        elif _two_ended(g):
            check(g, _reference_tree_parametrization(g))
        check(g, _random_phi(rng, g))
    assert seen["ok"] >= 100 and seen["rejected"] >= 300, seen
    assert seen["lines"] == {
        "no images assigned",
        "dihedral generators not assigned",
        "rotation image has finite order",
        "reflection image is not a reflection",
        "generator not assigned",
        "generator image has finite order",
        "free rank 2 admits no quasi-isometric map",
        "tree stable letter must map to the identity",
        "relation references unassigned generators",
        "relation image",
    }, seen["lines"]


def test_checker_matches_the_record_reference_on_the_golden_corpus():
    """Every certificate of every golden graph and each single mutation of
    it, and random images on every golden graph with a rank-2 vertex, whose
    multi-letter attachments the checker multiplies out as pairs: the same
    (ok, report), report order included, as the record-based reference."""
    rng = random.Random(3201)
    seen, multi_letter = Counter(), 0
    for case in sorted(GOLDEN.glob("*.json")):
        try:
            graph = parse(json.loads(case.read_text(encoding="utf-8"))["text"])
        except GoghError:
            continue
        verdict = hhg_verdict(graph)
        for cert in verdict.certificates if isinstance(verdict, HHG) else ():
            seen += check_against_reference(cert.conjugacy_graph.graph, cert.phi)
        if _two_ended(graph):
            continue
        for _ in range(10):
            phi = _random_phi(rng, graph)
            assert verify_parametrization(graph, phi) == reference_verify_parametrization(graph, phi)
        multi_letter += any(
            len(att.letters) > 1 for e in graph.edges for att in (e.attachment_source, e.attachment_target)
        )
    assert seen[True] >= 100 and seen[False] >= 1000 and multi_letter >= 20, (seen, multi_letter)


@pytest.mark.parametrize("where", ["vertex", "stable"])
@pytest.mark.parametrize("field", ["eps", "k"])
def test_verifier_rejects_a_bool_exponent(where, field):
    """True is an int to isinstance but no exponent of a normal form: with
    it as eps or k, at a vertex or as a stable image, the element is
    reported.  The record-based reference reads it as 1, and so verifies
    u.1 -> r^True outright."""
    g = parse(TREFOIL_TEXT.replace("u.1^2", "u.1").replace("v.1^3", "v.1"))
    forged = DihedralElement(True, 1) if field == "eps" else DihedralElement(0, True)
    one = ((1, DihedralElement(0, 1)),)
    if where == "vertex":
        phi = LinearParametrization((("u", ((1, forged),)), ("v", one)), ())
        want = ["vertex u: image of 1 is not an element of D-infinity"]
    else:
        phi = LinearParametrization((("u", one), ("v", one)), (("e", forged),))
        want = ["edge e: stable letter image is not an element of D-infinity"]
    assert verify_parametrization(g, phi) == (False, want)
    if (where, field) == ("vertex", "k"):
        assert reference_verify_parametrization(g, phi) == (True, [])


def test_verifier_rejects_a_rational_rotation(trefoil):
    # u.1^2 = v.1^3 holds for r^(3/2) and r, but r^(3/2) is no group element
    phi = LinearParametrization(
        (
            ("u", ((1, DihedralElement(0, Fraction(3, 2))),)),
            ("v", ((1, DihedralElement(0, 1)),)),
        ),
        (),
    )
    assert verify_parametrization(trefoil, phi) == (
        False,
        ["vertex u: image of 1 is not an element of D-infinity"],
    )


_FORGED_REFLECTION = """\
import sys
from gogh.cli import parse
from gogh.dihedral import DihedralElement
from gogh.checks import verify_parametrization
from gogh.parametrize import LinearParametrization

try:
    DihedralElement(3, 0)
except ValueError:
    pass
else:
    sys.exit("DihedralElement(3, 0) was built")
forged = object.__new__(DihedralElement)
object.__setattr__(forged, "eps", 3)
object.__setattr__(forged, "k", 0)
phi = LinearParametrization((("v", ((1, DihedralElement(0, 1)),)),), (("e", forged),))
print(verify_parametrization(parse(sys.argv[1]), phi))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verifier_rejects_a_forged_reflection_even_without_asserts(flags):
    # s^3 conjugates v.1 to v.1^-1 under the letter arithmetic, but is no element
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _FORGED_REFLECTION, KLEIN_TEXT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=False,
    )
    assert (proc.returncode, proc.stdout) == (
        0,
        "(False, ['edge e: stable letter image is not an element of D-infinity'])\n",
    ), proc.stderr


class _CountingTable(tuple):
    """A vertex table that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def _class_path(n: int) -> GraphOfGroups:
    """a0 - z0 - a1 - ... - z(n-1) - an, rank-1 a's and rank-2 z's, each z
    attached by its first generator on one side and its second on the other:
    n + 1 edge classes."""
    a = [f"a{i:03d}" for i in range(n + 1)]
    z = [f"z{i:03d}" for i in range(n)]

    def letter(vertex, gen):
        return VertexWord(vertex, ((gen, 1),))

    edges = []
    for i in range(n):
        edges.append(EdgeRecord(f"e{i:03d}a", a[i], z[i], letter(a[i], 1), letter(z[i], 1)))
        edges.append(EdgeRecord(f"e{i:03d}b", z[i], a[i + 1], letter(z[i], 2), letter(a[i + 1], 1)))
    vertices = _CountingTable([*((v, Free(1)) for v in a), *((v, Free(2)) for v in z)])
    return GraphOfGroups(vertices, tuple(edges))


def test_verdict_reads_the_vertex_table_a_fixed_number_of_times():
    """The per-class work reads nothing of size |V|: a class smaller than
    2|E| occurrences is not its own derived graph, without a vertex scan."""
    reads = []
    for n in (9, 49):
        graph = _class_path(n)
        before = graph.vertices.reads
        verdict = hhg_verdict(graph)
        assert verdict.status == "HHG" and len(verdict.certificates) == n + 1
        reads.append(graph.vertices.reads - before)
    assert reads[0] == reads[1], reads
