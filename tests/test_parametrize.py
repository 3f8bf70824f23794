import importlib
import random

import pytest

from conftest import random_graph, relabel_graph
from gogh.balance import Balanced, Unbalanced, edge_balanced, group_balanced
from gogh.cli import parse, run
from gogh.dihedral import DihedralElement, dinv, dmul, dpow
from gogh.model import Free, GoghError, make_graph
from gogh.parametrize import (
    HHG,
    LinearParametrization,
    NotHHG,
    NotTwoEnded,
    hhg_verdict,
    parametrize,
    verify_parametrization,
)


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
        balanced = isinstance(group_balanced(g), Balanced)
        no_bad_edge = not any(
            isinstance(edge_balanced(g, e), Unbalanced) for e in g.edge_ids()
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
    # the package re-exports the function `parametrize` over the module name
    module = importlib.import_module("gogh.parametrize")
    monkeypatch.setattr(module, "verify_parametrization", lambda graph, phi: (False, ["forced"]))
    with pytest.raises(GoghError, match="forced"):
        parametrize(trefoil)
    with pytest.raises(GoghError, match="forced"):
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
