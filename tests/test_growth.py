"""Growth gates: inputs whose witnesses raise conjugated roots to powers
exponential in the graph's size or in the depth, with answers known by
construction.  A reduced c u c^-1 has n-th power c u^n c^-1, so each power
of a conjugated one-letter root costs the conjugator's letters, not the
exponent's size."""

import random

from conftest import Clock, lollipop
from gogh import cli
from gogh.freewords import inv_letters, pow_letters, reduce_letters
from gogh.words import britton_reduce, to_path_form


def conjugated_cycle(n: int) -> str:
    """An n-cycle of rank-2 vertices, each edge t (v.2 v.1^3 v.2^-1) t^-1 =
    w.1^2: unbalanced with modulus (3/2)^n, whose witness exponents are
    2^n and 3^n."""
    names = [f"v{i:04d}" for i in range(n)]
    lines = [f"vertex {v} free 2" for v in names]
    for i, a in enumerate(names):
        b = names[(i + 1) % n]
        lines.append(f'edge e{i:04d} from={a} to={b} img_from="{a}.2 {a}.1^3 {a}.2^-1" img_to="{b}.1^2"')
    return "\n".join(lines) + "\n"


def test_conjugated_cycle_verdict_grows_polynomially(tmp_path):
    """It took 26 s at n = 16 when each power was built letter by letter
    (Python 3.11.7, a shared 2-core x86-64 host)."""
    n = 1600
    path = tmp_path / "cycle.gog"
    path.write_text(conjugated_cycle(n))
    with Clock("growth conjugated cycle n=1600", 1.0):
        code, out = cli.run(["verdict", str(path)])
        cli.render_json(out)
    assert code == 0 and out["status"] == "NotHHG"
    witness = out["witness"]
    assert {abs(int(witness["i"])), abs(int(witness["j"]))} == {2**n, 3**n}


def test_conjugated_distortion_grows_polynomially(tmp_path):
    """It took 5.6 s at depth 12, about threefold per level, when each
    power was built letter by letter (Python 3.11.7, a shared 2-core x86-64
    host)."""
    path = tmp_path / "lollipop.gog"
    path.write_text(lollipop(10, path_conjugated=True, triangle_conjugated=True))
    with Clock("growth conjugated distortion depth=40", 1.0):
        code, out = cli.run(["distortion", str(path), "--depth", "40"])
        cli.render_json(out)
    assert code == 0
    table = out["table"]
    assert len(table) == 40 and table[-1]["exponent"] == str(3**40)


def test_pow_letters_matches_the_letter_by_letter_power():
    """Seeded words, half of them conjugated one-letter cores, against the
    power written out and reduced."""
    rng = random.Random(2027)
    seen = 0
    for _ in range(20000):
        word = tuple((rng.randint(1, 3), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(0, 8)))
        if rng.random() < 0.5:
            c = tuple((rng.randint(1, 3), rng.choice((-1, 1, 2))) for _ in range(rng.randint(0, 4)))
            word = c + word[:1] + inv_letters(c)
        n = rng.randint(-6, 6)
        written_out = word * n if n >= 0 else inv_letters(word) * -n
        assert pow_letters(word, n) == reduce_letters(written_out), (word, n)
        seen += len(reduce_letters(word)) > 1 and abs(n) > 1
    assert seen > 5000, seen


def test_reduction_against_a_conjugated_root_grows_linearly():
    """e.t v.2 (e.t^-1 v.1^3 e.t v.2)^m e.t^-1, where e's target image
    v.2 v.1 v.2 v.1^2 v.2^-1 is c root c^-1 with c = v.2 v.1^-2 and root
    v.1^3 v.2: every pinch merges into one syllable, which each incoming
    e.t^-1 tests and leaves in place.  It took 0.61 / 2.46 / 13.44 s at
    m = 1000 / 2000 / 4000 when each test multiplied c^-1 g c out in full
    (Python 3.11.7, a shared 2-core x86-64 host)."""
    m = 4000
    graph = cli.parse(
        'vertex v free 2\nedge e from=v to=v img_from="v.1^3" img_to="v.2 v.1 v.2 v.1^2 v.2^-1"\n'
    )
    piece = [("t", "e", -1), ("g", "v", 1, 3), ("t", "e", 1), ("g", "v", 2, 1)]
    tokens = [("t", "e", 1), ("g", "v", 2, 1)] + piece * m + [("t", "e", -1)]
    path = to_path_form(graph, tokens, "v")
    with Clock("growth conjugated root reduce m=4000", 1.0):
        reduced = britton_reduce(graph, path)
    (_, syllable), (_, last) = reduced.tail
    block = ((2, 1), (1, 1), (2, 1), (1, 2))
    assert not reduced.head.letters and not last.letters
    assert syllable.letters == ((2, 2),) + block[1:] + block * (m - 1)
