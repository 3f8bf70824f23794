"""Growth gates: inputs whose witnesses raise conjugated roots to powers
exponential in the graph's size or in the depth, or whose attachments carry
long conjugators, with answers known by construction.  A reduced c u c^-1
has n-th power c u^n c^-1, so each power of a conjugated one-letter root
costs the conjugator's letters, not the exponent's size, and splitting off
c costs its letters once."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Clock, check_cycle_contract, lollipop, multi_letter_cycle
from gogh import cli
from gogh.balance import build_groupoid
from gogh.freewords import cyclic_reduce, inv_letters, pow_letters, reduce_letters
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


def unbalanced_cycle(n: int, conjugated: bool) -> str:
    """An n-cycle (n even) whose edge ratios n_s/n_t alternate 2/3 and 3/2,
    except that the last edge's is 6/2: modulus 2.  The last edge closes
    the one cycle, so the reported cycle is the whole graph.  Every third
    vertex is dihedral; with conjugated, every fifth is free of rank 2 and
    attaches its outgoing edge by v.2 v.1^k v.2^-1 instead."""
    names = [f"v{i:04d}" for i in range(n)]
    kinds = ["f2" if conjugated and i % 5 == 0 else "d" if i % 3 == 0 else "f1" for i in range(n)]
    lines = [
        f"vertex {v} " + {"f1": "free 1", "f2": "free 2", "d": "dihedral"}[kind]
        for v, kind in zip(names, kinds)
    ]

    def image(i, k, outgoing):
        v = names[i]
        if kinds[i] == "d":
            return f"{v}.r^{k}"
        if kinds[i] == "f2" and outgoing:
            return f"{v}.2 {v}.1^{k} {v}.2^-1"
        return f"{v}.1^{k}"

    for i in range(n):
        n_s, n_t = (2, 3) if i % 2 == 0 else (3, 2)
        if i == n - 1:
            n_s *= 2
        j = (i + 1) % n
        lines.append(
            f'edge e{i:04d} from={names[i]} to={names[j]} '
            f'img_from="{image(i, n_s, True)}" img_to="{image(j, n_t, False)}"'
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
def test_unbalanced_cycle_commands_grow_linearly(tmp_path, conjugated):
    """verdict, witness and balance --edge on a 4000-vertex unbalanced
    cycle, whose reported cycle is all 4000 arcs: a per-arc cost that grew
    with the cycle (a search or a rendering pass quadratic in it) would
    take minutes here."""
    n = 4000
    text = unbalanced_cycle(n, conjugated)
    path = tmp_path / "cycle.gog"
    path.write_text(text)
    family = "conjugated" if conjugated else "plain"
    with Clock(f"growth {family} unbalanced cycle verdict n=4000", 1.0):
        code, verdict = cli.run(["verdict", str(path)])
        cli.render_json(verdict)
    assert code == 0 and verdict["status"] == "NotHHG" and verdict["edge"] == "e0000"
    with Clock(f"growth {family} unbalanced cycle witness n=4000", 1.0):
        code, witness = cli.run(["witness", str(path)])
        cli.render_json(witness)
    assert code == 0 and witness["transcript"] == "" and witness == {**verdict["witness"], "edge": "e0000"}
    with Clock(f"growth {family} unbalanced cycle balance n=4000", 1.0):
        code, balance = cli.run(["balance", str(path), "--edge", "e0000"])
        cli.render_json(balance)
    (edge,) = balance["edges"]
    assert code == 0 and edge["verdict"] == "Unbalanced" and len(edge["cycle"]) == n
    assert edge["modulus"] in ("2/1", "-2/1", "1/2", "-1/2"), edge["modulus"]
    cycle = build_groupoid(cli.parse(text)).verdict
    check_cycle_contract(cycle)
    assert len(cycle.cycle) == n and abs(cycle.modulus) in (2, Fraction(1, 2))


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


def test_long_conjugator_split_grows_linearly(tmp_path):
    """verdict and conjgraph --class-of e on one edge whose image is
    c v.2^3 c^-1, c 32,000 alternating letters.  It took 5.4 s when each
    peeled letter copied the rest of the word (Python 3.11.7, a shared
    2-core x86-64 host)."""
    c = " ".join(["v.2", "v.1"] * 16000)
    cinv = " ".join(["v.1^-1", "v.2^-1"] * 16000)
    path = tmp_path / "long.gog"
    path.write_text(
        "vertex v free 2\nvertex u free 1\n"
        f'edge e from=v to=u img_from="{c} v.2^3 {cinv}" img_to="u.1^2"\n'
    )
    with Clock("growth conjugator split |c|=32000", 1.0):
        code, verdict = cli.run(["verdict", str(path)])
        cli.render_json(verdict)
        code_class, members = cli.run(["conjgraph", str(path), "--class-of", "e"])
        cli.render_json(members)
    assert code == code_class == 0 and verdict["status"] == "HHG"
    assert members["members"] == [["e", "source"], ["e", "target"]]


def _list_split(letters):
    """The split as a list that is copied on every peel: the reference."""
    letters = list(letters)
    conj = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0]:
        g, p = letters[0]
        _, q = letters[-1]
        if p + q == 0:
            conj.append((g, p))
            letters = letters[1:-1]
        else:
            conj.append((g, -q))
            letters = [(g, p + q)] + letters[1:-1]
            break
    return reduce_letters(conj), tuple(letters)


def test_cyclic_reduce_matches_the_list_split():
    """Seeded reduced words c u c^-1, some with u = g^p mid g^q: partial
    merges, full cancellations and one-letter words all occur."""
    rng = random.Random(2030)

    def letters(k):
        return [(rng.randint(1, 3), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(k)]

    seen = Counter()
    for _ in range(3000):
        core = letters(rng.randint(0, 6))
        if core and rng.random() < 0.5:
            core.append((core[0][0], rng.choice((-3, -2, -1, 1, 2, 3))))
        c = tuple(letters(rng.randint(0, 5)))
        word = reduce_letters(c + tuple(core) + inv_letters(c))
        want = _list_split(word)
        assert cyclic_reduce(word) == want, word
        conj, split_core = want
        partial = bool(conj) and conj[-1][0] == split_core[0][0]
        seen["one letter" if len(word) == 1 else "partial" if partial else "full" if conj else "none"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 4, seen


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


SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 1 << 29  # 512 MiB for the child's whole address space

# one command in a child whose address space is capped, so that a witness
# written out in letters fails the child with MemoryError, not the host
CAPPED_RUN = """\
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from gogh import cli
code, out = cli.run(sys.argv[1:])
print(json.dumps({{"code": code, "out": cli.render_json(out)}}))
"""


@pytest.mark.parametrize("n", [16, 200])
@pytest.mark.parametrize("command", ["verdict", "witness"])
def test_multi_letter_cycle_witness_grows_polynomially(tmp_path, command, n):
    """verdict and witness on an n-cycle whose roots are the two-letter
    v.1 v.2: the witness exponents are 2^n and 3^n, so the relation
    s a^i s^-1 a^-j written out has about 2 (2^n + 3^n) letters.  Checked
    that way, n = 16 ran out of memory and exited 3 (and n = 12 took 2.2 s
    at 351 MB; Python 3.11.7, a shared 2-core x86-64 host); checked arc by
    arc, each run is linear in the cycle."""
    path = tmp_path / "cycle.gog"
    path.write_text(multi_letter_cycle(n))
    with Clock(f"growth multi-letter cycle {command} n={n}", 1.0):
        child = subprocess.run(
            [sys.executable, "-c", CAPPED_RUN.format(limit=ADDRESS_SPACE), command, str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(child.stdout)
    assert result["code"] == 0, result
    out = json.loads(result["out"])
    witness = out["witness"] if command == "verdict" else out
    if command == "verdict":
        assert out["status"] == "NotHHG" and out["verified"] is True
    assert {abs(int(witness["i"])), abs(int(witness["j"]))} == {2**n, 3**n}
    assert witness["a"] == "v0000.1 v0000.2" and witness["transcript"] == ""
