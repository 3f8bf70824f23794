"""Seeded input generators for the four benchmark workloads.

Every generated input carries its known answer by construction, so the
benchmark can check each output without trusting the program:

* trees, paths and cycles cut by rank-2 vertices are HHG;
* a cycle of 2-ended vertices is HHG iff the absolute product of its edge
  ratios is 1 (the generators close every balanced cycle exactly);
* BS(m, n) is HHG iff |m| = |n|;
* malformed text exits 2 with an error object.

Nothing here imports the program or the repository's tests, so editing
either can never change a workload.  Vertex and edge labels come from
seeded random permutations.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Attachment exponent pairs (exponent at the first endpoint, at the second).
# Ratios move a bounded walk over 2^x 3^y, which keeps the certificate
# exponents of long balanced graphs small; huge exponents are a separate,
# deliberate input kind of the small-corpus workload.
_PAIRS = [(a, b) for a in (1, 2, 3, 4, 6) for b in (1, 2, 3, 4, 6)]
_BOUND2, _BOUND3 = 2, 1


def _val(n: int) -> tuple[int, int]:
    v2 = v3 = 0
    while n % 2 == 0:
        n //= 2
        v2 += 1
    while n % 3 == 0:
        n //= 3
        v3 += 1
    return v2, v3


def _step(rng: random.Random, pos: tuple[int, int]) -> tuple[int, int, tuple[int, int]]:
    """One edge ratio a/b that keeps the walk's 2- and 3-valuations bounded."""
    while True:
        a, b = rng.choice(_PAIRS)
        (a2, a3), (b2, b3) = _val(a), _val(b)
        nxt = (pos[0] + a2 - b2, pos[1] + a3 - b3)
        if abs(nxt[0]) <= _BOUND2 and abs(nxt[1]) <= _BOUND3:
            return a, b, nxt


def _closing(pos: tuple[int, int]) -> tuple[int, int]:
    """The ratio a/b that brings the walk back to 2^0 3^0."""
    x2, x3 = pos
    a = 2 ** max(0, -x2) * 3 ** max(0, -x3)
    b = 2 ** max(0, x2) * 3 ** max(0, x3)
    return a, b


def letter(vertex: str, gen, exp) -> str:
    return f"{vertex}.{gen}" if exp == 1 else f"{vertex}.{gen}^{exp}"


# -- known facts about one input ---------------------------------------------


@dataclass
class Relation:
    """One edge of a graph of 2-ended groups, as the derived graph of its
    class sees it: t * v_tgt^n_tgt * t^-1 = v_src^n_src."""

    edge: str
    src: str
    src_gen: str  # "1" or "r"
    src_exp: int
    tgt: str
    tgt_gen: str
    tgt_exp: int


@dataclass
class Truth:
    """What the benchmark knows about one input file by construction."""

    path: str
    vertices: int
    edges: list[str]
    hhg: bool
    two_ended: bool
    # |modulus| of the only groupoid cycle, for an unbalanced single cycle
    modulus: Fraction | None = None
    # edge classes with their derived relations, when known; each is
    # (occurrence set, relations, derived vertex kinds)
    classes: list | None = None
    # for a graph of 2-ended groups: its own relations and vertex kinds,
    # which a parametrize certificate must satisfy
    whole: tuple | None = None
    family: str = ""


@dataclass
class Op:
    """One benchmark operation: a CLI command line and its known answer."""

    command: str
    argv: list[str]
    truth: Truth | None
    size: int = 0  # ladder coordinate: vertices, depth or N
    exit: int = 0
    expect: dict = field(default_factory=dict)  # command-specific answer
    kind: str = ""  # input kind, for reporting


# -- graph families -----------------------------------------------------------


class Builder:
    """Accumulates declarations with permuted vertex and edge labels."""

    def __init__(self, rng: random.Random, n_vertices: int, n_edges: int):
        self.rng = rng
        vperm = list(range(n_vertices))
        eperm = list(range(n_edges))
        rng.shuffle(vperm)
        rng.shuffle(eperm)
        self.vname = [f"v{i}" for i in vperm]
        self.ename = [f"e{i}" for i in eperm]
        self.kinds: dict[str, str] = {}
        self.lines: list[str] = []
        self.relations: list[Relation] = []
        self.next_edge = 0

    def vertex(self, i: int, kind: str) -> str:
        name = self.vname[i]
        self.kinds[name] = kind
        decl = {"f1": "free 1", "f2": "free 2", "d": "dihedral"}[kind]
        self.lines.append(f"vertex {name} {decl}")
        return name

    def _word(self, v: str, exp: int, gen: str | None) -> tuple[str, str]:
        """Attachment word and the generator its root maps to."""
        kind = self.kinds[v]
        if kind == "d":
            return letter(v, "r", exp), "r"
        if kind == "f1":
            return letter(v, 1, exp), "1"
        # rank-2 vertex: gen "1"/"2" selects the root; "c" conjugates v.1^exp by v.2
        if gen == "c":
            return f"{v}.2 {letter(v, 1, exp)} {v}.2^-1", "1"
        return letter(v, int(gen), exp), "1"

    def edge(self, p: str, q: str, xp: int, xq: int, gen_p=None, gen_q=None) -> str:
        """Edge between p and q with exponent xp at p and xq at q, in a random
        orientation; returns its name."""
        name = self.ename[self.next_edge]
        self.next_edge += 1
        if self.rng.random() < 0.5:
            src, tgt, xs, xt, gs, gt = p, q, xp, xq, gen_p, gen_q
        else:
            src, tgt, xs, xt, gs, gt = q, p, xq, xp, gen_q, gen_p
        ws, rs = self._word(src, xs, gs)
        wt, rt = self._word(tgt, xt, gt)
        self.lines.append(f'edge {name} from={src} to={tgt} img_from="{ws}" img_to="{wt}"')
        self.relations.append(Relation(name, src, rs, xs, tgt, rt, xt))
        return name

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _two_ended_kind(rng: random.Random) -> str:
    return "f1" if rng.random() < 0.6 else "d"


def _whole(b: Builder) -> tuple:
    return list(b.relations), {v: ("d" if k == "d" else "f1") for v, k in b.kinds.items()}


def _single_class(b: Builder) -> list:
    """The one edge class of a connected graph of 2-ended groups."""
    if not b.relations:
        return []
    occ = frozenset((r.edge, s) for r in b.relations for s in ("source", "target"))
    return [(occ, *_whole(b))]


def cycle_graph(rng: random.Random, n: int, unbalanced: bool = False, conj: bool = False):
    """A cycle of n vertices with balanced edge ratios, optionally with one
    ratio multiplied by 2 or 3.  With conj, every fifth vertex is free of
    rank 2 and attaches its two edges by v.1^k and v.2 v.1^k v.2^-1, which
    keeps the cycle in one edge class."""
    b = Builder(rng, n, n)
    kinds = []
    for i in range(n):
        kind = "f2" if conj and i % 5 == 0 else _two_ended_kind(rng)
        kinds.append(kind)
        b.vertex(i, kind)
    pos = (0, 0)
    ratios = []
    for _ in range(n - 1):
        a, c, pos = _step(rng, pos)
        ratios.append((a, c))
    ratios.append(_closing(pos))
    bad = rng.randrange(n) if unbalanced else None
    factor = rng.choice((2, 3))
    offending = None
    for i, (a, c) in enumerate(ratios):
        if i == bad:
            a *= factor
        p, q = b.vname[i], b.vname[(i + 1) % n]
        gp = "1" if kinds[i] == "f2" else None
        gq = "c" if kinds[(i + 1) % n] == "f2" else None
        name = b.edge(p, q, a * _sign(rng), c * _sign(rng), gp, gq)
        if i == bad:
            offending = name
    family = "conj-cycle" if conj else "cycle"
    truth = Truth(
        path="",
        vertices=n,
        edges=sorted(r.edge for r in b.relations),
        hhg=not unbalanced,
        two_ended=not conj,
        modulus=Fraction(factor) if unbalanced else None,
        classes=None if conj else _single_class(b),
        whole=None if conj else _whole(b),
        family=family,
    )
    return b.text(), truth, offending


def cut_cycle_graph(rng: random.Random, n: int, cuts: int = 4):
    """A cycle cut by rank-2 vertices whose two attachments use different
    generators: each run of edges between cuts is its own edge class, a
    path, so the graph is HHG whatever the ratios."""
    b = Builder(rng, n, n)
    cut_at = set(rng.sample(range(n), cuts))
    kinds = []
    for i in range(n):
        kind = "f2" if i in cut_at else _two_ended_kind(rng)
        kinds.append(kind)
        b.vertex(i, kind)
    pos = (0, 0)
    segments: list[list[Relation]] = []
    current: list[Relation] = []
    start = min(cut_at)
    for step in range(n):
        i = (start + step) % n
        j = (i + 1) % n
        if i in cut_at:
            pos = (0, 0)
            if current:
                segments.append(current)
            current = []
        a, c, pos = _step(rng, pos)
        gp = "2" if kinds[i] == "f2" else None
        gq = "1" if kinds[j] == "f2" else None
        b.edge(b.vname[i], b.vname[j], a * _sign(rng), c * _sign(rng), gp, gq)
        current.append(b.relations[-1])
    segments.append(current)
    classes = []
    for seg in segments:
        occ = frozenset((r.edge, s) for r in seg for s in ("source", "target"))
        derived = {}
        for r in seg:
            for v in (r.src, r.tgt):
                derived[v] = "d" if b.kinds[v] == "d" else "f1"
        classes.append((occ, seg, derived))
    truth = Truth(
        path="",
        vertices=n,
        edges=sorted(r.edge for r in b.relations),
        hhg=True,
        two_ended=False,
        classes=classes,
        family="cut-cycle",
    )
    return b.text(), truth


def tree_graph(rng: random.Random, n: int, path: bool = False):
    """A random recursive tree (or a path) of 2-ended vertices: HHG."""
    b = Builder(rng, n, max(n - 1, 0))
    for i in range(n):
        b.vertex(i, _two_ended_kind(rng))
    pos = {0: (0, 0)}
    for i in range(1, n):
        parent = i - 1 if path else rng.randrange(i)
        a, c, pos[i] = _step(rng, pos[parent])
        b.edge(b.vname[parent], b.vname[i], a * _sign(rng), c * _sign(rng))
    truth = Truth(
        path="",
        vertices=n,
        edges=sorted(r.edge for r in b.relations),
        hhg=True,
        two_ended=True,
        classes=_single_class(b),
        whole=_whole(b),
        family="path" if path else "tree",
    )
    return b.text(), truth


def bs_graph(m, n, vertex: str = "v", edge: str = "e"):
    """BS(m, n) = < a, t | t a^n t^-1 = a^m >; m and n may be digit strings."""
    text = (
        f"vertex {vertex} free 1\n"
        f'edge {edge} from={vertex} to={vertex} img_from="{letter(vertex, 1, m)}" '
        f'img_to="{letter(vertex, 1, n)}"\n'
    )
    hhg = abs(m) == abs(n) if isinstance(m, int) else str(m).lstrip("-") == str(n).lstrip("-")
    classes = whole = None
    if isinstance(m, int):
        whole = ([Relation(edge, vertex, "1", m, vertex, "1", n)], {vertex: "f1"})
        classes = [(frozenset({(edge, "source"), (edge, "target")}), *whole)]
    truth = Truth(
        path="",
        vertices=1,
        edges=[edge],
        hhg=hhg,
        two_ended=True,
        modulus=None if hhg or not isinstance(m, int) else abs(Fraction(m, n)),
        classes=classes,
        whole=whole,
        family="bs",
    )
    return text, truth


# The README and test-suite fixtures, written out here rather than imported.
FIXTURES = {
    "bs32": ('vertex v free 1\nedge e from=v to=v img_from="v.1^3" img_to="v.1^2"\n', False, Fraction(3, 2), True),
    "trefoil": (
        'vertex u free 1\nvertex v free 1\nedge e from=u to=v img_from="u.1^2" img_to="v.1^3"\n',
        True, None, True,
    ),
    "f2_example": (
        'vertex v free 2\nedge e from=v to=v img_from="v.1^3" img_to="v.2 v.1^2 v.2^-1"\n',
        False, Fraction(3, 2), False,
    ),
    "klein": ('vertex v free 1\nedge e from=v to=v img_from="v.1^-1" img_to="v.1"\n', True, None, True),
    "dihedral_loop": (
        'vertex d dihedral\nedge e from=d to=d img_from="d.r^2" img_to="d.r^2"\n', True, None, True,
    ),
}

MULTI_LETTER = (
    'vertex v free 2\nedge e from=v to=v img_from="v.1 v.2 v.1 v.2 v.1 v.2" img_to="v.1 v.2 v.1 v.2"\n'
)


def fixture_truth(name: str) -> tuple[str, Truth]:
    text, hhg, modulus, two_ended = FIXTURES[name]
    n_vertices = sum(1 for line in text.splitlines() if line.startswith("vertex"))
    return text, Truth(
        path="", vertices=n_vertices, edges=["e"], hhg=hhg, two_ended=two_ended,
        modulus=modulus, family=name,
    )


def small_rank2_tree(rng: random.Random, n: int):
    """A tree of at most 8 vertices with rank-2 vertices and conjugated or
    multi-letter attachments: HHG, classes not tracked."""
    lines = []
    kinds = []
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    for i in range(n):
        kind = rng.choice(("f1", "f2", "f2", "d"))
        kinds.append(kind)
        decl = {"f1": "free 1", "f2": "free 2", "d": "dihedral"}[kind]
        lines.append(f"vertex {names[i]} {decl}")

    def word(i):
        v, kind = names[i], kinds[i]
        k = rng.choice((1, 2, 3, 4, 5)) * _sign(rng)
        if kind == "d":
            return letter(v, "r", k)
        if kind == "f1":
            return letter(v, 1, k)
        a, c = rng.sample((1, 2), 2)
        style = rng.random()
        if style < 0.5:
            return letter(v, a, k)
        if style < 0.8:
            return f"{v}.{c} {letter(v, a, k)} {v}.{c}^-1"
        unit = f"{v}.{a} {v}.{c}" if k > 0 else f"{v}.{c}^-1 {v}.{a}^-1"
        return " ".join([unit] * min(abs(k), 3))

    edges = []
    for i in range(1, n):
        p = rng.randrange(i)
        src, tgt = (p, i) if rng.random() < 0.5 else (i, p)
        name = f"e{i - 1}"
        edges.append(name)
        lines.append(
            f'edge {name} from={names[src]} to={names[tgt]} img_from="{word(src)}" img_to="{word(tgt)}"'
        )
    truth = Truth(
        path="", vertices=n, edges=sorted(edges), hhg=True,
        two_ended="f2" not in kinds, classes=None if edges else [], family="rank2-tree",
    )
    return "\n".join(lines) + "\n", truth


MALFORMED = [
    "vertex broken\n",
    "vertex v free 1\nedge e from=v to=w img_from=\"v.1\" img_to=\"w.1\"\n",
    "vertex v free 1\nvertex v free 1\n",
    "vertex v free 0\n",
    "vertex v free 1\nvertex w free 1\n",
    "vertex d dihedral\nedge e from=d to=d img_from=\"d.s\" img_to=\"d.r\"\n",
    "vertex v free 1\nedge e from=v to=v img_from=\"w.1\" img_to=\"v.1\"\n",
    "vertex v free 1\nedge e from=v to=v img_from=\"v.2\" img_to=\"v.1\"\n",
    "vertex v free 1\nedge e from=v to=v img_from=\"v.1^0\" img_to=\"v.1\"\n",
    "vertex v free 1\nedge e from=v to=v img_from=\"e.t\" img_to=\"v.1\"\n",
    "vertex v free 1\nedge e from=v to=v img_from=\"v.1\n",
    "graph g\n",
]


def huge_digits(rng: random.Random, digits: int) -> str:
    """A decimal numeral of the given length, built without int->str."""
    return str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(digits - 1))


# -- workloads ----------------------------------------------------------------


class Workspace:
    """Writes generated inputs under one directory before timing starts."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.count = 0

    def write(self, text: str, truth: Truth | None = None) -> str:
        path = os.path.join(self.root, f"g{self.count}.gog")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if truth is not None:
            truth.path = path
        return path


@dataclass
class Workload:
    name: str
    round_ops: object  # round index -> list[Op]; every round has the same mix
    warmup: list[Op]
    tail_percentile: float
    slope_command: str | None = None  # scaling_slope: this command's median latency by size
    ladder: tuple = ()
    slope_kind: str = ""


HHG_LADDER = (200, 400, 800, 1600)
NOTHHG_LADDER = (125, 250, 500, 1000)
BALANCE_LADDER = (25, 50, 100)
POOL = 2  # distinct instances per family and size; round r uses instance r % POOL


def large_hhg(rng: random.Random, ws: Workspace) -> Workload:
    """Every round runs each command on every family at every size, so all
    rounds hold the same mix and only the instances change."""

    def make(family: str, n: int):
        if family == "cycle":
            text, truth, _ = cycle_graph(rng, n)
        elif family == "cut-cycle":
            text, truth = cut_cycle_graph(rng, n)
        elif family == "path":
            text, truth = tree_graph(rng, n, path=True)
        else:
            text, truth = tree_graph(rng, n)
        ws.write(text, truth)
        return truth

    families = ("cycle", "path", "tree", "cut-cycle")
    sizes = HHG_LADDER + BALANCE_LADDER
    inst = {(f, n, k): make(f, n) for n in sizes for f in families for k in range(POOL)}
    pick = random.Random(rng.random())
    class_of = {key: pick.choice(t.edges) for key, t in inst.items()}

    def round_ops(r: int) -> list[Op]:
        ops = []
        for f in families:
            for n in HHG_LADDER:
                t = inst[(f, n, r % POOL)]
                ops.append(Op("verdict", ["verdict", t.path], t, n))
                if t.two_ended:
                    ops.append(Op("parametrize", ["parametrize", t.path], t, n))
                e = class_of[(f, n, r % POOL)]
                ops.append(Op("conjgraph", ["conjgraph", t.path, "--class-of", e], t, n, expect={"edge": e}))
            for n in BALANCE_LADDER:
                t = inst[(f, n, r % POOL)]
                ops.append(Op("balance", ["balance", t.path], t, n))
        return ops

    small = HHG_LADDER[0]
    t = inst[("cycle", small, 0)]
    b = inst[("cycle", BALANCE_LADDER[0], 0)]
    warmup = [
        Op("verdict", ["verdict", t.path], t, small),
        Op("parametrize", ["parametrize", t.path], t, small),
        Op("conjgraph", ["conjgraph", t.path, "--class-of", t.edges[0]], t, small, expect={"edge": t.edges[0]}),
        Op("balance", ["balance", b.path], b, BALANCE_LADDER[0]),
    ]
    return Workload("large-hhg", round_ops, warmup, 75.0, "verdict", HHG_LADDER)


def large_nothhg(rng: random.Random, ws: Workspace) -> Workload:
    """Every round runs each command on both families at every size."""
    families = ("cycle", "conj-cycle")
    inst = {}
    for n in NOTHHG_LADDER:
        for f in families:
            for k in range(POOL):
                text, truth, offending = cycle_graph(rng, n, unbalanced=True, conj=f == "conj-cycle")
                ws.write(text, truth)
                inst[(f, n, k)] = (truth, offending)

    def round_ops(r: int) -> list[Op]:
        ops = []
        for f in families:
            for n in NOTHHG_LADDER:
                t, off = inst[(f, n, r % POOL)]
                ops.append(Op("verdict", ["verdict", t.path], t, n))
                ops.append(Op("witness", ["witness", t.path], t, n))
                ops.append(Op("balance", ["balance", t.path, "--edge", off], t, n, expect={"edge": off}))
        return ops

    small = NOTHHG_LADDER[0]
    t, off = inst[("cycle", small, 0)]
    warmup = [
        Op("verdict", ["verdict", t.path], t, small),
        Op("witness", ["witness", t.path], t, small),
        Op("balance", ["balance", t.path, "--edge", off], t, small, expect={"edge": off}),
    ]
    return Workload("large-nothhg", round_ops, warmup, 75.0, "verdict", NOTHHG_LADDER)


DISTORTION_DEPTHS = (100, 141, 200)
REDUCE_N = (100, 1000, 10000)
NESTED_N = (16, 128, 1024)


def _bs_pairs():
    vals = [x for x in range(-6, 7) if x]
    return [(m, n) for m in vals for n in vals if abs(m) != abs(n)]


def _reduce_expect(m: int, n: int, big_n: int, x: int, tail: int) -> dict:
    """Britton reduction of e.t^N v.1^x e.t^-N v.1^tail in BS(m, n), by
    exponent arithmetic: each pinch needs n | x and turns v^x into v^(x/n*m)."""
    k = big_n
    while k and x % n == 0:
        x = x // n * m
        k -= 1
    if k == 0:
        x += tail
        reduced = letter("v", 1, x) if x else ""
        return {"trivial": x == 0, "reduced": reduced}
    parts = ["e.t"] * k + [letter("v", 1, x)] + ["e.t^-1"] * k
    if tail:
        parts.append(letter("v", 1, tail))
    return {"trivial": False, "reduced": " ".join(parts)}


def words(rng: random.Random, ws: Workspace) -> Workload:
    pairs = _bs_pairs()
    rng.shuffle(pairs)
    bs = []
    for m, n in pairs:
        text, truth = bs_graph(m, n)
        ws.write(text, truth)
        bs.append((m, n, truth))
    # plain t^N words get stuck after their first pinch: |n| >= 2 and n does not divide m
    stuck = [(m, n, t) for m, n, t in bs if abs(n) >= 2 and m % n]
    f2_text, f2 = fixture_truth("f2_example")
    ws.write(f2_text, f2)
    ml = Truth(path="", vertices=1, edges=["e"], hhg=False, two_ended=False,
               modulus=Fraction(3, 2), family="multi-letter")
    ws.write(MULTI_LETTER, ml)

    def round_ops(r: int) -> list[Op]:
        ops = []
        for j, d in enumerate(DISTORTION_DEPTHS):
            m, n, t = bs[(3 * r + j) % len(bs)]
            ops.append(Op("distortion", ["distortion", t.path, "--depth", str(d)], t, d, kind="bs"))
        ops.append(Op("distortion", ["distortion", f2.path, "--depth", "100"], f2, 100, kind="f2"))
        for d in (5, 6):
            ops.append(Op("distortion", ["distortion", ml.path, "--depth", str(d)], ml, d, kind="multi-letter"))
        for j, big_n in enumerate(REDUCE_N):
            m, n, t = stuck[(3 * r + j) % len(stuck)]
            word = f"e.t^{big_n} {letter('v', 1, n)} e.t^-{big_n}"
            ops.append(Op("reduce", ["reduce", t.path, "--word", word], t, big_n,
                          expect=_reduce_expect(m, n, big_n, n, 0), kind="t-power"))
        for j, big_n in enumerate(NESTED_N):
            m, n, t = bs[(3 * r + j + 1) % len(bs)]
            tail = -(m ** big_n) if (r + j) % 2 else 0
            word = f"e.t^{big_n} {letter('v', 1, n ** big_n)} e.t^-{big_n}"
            if tail:
                word += f" {letter('v', 1, tail)}"
            ops.append(Op("reduce", ["reduce", t.path, "--word", word], t, big_n,
                          expect=_reduce_expect(m, n, big_n, n ** big_n, tail), kind="nested"))
        return ops

    m, n, t = bs[0]
    warmup = [
        Op("distortion", ["distortion", t.path, "--depth", "10"], t, 10),
        Op("reduce", ["reduce", t.path, "--word", "e.t v.1 e.t^-1"], t, 1,
           expect=_reduce_expect(m, n, 1, 1, 0)),
    ]
    return Workload("words", round_ops, warmup, 90.0, "distortion", DISTORTION_DEPTHS, "bs")


COMMANDS = ("check", "reduce", "balance", "conjgraph", "parametrize", "verdict", "witness", "distortion")
CORPUS_GRAPHS = 1600
HOSTILE_MALFORMED = 48
HOSTILE_NAMES = 32
HOSTILE_HUGE = 8


def _small_word(rng: random.Random, text: str) -> tuple[str, dict]:
    """A --word with a known reduction: an edge relator (trivial), a word
    times its inverse (trivial), or one vertex letter (itself)."""
    edges = [line.split() for line in text.splitlines() if line.startswith("edge")]
    verts = [line.split() for line in text.splitlines() if line.startswith("vertex")]
    style = rng.random()
    if edges and style < 0.4:
        line = rng.choice(edges)
        name = line[1]
        img_from = _text_between(line, "img_from=")
        img_to = _text_between(line, "img_to=")
        inv_from = " ".join(_inv_letter(p) for p in reversed(img_from.split()))
        return f"{name}.t {img_to} {name}.t^-1 {inv_from}", {"trivial": True, "reduced": ""}
    v = rng.choice(verts)
    name = v[1]
    gen = "r" if v[2] == "dihedral" else str(rng.randint(1, int(v[3])))
    k = rng.choice((1, 2, 3, -1, -2, 5))
    piece = letter(name, gen, k)
    if style < 0.7:
        inv = letter(name, gen, -k)
        if edges:
            t = rng.choice(edges)[1]
            return f"{t}.t {piece} {t}.t^-1 {t}.t {inv} {t}.t^-1", {"trivial": True, "reduced": ""}
        return f"{piece} {inv}", {"trivial": True, "reduced": ""}
    return piece, {"trivial": False, "reduced": piece}


def _text_between(parts: list[str], key: str) -> str:
    line = " ".join(parts)
    start = line.index(key) + len(key) + 1
    return line[start : line.index('"', start)]


def _inv_letter(piece: str) -> str:
    base, _, exp = piece.partition("^")
    e = int(exp) if exp else 1
    return letter(base.split(".")[0], base.split(".")[1], -e)


def small_corpus(rng: random.Random, ws: Workspace) -> Workload:
    graphs = []
    for name in FIXTURES:
        text, truth = fixture_truth(name)
        ws.write(text, truth)
        graphs.append((text, truth))
    while len(graphs) < CORPUS_GRAPHS:
        roll = rng.random()
        if roll < 0.3:
            text, truth = small_rank2_tree(rng, rng.randint(1, 8))
        elif roll < 0.55:
            m, n = rng.choice(_bs_pairs() + [(k, s * k) for k in range(1, 7) for s in (1, -1)])
            text, truth = bs_graph(m, n)
        elif roll < 0.8:
            text, truth, _ = cycle_graph(rng, rng.randint(2, 8), unbalanced=rng.random() < 0.5)
        else:
            text, truth = tree_graph(rng, rng.randint(1, 8))
        ws.write(text, truth)
        graphs.append((text, truth))
    malformed = []
    for i in range(HOSTILE_MALFORMED):
        path = ws.write(MALFORMED[i % len(MALFORMED)])
        malformed.append(path)
    huge = []
    for i in range(HOSTILE_HUGE):
        digits = huge_digits(rng, rng.randint(4301, 4600))
        m = digits
        n = ("-" + digits) if i % 4 == 1 else digits if i % 4 == 0 else huge_digits(rng, len(digits))
        text, truth = bs_graph(m, n)
        ws.write(text, truth)
        huge.append(truth)
    words_for = {}
    for text, truth in graphs:
        words_for[truth.path] = [_small_word(rng, text) for _ in range(4)]
    seed = rng.random()

    def round_ops(r: int) -> list[Op]:
        orng = random.Random(f"{seed}-{r}")
        ops = []
        for i, (text, t) in enumerate(graphs):
            cmd = COMMANDS[(i + r) % len(COMMANDS)]
            ops.append(_corpus_op(orng, cmd, t, words_for[t.path][r % 4]))
        for i, path in enumerate(malformed):
            cmd = COMMANDS[(i + r) % len(COMMANDS)]
            argv = [cmd, path] + _dummy_args(cmd)
            ops.append(Op(cmd, argv, None, 0, exit=2, kind="malformed"))
        for i in range(HOSTILE_NAMES):
            _, t = graphs[(i * 37 + r) % len(graphs)]
            bad = orng.choice(("zz.1", "q.t", "zz.r^2", f"{t.edges[0] if t.edges else 'e'}.1"))
            ops.append(Op("reduce", ["reduce", t.path, "--word", bad], t, t.vertices, exit=2, kind="unknown-name"))
        for t in huge:
            ops.append(Op("verdict", ["verdict", t.path], t, 1, kind="huge-exponent"))
        return ops

    _, t = graphs[0]
    warmup = [_corpus_op(random.Random(0), c, t, words_for[t.path][0]) for c in COMMANDS]
    return Workload("small-corpus", round_ops, warmup, 99.0)


def _dummy_args(cmd: str) -> list[str]:
    return {
        "reduce": ["--word", "v.1"],
        "conjgraph": ["--class-of", "e"],
        "distortion": ["--depth", "3"],
    }.get(cmd, [])


def _corpus_op(rng: random.Random, cmd: str, t: Truth, word) -> Op:
    size = t.vertices
    if cmd == "reduce":
        w, expect = word
        return Op(cmd, ["reduce", t.path, "--word", w], t, size, expect=expect, kind=t.family)
    if cmd == "conjgraph":
        if not t.edges:
            return Op("check", ["check", t.path], t, size, kind=t.family)
        e = rng.choice(t.edges)
        return Op(cmd, ["conjgraph", t.path, "--class-of", e], t, size, expect={"edge": e}, kind=t.family)
    if cmd == "balance" and t.edges and rng.random() < 0.5:
        e = rng.choice(t.edges)
        return Op(cmd, ["balance", t.path, "--edge", e], t, size, expect={"edge": e}, kind=t.family)
    if cmd == "distortion":
        d = rng.randint(2, 8)
        return Op(cmd, ["distortion", t.path, "--depth", str(d)], t, d, kind=t.family)
    exit_code = 2 if cmd == "parametrize" and not t.two_ended else 0
    return Op(cmd, [cmd, t.path], t, size, exit=exit_code, kind=t.family)


WORKLOADS = {
    "large-hhg": large_hhg,
    "large-nothhg": large_nothhg,
    "words": words,
    "small-corpus": small_corpus,
}
