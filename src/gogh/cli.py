"""Text format and command-line interface.

``USAGE`` states the text format and the command-line contract; it is the
description ``gogh --help`` prints, so this docstring can change without
changing stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from functools import partial
from math import gcd

# The parser, the numerals and the rendering need only model (and dihedral
# for a dihedral word of more than one letter); each command imports its
# other layers when it runs, and ``words`` only where a path word is built,
# so a process loads what it uses.
from .model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralInfinite,
    Free,
    GoghError,
    GraphOfGroups,
    EdgeRecord,
    VertexWord,
    make_graph,
    spanning_tree,
)


# What `gogh --help` prints above the commands: the text format and the
# command-line contract.
USAGE = """Text format and command-line interface.

Graph description files hold one declaration per line ("#" starts a
comment):

    vertex NAME free INT
    vertex NAME dihedral
    edge NAME from=NAME to=NAME img_from="WORD" img_to="WORD"

Word letters are `v.1` (free generator, 1-based), `v.r` / `v.s` (dihedral),
`e.t` (stable letter), each optionally followed by `^<signed int>`; words
are whitespace-separated letters.  `img_to` is the image of the edge-group
generator in the target vertex group, `img_from` the image in the source,
and the defining relation reads t_e * img_to * t_e^-1 = img_from.

`parse` reads a file in one compiled scan with one match per line, which
reads the forms above on the raw line: tokens are separated by runs of
whitespace (the characters `str.strip()` and `\\s` read), a line may be
padded, and a comment runs from a "#" to the end of the line.  A line's
comment starts at its first "#" outside double quotes.  A declaration
holds no "#" or quote outside its two quoted words, so on a declaration
line that "#" follows the declaration; with anything but whitespace and
a comment after it, the line is of no form.  A line of no form is named
by its text before the comment, stripped: a malformed vertex or edge
declaration by its first word, or an unrecognized declaration.

All commands print one deterministic JSON object (sorted keys, integers
beyond 2^53 rendered as decimal strings) and exit 0; malformed input,
command lines included, exits 2 with a machine-readable error object, and
an internal error exits 3 with one.  Verdicts are data, not exit codes.
`--help` prints {"usage": <help text>} and exits 0.
"""


class ParseError(GoghError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.error = message
        self.line = line
        self.column = column


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# whitespace inside a line: the characters str.strip() and \s read, but \n
_WS = r"[^\S\n]"
# One match per line of a text whose lines end at \n.  An edge line fills
# groups 1-5 (its name, ends and the two attachment texts), a vertex line
# groups 6-7 (its name, and the rank of a free one), a blank or comment
# line none, and a line of any other form group 8.
# It spells its optional tails as alternations that end the line, not as
# "?" groups: on a 1600-vertex cycle the scan alone took 1.5 ms that way
# against 2.2 ms.
_LINE_RE = re.compile(
    rf"^{_WS}*(?:(?:"
    rf"edge{_WS}+({_NAME}){_WS}+from=({_NAME}){_WS}+to=({_NAME})"
    rf'{_WS}+img_from="([^"\n]*)"{_WS}+img_to="([^"\n]*)"'
    rf"|vertex{_WS}+({_NAME}){_WS}+(?:free{_WS}+(\d+)|dihedral))"
    rf"(?:$|{_WS}*(?:$|#.*$))|$|#.*$)"
    r"|^(.*)$",
    re.MULTILINE,
)
_EDGE, _OTHER = 5, 8  # the last group of an edge line, of a line of no form
# The text before the first "#" outside double quotes; an unterminated
# quote runs to the end of the line.
_CODE_RE = re.compile(r'[^"#]*(?:"[^"]*"?[^"#]*)*')
# The letter grammar of every word text: a letter with the whitespace after
# it (groups 1-3: owner, generator, exponent), leading whitespace, or any
# other whitespace-separated token, which is a bad letter (group 4).  Some
# alternative matches at every position, so the matches of a scan tile the
# text and no search backtracks over a run more than once; a letter ends
# where its token ends.
_WORD_RE = re.compile(rf"({_NAME})\.(\d+|r|s|t)(?:\^(-?\d+))?(?:\s+|\Z)|\s+|(\S+)")


def parse_int(numeral: str) -> int:
    """The integer a signed decimal numeral denotes, of any length.

    int() converts it; decimal takes over where int() raises ValueError,
    as beyond the interpreter's process-wide digit limit
    (sys.set_int_max_str_digits).  The value, or the error, is always the
    one int(Decimal(numeral)) gives."""
    try:
        return int(numeral)
    except ValueError:
        from decimal import Decimal

        return int(Decimal(numeral))


def int_str(n: int) -> str:
    """The decimal numeral of n, of any length: str() writes it, and
    decimal beyond the digit limit (see parse_int).  A value that is not
    exactly an int, such as a bool, is written as str(Decimal(n)) writes
    it, so True is "1"."""
    if type(n) is int:
        try:
            return str(n)
        except ValueError:
            pass
    from decimal import Decimal

    return str(Decimal(n))


def letter_str(gen, exp: int) -> str:
    """A letter in the input syntax, after the owner's dot: gen or gen^exp."""
    name = gen if isinstance(gen, str) else int_str(gen)
    return name if exp == 1 else f"{name}^{int_str(exp)}"


def _parse_attachment(text: str, vertex: str, kind, line: int, shared: dict) -> VertexWord:
    """The attachment word of text at vertex, in normal form.

    The text is read by one scan of `_WORD_RE`, which raises at the first
    token that is no letter, a stable letter, a letter of another vertex,
    or an integer generator at a dihedral vertex.  Free letters are reduced
    as they are read, as reduce_letters does; a free vertex keeps a
    generator beyond its rank, or r or s, and validation rejects the word.
    A dihedral vertex's letters are multiplied out to s^eps r^k by
    `dihedral`.

    A text that is one letter of its own vertex, a free generator or r, is
    scanned once per suffix after its dot: shared maps the suffix to the
    word's letters tuple, which every image with that suffix shares."""
    dihedral = isinstance(kind, DihedralInfinite)
    owner, _, suffix = text.partition(".")
    if owner == vertex:
        letters = shared.get(suffix)
        # a stored letter is the normal form at a vertex whose kind it fits:
        # a free generator at a free vertex, r at a dihedral one
        if letters is not None and (letters[0][0] == DIHEDRAL_R) == dihedral:
            return VertexWord(vertex, letters)
    out: list = []
    for m in _WORD_RE.finditer(text):
        name, gen, exp, bad = m.groups()
        if name is None:
            if bad is None:  # leading whitespace
                continue
            raise ParseError(f"bad letter {bad!r}", line, m.start() + 1)
        if gen == "t":
            piece = m.group().rstrip()
            raise ParseError(f"stable letter {piece!r} inside attachment word", line, m.start() + 1)
        if name != vertex:
            piece = m.group().rstrip()
            raise ParseError(
                f"attachment letter {piece!r} does not live in vertex {vertex!r}", line, m.start() + 1
            )
        if gen != DIHEDRAL_R and gen != DIHEDRAL_S:
            if dihedral:
                piece = m.group().rstrip()
                raise ParseError(f"unknown generator in {piece!r}", line, m.start() + 1)
            gen = parse_int(gen)
        exp = parse_int(exp) if exp is not None else 1
        if dihedral:
            out.append((gen, exp))
        elif not exp:
            continue
        elif out and out[-1][0] == gen:
            total = out[-1][1] + exp
            if total:
                out[-1] = (gen, total)
            else:
                out.pop()
        else:
            out.append((gen, exp))
    word = VertexWord(vertex, tuple(out))
    if dihedral:
        from . import dihedral as dih

        word = dih.element_to_word(vertex, dih.word_to_element(word))
    # the text is one letter; s^k reads as s^k at a free vertex, as s or 1
    # at a dihedral one, so its word is not stored
    if len(word.letters) == 1 and m.start() == 0 and word.letters[0][0] != DIHEDRAL_S:
        shared[suffix] = word.letters
    return word


def _line_error(raw: str, lineno: int) -> ParseError:
    """The error of a line of no form: its code, the text before the first
    "#" outside double quotes, stripped, names the declaration it fails."""
    line = (_CODE_RE.match(raw).group() if "#" in raw else raw).strip()
    if line.startswith("vertex"):
        return ParseError("malformed vertex declaration", lineno, 1)
    if line.startswith("edge"):
        return ParseError("malformed edge declaration", lineno, 1)
    return ParseError(f"unrecognized declaration {line.split()[0]!r}", lineno, 1)


def parse(text: str) -> GraphOfGroups:
    """Parse a graph description; the graph validates itself on construction.

    One scan of the text matches each line once and reads every
    declaration, blank and comment line; a line it matches to no form
    raises the error `_line_error` names.  Every attachment text is read
    by `_parse_attachment`: one letter of its own vertex (`v.1^3` at a free
    vertex, `d.r` at a dihedral one) from a table of its suffixes after the
    dot, and any other text by one scan of the letter grammar `_WORD_RE`,
    which `parse_word` reads too.

    Equal declarations share their immutable parts: one kind object per
    rank (and one dihedral), one letters tuple per one-letter image, and
    each vertex name is the one string of its declaration.  The vertices are
    read in the scan and the edges after it, from each edge line's match;
    the matches are dropped before the graph is built."""
    vertices: dict[str, tuple[str, object]] = {}  # name -> its vertex-table entry
    kinds: dict[str | None, object] = {}  # rank numeral, or None -> kind
    pending_edges = []  # (line number, match) of each edge line
    # lines end only at \n, \r\n and \r: str.splitlines() also ends them at
    # \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029, inside comments and words too
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, m in enumerate(_LINE_RE.finditer(text), start=1):
        last = m.lastindex
        if last == _EDGE:
            pending_edges.append((lineno, m))
        elif last == _OTHER:
            raise _line_error(m.group(_OTHER), lineno)
        elif last is not None:
            name, rank = m.group(6, 7)
            if name in vertices:
                raise ParseError(f"duplicate vertex {name!r}", lineno, 1)
            kind = kinds.get(rank)
            if kind is None:
                kind = kinds[rank] = Free(parse_int(rank)) if rank is not None else DihedralInfinite()
            vertices[name] = (name, kind)
    edges: dict[str, EdgeRecord] = {}
    shared: dict = {}
    for lineno, m in pending_edges:
        name, src, tgt, text_s, text_t = m.group(1, 2, 3, 4, 5)
        if name in edges:
            raise ParseError(f"duplicate edge {name!r}", lineno, 1)
        declared_s, declared_t = vertices.get(src), vertices.get(tgt)
        if declared_s is None or declared_t is None:
            missing = src if declared_s is None else tgt
            raise ParseError(f"edge {name!r} references unknown vertex {missing!r}", lineno, 1)
        (src, kind_s), (tgt, kind_t) = declared_s, declared_t
        edges[name] = EdgeRecord(
            name,
            src,
            tgt,
            _parse_attachment(text_s, src, kind_s, lineno, shared),
            _parse_attachment(text_t, tgt, kind_t, lineno, shared),
        )
    del pending_edges
    return make_graph(vertices.values(), edges.values())


def _word_str(vertex: str, letters, rendered: dict) -> str:
    """A word of vertex in the input syntax.  rendered maps each letters
    tuple to the texts of its letters after their owner, dot included
    (".1^3"), so a caller that passes one map renders each distinct tuple
    once."""
    texts = rendered.get(letters)
    if texts is None:
        texts = rendered[letters] = tuple(f".{letter_str(g, e)}" for g, e in letters)
    return vertex + f" {vertex}".join(texts) if texts else ""


def serialize(graph: GraphOfGroups) -> str:
    rendered: dict = {}
    lines = [
        f"vertex {name} free {kind.rank}" if isinstance(kind, Free) else f"vertex {name} dihedral"
        for name, kind in graph.vertices
    ]
    for e in graph.edges:
        ws, wt = e.attachment_source, e.attachment_target
        lines.append(
            f"edge {e.name} from={e.source} to={e.target} "
            f'img_from="{_word_str(ws.vertex, ws.letters, rendered)}" '
            f'img_to="{_word_str(wt.vertex, wt.letters, rendered)}"'
        )
    return "\n".join(lines) + "\n"


def parse_word(graph: GraphOfGroups, text: str) -> list:
    """The tokens of a word of the graph, read by one scan of `_WORD_RE`:
    ("g", vertex, generator, exponent) for a vertex letter, ("t", edge,
    exponent) for a stable letter.  The first token that is no letter of
    the graph raises ParseError at its column, on line 0."""
    tokens = []
    index = graph.index
    for m in _WORD_RE.finditer(text):
        name, gen, exp, bad = m.groups()
        column = m.start() + 1
        if name is None:
            if bad is None:  # leading whitespace
                continue
            raise ParseError(f"bad letter {bad!r}", 0, column)
        exp = parse_int(exp) if exp is not None else 1
        if gen == "t":
            if name not in index.edges:
                raise ParseError(f"unknown edge {name!r} in word", 0, column)
            tokens.append(("t", name, exp))
            continue
        kind = index.kinds.get(name)
        if kind is None:
            raise ParseError(f"unknown vertex {name!r} in word", 0, column)
        if gen == DIHEDRAL_R or gen == DIHEDRAL_S:
            known = not isinstance(kind, Free)
        else:
            gen = parse_int(gen)
            known = isinstance(kind, Free) and 1 <= gen <= kind.rank
        if not known:
            raise ParseError(f"unknown generator in {m.group().rstrip()!r}", 0, column)
        tokens.append(("g", name, gen, exp))
    return tokens


# -- JSON rendering ------------------------------------------------------------
#
# The commands build their objects JSON-ready and fresh, so none holds a
# cycle.  Only domain data (exponents, moduli, weights, distortion entries)
# can pass 2^53: _num and _ratio wrap it where it enters an object, and every
# other number is a count, an index, a position or a 0/1 flag.

_BIG = 2**53


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def _num(n: int):
    """n itself up to 2^53 in absolute value, its decimal numeral beyond."""
    return n if -_BIG <= n <= _BIG else int_str(n)


def _ratio(q) -> str:
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


def _node_str(node, roots: dict) -> str:
    """A node's text; roots maps each root's letters to their text, so a
    caller that passes one map renders each distinct root once."""
    text = roots.get(node.root)
    if text is None:
        text = roots[node.root] = " ".join(letter_str(g, e) for g, e in node.root)
    return f"{node.vertex}|{text}"


def _cycle_json(cycle, occurrences) -> list:
    """The arcs of a cycle of (edge id, sign) steps, each from its near
    node to its far node, read off its edge's record: the target side is
    near for sign +1.  Each distinct node's text is rendered once (a node
    is the far node of one arc and the near node of the next), and each
    distinct root and (n_far, n_near) exponent pair once, its weight
    n_far/n_near written in lowest terms with a positive denominator."""
    nodes: dict = {}
    roots: dict = {}
    weights: dict[tuple[int, int], str] = {}
    out = []
    for label, sign in cycle:
        source, target = occurrences[label]
        (near, n_near, _), (far, n_far, _) = (target, source) if sign > 0 else (source, target)
        src, dst, weight = nodes.get(near), nodes.get(far), weights.get((n_far, n_near))
        if src is None:
            src = nodes[near] = _node_str(near, roots)
        if dst is None:
            dst = nodes[far] = _node_str(far, roots)
        if weight is None:
            g = gcd(n_far, n_near) if n_near > 0 else -gcd(n_far, n_near)
            weight = weights[n_far, n_near] = f"{int_str(n_far // g)}/{int_str(n_near // g)}"
        out.append(
            {
                "from": src,
                "to": dst,
                "weight": weight,
                "via": f"{label}.t" + ("^-1" if sign < 0 else ""),
            }
        )
    return out


def _phi_json(phi) -> dict:
    out = {}
    for vertex, images in phi.vertex_images:
        for gen, el in images:
            out[f"{vertex}.{gen}"] = [el.eps, _num(el.k)]
    for edge, el in phi.stable_images:
        out[f"{edge}.t"] = [el.eps, _num(el.k)]
    return out


def display_tokens(graph: GraphOfGroups, tokens) -> str:
    """Render tokens in the input letter syntax; tree stable letters are
    display-trivial and dropped."""
    tree = spanning_tree(graph)
    rendered: dict[tuple, str] = {}  # each distinct token is rendered once
    parts = []
    for tok in tokens:
        text = rendered.get(tok)
        if text is None:
            if tok[0] == "g":
                _, v, g, e = tok
                text = f"{v}.{letter_str(g, e)}" if e else ""
            else:
                _, edge, e = tok
                text = "" if e == 0 or edge in tree else f"{edge}.{letter_str('t', e)}"
            rendered[tok] = text
        if text:
            parts.append(text)
    return " ".join(parts)


def _witness_json(graph: GraphOfGroups, witness) -> dict:
    """A witness is built only once ``checks.witness_holds`` has accepted
    it, so the reduced form of its relation, the transcript, is empty."""
    return {
        "a": _word_str(witness.a.vertex, witness.a.letters, {}),
        "s": display_tokens(graph, witness.s),
        "i": _num(witness.i),
        "j": _num(witness.j),
        "transcript": "",
    }


# -- commands ------------------------------------------------------------------


def _cmd_check(graph: GraphOfGroups, args) -> dict:
    return {"ok": True, "vertices": len(graph.vertices), "edges": len(graph.edges)}


def _cmd_reduce(graph: GraphOfGroups, args) -> dict:
    from .words import britton_reduce, to_path_form, tokens_of_path

    tokens = parse_word(graph, args.word)
    path = to_path_form(graph, tokens, args.base)
    reduced = britton_reduce(graph, path)
    return {
        "input": args.word,
        "reduced": display_tokens(graph, tokens_of_path(reduced)),
        "trivial": not reduced.tail and reduced.head.is_identity,
    }


def _cmd_balance(graph: GraphOfGroups, args) -> dict:
    from .balance import Balanced, build_groupoid

    names = [graph.edge(args.edge).name] if args.edge else list(graph.edge_ids())
    groupoid = build_groupoid(graph)
    edges = []
    for name in names:
        verdict = groupoid.class_of(name).verdict
        if isinstance(verdict, Balanced):
            edges.append({"id": name, "verdict": "Balanced"})
        else:
            edges.append(
                {
                    "id": name,
                    "verdict": "Unbalanced",
                    "modulus": _ratio(verdict.modulus),
                    "cycle": _cycle_json(verdict.cycle, verdict.occurrences),
                }
            )
    return {"edges": edges}


def _cmd_conjgraph(graph: GraphOfGroups, args) -> dict:
    from .balance import SIDES, build_groupoid
    from .conjgraph import build_conjugacy_graph

    name = graph.edge(args.class_of).name
    cls = build_groupoid(graph).class_of(name)
    cg = build_conjugacy_graph(graph, cls)
    origin = cg.vertex_origin
    text = serialize(cg.graph)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
    rendered: dict = {}
    vertices = []
    for v, _ in cg.graph.vertices:
        node = origin[v]
        root = _word_str(node.vertex, node.root, rendered)
        vertices.append({"id": v, "origin": node.vertex, "root": root})
    provenance = {}
    for e in cls.edges:
        (node_s, _, conj_s), (node_t, _, conj_t) = cls.occurrences[e]
        provenance[f"{e}.source"] = _word_str(node_s.vertex, conj_s, rendered)
        provenance[f"{e}.target"] = _word_str(node_t.vertex, conj_t, rendered)
    return {
        "class": cls.index,
        "members": [[e, side] for e in cls.edges for side in SIDES],
        "vertices": vertices,
        "provenance": provenance,
        "text": text,
    }


def _hhg_json(certificates) -> dict:
    """The HHG object of (class index, parametrization) pairs."""
    phis = [{"class": index, "phi": _phi_json(phi)} for index, phi in certificates]
    return {"status": "HHG", "certificates": phis, "verified": True}


def _verdict_json(graph: GraphOfGroups, verdict) -> dict:
    if verdict.status == "HHG":
        return _hhg_json((c.conjugacy_graph.edge_class.index, c.phi) for c in verdict.certificates)
    witness = _witness_json(graph, verdict.witness)
    return {"status": "NotHHG", "edge": verdict.edge, "witness": witness, "verified": True}


def _cmd_verdict(graph: GraphOfGroups, args) -> dict:
    from .parametrize import hhg_verdict

    return _verdict_json(graph, hhg_verdict(graph))


def _cmd_parametrize(graph: GraphOfGroups, args) -> dict:
    from .balance import Unbalanced
    from .parametrize import parametrize

    result = parametrize(graph)  # a lone vertex, with no edge class, is class 0 too
    if isinstance(result, Unbalanced):
        from .certify import almost_bs_witness  # loaded only where a witness is built

        witness = _witness_json(graph, almost_bs_witness(graph, result))
        return {"status": "NotHHG", "witness": witness, "verified": True}
    return _hhg_json([(0, result)])


def _unbalanced_witness(graph: GraphOfGroups):
    """(the graph's unbalanced verdict, its almost Baumslag-Solitar witness),
    or None when the graph is balanced."""
    from .balance import Balanced, build_groupoid
    from .certify import almost_bs_witness

    verdict = build_groupoid(graph).verdict
    return None if isinstance(verdict, Balanced) else (verdict, almost_bs_witness(graph, verdict))


def _cmd_witness(graph: GraphOfGroups, args) -> dict:
    found = _unbalanced_witness(graph)
    if found is None:
        return {"status": "Balanced"}
    return {**_witness_json(graph, found[1]), "edge": found[0].edge}


def _cmd_distortion(graph: GraphOfGroups, args) -> dict:
    from .certify import distortion_certificate

    if args.depth < 1:
        raise GoghError(f"--depth must be at least 1, got {args.depth}")
    found = _unbalanced_witness(graph)
    if found is None:
        return {"status": "Balanced"}
    cert = distortion_certificate(graph, found[1], args.depth)
    return {
        "witness": _witness_json(graph, cert.witness),
        "table": [
            {
                "k": row.k,
                "exponent": _num(row.exponent),
                "length_bound": _num(row.length_bound),
                "ratio": _ratio(row.ratio),
            }
            for row in cert.rows
        ],
    }


class _Help(Exception):
    """A help request; its argument is the usage text."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a GoghError (the JSON error object,
    exit 2) and --help as _Help (the usage object, exit 0), printing nothing."""

    def error(self, message):
        raise GoghError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def build_arg_parser() -> argparse.ArgumentParser:
    # a fixed width and the description's own line breaks, whatever the
    # terminal: the usage object is the same bytes everywhere
    fmt = partial(argparse.RawDescriptionHelpFormatter, width=80)
    ap = _ArgumentParser(prog="gogh", description=USAGE, formatter_class=fmt)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name, formatter_class=fmt)
        p.add_argument("file")
        p.set_defaults(fn=fn)
        return p

    add("check", _cmd_check)
    p = add("reduce", _cmd_reduce)
    p.add_argument("--word", required=True)
    p.add_argument("--base", default=None)
    p = add("balance", _cmd_balance)
    p.add_argument("--edge", default=None)
    p = add("conjgraph", _cmd_conjgraph)
    p.add_argument("--class-of", dest="class_of", required=True)
    p.add_argument("--emit", default=None)
    add("parametrize", _cmd_parametrize)
    add("verdict", _cmd_verdict)
    add("witness", _cmd_witness)
    p = add("distortion", _cmd_distortion)
    p.add_argument("--depth", type=int, required=True)
    return ap


def run(argv) -> tuple[int, dict]:
    """(exit code, JSON object): 0 for a result, 2 for bad input (command
    line, files, text, names), 3 for an internal error.

    The cyclic garbage collector is paused for the command and switched
    back on afterwards only if it was on before.  Reference counting frees
    the graph, groupoid and certificate data, which hold no cycles; the
    only cycles a run leaves are its fixed-size argparse tree, which the
    collector frees once it runs again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_arg_parser().parse_args(argv)
        with open(args.file, encoding="utf-8") as fh:
            graph = parse(fh.read())  # the text is freed once parsed
        return 0, args.fn(graph, args)
    except _Help as exc:
        return 0, {"usage": exc.args[0]}
    except (GoghError, OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, ParseError):
            return 2, {"error": exc.error, "line": exc.line, "column": exc.column}
        return 2, {"error": str(exc), "line": 0, "column": 0}
    except Exception as exc:
        import traceback

        traceback.print_exc()
        return 3, {"error": f"internal: {type(exc).__name__}: {exc}", "line": 0, "column": 0}
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    code, payload = run(sys.argv[1:] if argv is None else argv)
    try:
        print(render_json(payload), flush=True)
    except BrokenPipeError:  # no reader: send the exit-time flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
