"""The graph-text parser against a reference parser, and its line splitting.

`reference_parse` is the parser as it was before one-letter attachments got
their own path and free words their own scan: every line goes through one
grammar, every attachment through the letter scanner and `vw_normalize`,
and every numeral through `int(Decimal(...))`.  Its only change is the
line split, which ends lines at \\n, \\r\\n and \\r alone.  It holds its
own copy of the grammar, so the check shares no pattern with the parser
it checks.  `parse` reads every line in one scan of the whole text, whose
pattern spells out the runs of whitespace, padding and comments that the
reference strips and cuts line by line, so the tests below try plain
lines (single spaces, no
padding, no comment) and general ones (any other whitespace, padding,
comments) side by side, and lines of no form of each kind.

The two parsers differ on purpose in one case: an integer generator in an
attachment of a dihedral vertex (`d.1`).  The reference hands it to
`vw_normalize`, whose `ValueError` exits 3, unless a later letter of the
same word is rejected first; `parse` rejects it at its own letter with
`parse_word`'s error, `unknown generator in 'd.1'`, exit 2.
"""

from __future__ import annotations

import re
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BS32_TEXT, F2_EXAMPLE_TEXT, TREFOIL_TEXT, multi_letter_cycle
from gogh.cli import ParseError, parse
from gogh.model import (
    DIHEDRAL_R,
    DIHEDRAL_S,
    DihedralInfinite,
    EdgeRecord,
    Free,
    GoghError,
    VertexWord,
    make_graph,
)
from gogh.words import vw_normalize
from test_memory import balanced_cycle

# -- the reference -----------------------------------------------------------------

# The grammar as the parser had it before its one scan of the text, less the
# edge pattern's one-letter captures, which the reference never read.
_REF_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_REF_VERTEX_RE = re.compile(rf"^vertex\s+({_REF_NAME})\s+(free\s+(\d+)|dihedral)\s*$")
_REF_EDGE_RE = re.compile(
    rf'^edge\s+({_REF_NAME})\s+from=({_REF_NAME})\s+to=({_REF_NAME})'
    rf'\s+img_from="([^"]*)"\s+img_to="([^"]*)"\s*$'
)
_REF_CODE_RE = re.compile(r'[^"#]*(?:"[^"]*"?[^"#]*)*')
_REF_LETTER_RE = re.compile(rf"^({_REF_NAME})\.(\d+|r|s|t)(\^(-?\d+))?$")
_REF_TOKEN_RE = re.compile(r"\S+")


def _ref_int(numeral: str) -> int:
    return int(Decimal(numeral))


def _ref_letter(text: str, line: int, column: int):
    m = _REF_LETTER_RE.match(text)
    if not m:
        raise ParseError(f"bad letter {text!r}", line, column)
    owner, gen, _, exp = m.groups()
    exponent = _ref_int(exp) if exp is not None else 1
    if gen == "t":
        return ("t", owner, exponent)
    if gen in (DIHEDRAL_R, DIHEDRAL_S):
        return ("g", owner, gen, exponent)
    return ("g", owner, _ref_int(gen), exponent)


def _ref_attachment(text: str, vertex: str, kind, line: int) -> VertexWord:
    letters = []
    for m in _REF_TOKEN_RE.finditer(text):
        piece, column = m.group(), m.start() + 1
        tok = _ref_letter(piece, line, column)
        if tok[0] != "g":
            raise ParseError(f"stable letter {piece!r} inside attachment word", line, column)
        if tok[1] != vertex:
            raise ParseError(
                f"attachment letter {piece!r} does not live in vertex {vertex!r}", line, column
            )
        letters.append((tok[2], tok[3]))
    return vw_normalize(kind, VertexWord(vertex, tuple(letters)))


def reference_parse(text: str):
    vertices: dict[str, object] = {}
    pending_edges = []
    lines = re.split(r"\r\n|\r|\n", text)
    for lineno, raw in enumerate(lines, start=1):
        line = _REF_CODE_RE.match(raw).group().strip()
        if not line:
            continue
        if line.startswith("vertex"):
            m = _REF_VERTEX_RE.match(line)
            if not m:
                raise ParseError("malformed vertex declaration", lineno, 1)
            name, _, rank = m.groups()
            if name in vertices:
                raise ParseError(f"duplicate vertex {name!r}", lineno, 1)
            vertices[name] = Free(_ref_int(rank)) if rank is not None else DihedralInfinite()
        elif line.startswith("edge"):
            m = _REF_EDGE_RE.match(line)
            if not m:
                raise ParseError("malformed edge declaration", lineno, 1)
            # the edge's name, its ends and its two attachment texts
            pending_edges.append((lineno, m.groups()))
        else:
            raise ParseError(f"unrecognized declaration {line.split()[0]!r}", lineno, 1)
    edges = []
    seen = set()
    for lineno, (name, src, tgt, img_from, img_to) in pending_edges:
        if name in seen:
            raise ParseError(f"duplicate edge {name!r}", lineno, 1)
        seen.add(name)
        for v in (src, tgt):
            if v not in vertices:
                raise ParseError(f"edge {name!r} references unknown vertex {v!r}", lineno, 1)
        edges.append(
            EdgeRecord(
                name=name,
                source=src,
                target=tgt,
                attachment_source=_ref_attachment(img_from, src, vertices[src], lineno),
                attachment_target=_ref_attachment(img_to, tgt, vertices[tgt], lineno),
            )
        )
    return make_graph(list(vertices.items()), edges)


def outcome(parser, text: str):
    """The parsed graph, or the exit code and error object `gogh.cli.run`
    maps the parser's exception to."""
    try:
        return parser(text)
    except ParseError as exc:
        return 2, {"error": exc.error, "line": exc.line, "column": exc.column}
    except GoghError as exc:
        return 2, {"error": str(exc), "line": 0, "column": 0}
    except Exception as exc:
        return 3, {"error": f"internal: {type(exc).__name__}: {exc}", "line": 0, "column": 0}


_DIHEDRAL_INT_ERROR = re.compile(rf"unknown generator in '(?P<owner>{_REF_NAME})\.(?P<gen>\d+)(\^-?\d+)?'")


def assert_matches_the_reference(text: str):
    """parse's outcome on text is the reference parser's, but for the one
    intended difference described at the top of this module."""
    got, want = outcome(parse, text), outcome(reference_parse, text)
    if got == want:
        return
    code, error = got
    m = _DIHEDRAL_INT_ERROR.fullmatch(error["error"])
    assert code == 2 and m and VERTICES.get(m["owner"]) == "dihedral", (got, want)
    if want[0] == 3:
        assert want[1]["error"] == f"internal: ValueError: not a dihedral generator: {int(m['gen'])}"
    else:
        # the reference rejects a later letter of the same word
        assert want[0] == 2 and want[1]["line"] == error["line"], (got, want)
        assert want[1]["column"] > error["column"], (got, want)


# -- mutated graph text ------------------------------------------------------------

VERTICES = {"u": "free 1", "v": "free 2", "d": "dihedral", "c": "dihedral"}
BIG = "7" * 5000

# mostly plain exponents; the rest are zero, padded or 5000 digits long
exponents = st.sampled_from(
    ["", "", "", "^2", "^-3", "^5", "^1", "^0", "^-0", "^007", "^-01", "^" + BIG, "^-" + BIG[1:]]
)


def one_in(draw, n: int) -> bool:
    return draw(st.sampled_from([False] * (n - 1) + [True]))


@st.composite
def letters(draw, owner: str, edge: str):
    """One letter, usually of the owner vertex and a generator of its kind."""
    kind = VERTICES.get(owner, "free 1")
    if one_in(draw, 12):  # a wrong owner or an unknown one
        owner = draw(st.sampled_from(sorted(VERTICES) + ["zz"]))
    if one_in(draw, 16):
        return f"{edge}.t" + draw(exponents)
    if kind == "dihedral":
        gen = draw(st.sampled_from(["r"] * 10 + ["s", "1"]))
    else:
        rank = int(kind.split()[1])
        gen = draw(st.sampled_from([str(g) for g in range(1, rank + 1)] * 3 + ["01", str(rank + 1), "r"]))
    return f"{owner}.{gen}" + draw(exponents)


@st.composite
def attachments(draw, owner: str, edge: str):
    """One letter, or a few, with varied padding and separators."""
    size = 1 if draw(st.booleans()) else draw(st.integers(1, 3))
    words = draw(st.lists(letters(owner, edge), min_size=size, max_size=size))
    if one_in(draw, 20):
        words.append(draw(st.sampled_from(["v.", "#", "d.x", "u.1^"])))
    gap = draw(st.sampled_from([" ", " ", "  ", "\t", "\x85"]))
    pad = draw(st.sampled_from(["", "", " ", "  "]))
    return pad + gap.join(words) + pad


@st.composite
def graph_texts(draw):
    """A connected graph's text, sometimes with a duplicate or unknown name,
    comments and \\r\\n or \\r line ends."""
    names = draw(st.lists(st.sampled_from(sorted(VERTICES)), min_size=1, max_size=4, unique=True))
    lines = [f"vertex {name} {VERTICES[name]}" for name in names]
    if one_in(draw, 10):
        lines.append(lines[draw(st.integers(0, len(names) - 1))])
    ends = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, len(names))]
    ends += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=2))
    edges = [f"e{i}" for i in range(len(ends))]
    if edges and one_in(draw, 10):
        edges[-1] = edges[0]
    for edge, (src, tgt) in zip(edges, ends):
        if one_in(draw, 20):
            src = "zz"
        if draw(st.booleans()):
            src, tgt = tgt, src
        img_from = draw(attachments(src, edge))
        img_to = draw(attachments(tgt, edge))
        lines.append(f'edge {edge} from={src} to={tgt} img_from="{img_from}" img_to="{img_to}"')
    lines = [line + " # a note" if one_in(draw, 5) else line for line in draw(st.permutations(lines))]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return newline.join(lines) + newline


@settings(max_examples=400, deadline=None)
@given(graph_texts())
def test_parse_matches_the_reference_parser(text):
    assert_matches_the_reference(text)


@pytest.mark.parametrize(
    "src, tgt, img_from, img_to",
    [
        ("v", "v", "v.1^0", "v.1"),
        ("v", "v", "v.1^-0", "v.1"),
        ("v", "v", "v.1^007", "v.1^-01"),
        ("v", "v", f"v.1^{BIG}", f"v.1^-{BIG[1:]}"),
        ("v", "v", "v.3", "v.1"),
        ("u", "v", "v.1", "v.1"),
        ("v", "v", "v.1 e.t", "v.1"),
        ("v", "v", "v.1", "e.t"),
        ("v", "v", " v.1 ", "  v.2^2  "),
        ("v", "v", "v.1 v.2 v.1^-1", "v.2 v.2"),
        ("d", "v", "d.s", "v.1"),
        ("d", "v", "d.s^3", "v.1"),
        ("d", "v", "d.r^0", "v.1"),
        ("d", "v", "d.1", "v.1"),  # the intended difference: exit 3 -> exit 2
        ("d", "v", "d.r^2 d.1^3 v.1", "v.1"),  # the same, before a later bad letter
        ("d", "v", "d.r^-2", " v.r "),
    ],
)
def test_mutations_match_the_reference_parser(src, tgt, img_from, img_to):
    head = "vertex u free 1\nvertex v free 2\nvertex d dihedral\n"
    text = head + f'edge e from={src} to={tgt} img_from="{img_from}" img_to="{img_to}"\n'
    assert_matches_the_reference(text)


# u, v and w free of ranks 1-3 and d dihedral, joined by one-letter edges;
# the edge under test is a loop at v, or runs from d to v
FREE_WORD_HEAD = (
    "vertex u free 1\nvertex v free 2\nvertex w free 3\nvertex d dihedral\n"
    'edge a from=u to=v img_from="u.1" img_to="v.1"\n'
    'edge b from=d to=w img_from="d.r" img_to="w.3^2"\n'
    'edge c from=w to=v img_from="w.1" img_to="v.2"\n'
)


@pytest.mark.parametrize(
    "word",
    [
        # conjugated and other multi-letter words
        "v.2 v.1^3 v.2^-1",
        "v.2^-2 v.1^-5 v.2^2",
        "v.1 v.2^-1 v.1^5 v.2 v.1^-1",
        "v.1 v.2",
        f"v.2 v.1^{BIG} v.2^-1",
        "v.01 v.1^-1 v.2",
        "v.\u0661 v.2^\u0662",
        # tabs, padding and other whitespace inside the quotes
        "\tv.2\tv.1^3 v.2^-1 ",
        "  v.2  v.1^-2\t\tv.2^-1  ",
        "v.2\x0bv.1\x1cv.2^-1\x85",
        "\u2028v.2 v.1\f",
        # zero exponents, and letters that merge or cancel
        "v.2 v.1^0 v.2^-1",
        "v.1^-0 v.2",
        "v.2 v.2^-1",
        "v.1 v.2 v.2^-1 v.1^-1",
        "v.1^2 v.1^-1 v.2",
        "v.1^007 v.1^-7 v.2",
        "v.2 v.1^0 v.1^-0 v.2^-1 v.1",
        # a letter of another vertex, or of none
        "v.2 u.1 v.2^-1",
        "v.2 v.1 w.1",
        "v.2 zz.1",
        "V.1 v.2",
        # a generator beyond the rank, even one that cancels
        "v.2 v.3 v.2^-1",
        "v.3 v.3^-1 v.1",
        "v.0 v.1",
        "v.2 v.r",
        "v.2 v.s",
        # a stable letter
        "v.2 e.t v.2^-1",
        "v.1 x.t^0",
        # letters that are not separated, or not letters
        "v.1v.2",
        "v.1v.2 v.1",
        "v.1 v.2v.1",
        "v.1 v.1^",
        "v.1 v.1^x",
        "v.1 v.1^+1",
        "v.1 v.",
        "v.1 v.1.2",
        "v.1 #",
        "v.2 v.1^3 v.2^-1 x",
        "",
        " \t ",
    ],
)
@pytest.mark.parametrize("side", ["img_from", "img_to"])
def test_free_words_match_the_reference_parser(word, side):
    """A free multi-letter attachment reads to the reference's graph, or to
    its error object, on either side of a loop."""
    words = {"img_from": "v.1^2", "img_to": "v.1^3", side: word}
    text = FREE_WORD_HEAD + f'edge x from=v to=v img_from="{words["img_from"]}" img_to="{words["img_to"]}"\n'
    assert outcome(parse, text) == outcome(reference_parse, text)


@pytest.mark.parametrize(
    "word",
    ["d.r d.r", "d.r^2 d.r^-2", "d.s d.r^2", "d.r^2 d.s", "d.s d.s", " d.r\td.r ", "d.r v.1", "d.r e.t"],
)
def test_dihedral_multi_letter_words_match_the_reference_parser(word):
    text = FREE_WORD_HEAD + f'edge x from=d to=v img_from="{word}" img_to="v.1^3"\n'
    assert outcome(parse, text) == outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text",
    [
        "vertex v free 1\nvertex v free 2\n",
        "vertex v free 1\nvertex w free 1\n",
        BS32_TEXT + BS32_TEXT.splitlines()[-1] + "\n",
        BS32_TEXT.replace("to=v", "to=w"),
        TREFOIL_TEXT,
        F2_EXAMPLE_TEXT,
    ],
    ids=["duplicate-vertex", "disconnected", "duplicate-edge", "unknown-vertex", "trefoil", "f2"],
)
def test_names_match_the_reference_parser(text):
    assert_matches_the_reference(text)


# -- line splitting ------------------------------------------------------------------

LOOP = 'vertex v free 1\nedge e from=v to=v img_from="v.1^3" img_to="v.1^2"\n'


@pytest.mark.parametrize("mark", ["\x0b", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_a_line(mark):
    # a comment holding the mark stays one comment: no declaration 'x' on a
    # line 4 of a three-line file
    text = LOOP + f"# c{mark}x\n"
    assert parse(text) == parse(LOOP)
    # between two letters the mark separates them, as a space does
    word = 'img_from="v.1^3"'
    assert parse(LOOP.replace(word, f'img_from="v.1{mark}v.1"')) == parse(
        LOOP.replace(word, 'img_from="v.1 v.1"')
    )


def test_line_numbers_count_newlines_only():
    with pytest.raises(ParseError) as err:
        parse("vertex v free 1\f\nvertex broken\n")
    assert (err.value.line, err.value.error) == (2, "malformed vertex declaration")
    for newline in ("\r\n", "\r"):
        assert parse(LOOP.replace("\n", newline)) == parse(LOOP)
        with pytest.raises(ParseError) as err:
            parse(newline.join(["vertex v free 1", "", "vertex broken"]))
        assert err.value.line == 3


# -- plain and general lines --------------------------------------------------------

# A connected graph of each vertex kind, v1's name a prefix of v12's, each
# line given by its tokens; a quoted attachment is one token.
MIXED = [
    ["vertex", "v", "free", "2"],
    ["vertex", "d", "dihedral"],
    ["vertex", "v1", "free", "1"],
    ["vertex", "v12", "free", "1"],
    ["edge", "a", "from=v", "to=d", 'img_from="v.1"', 'img_to="d.r^2"'],
    ["edge", "b", "from=d", "to=v1", 'img_from="d.r"', 'img_to="v1.1^-3"'],
    ["edge", "c", "from=v1", "to=v12", 'img_from="v1.1^2"', 'img_to="v12.1^3"'],
    ["edge", "f", "from=v", "to=v", 'img_from="v.2 v.1^3 v.2^-1"', 'img_to="v.1^2"'],
]


def mixed_text(gap=" ", pad=("", ""), note="", newline="\n", general=lambda i: True) -> str:
    """MIXED with the tokens of each line i for which general(i) holds
    separated by gap, padded by pad and followed by note; the other lines
    are plain."""
    lines = [
        pad[0] + gap.join(tokens) + pad[1] + note if general(i) else " ".join(tokens)
        for i, tokens in enumerate(MIXED)
    ]
    return newline.join(lines) + newline


@pytest.mark.parametrize("gap", [" ", "\t", "  ", " \t ", "\f", "\x85"])
@pytest.mark.parametrize("pad", [("", ""), (" ", ""), ("", " "), ("\t", "\x85"), ("\f", "\t")])
def test_whitespace_around_tokens_reads_as_plain_lines(gap, pad):
    plain = parse(mixed_text())
    for general in (lambda i: True, lambda i: i % 2 == 0):
        text = mixed_text(gap, pad, general=general)
        assert parse(text) == plain
        assert_matches_the_reference(text)


@pytest.mark.parametrize("note", ["#", "# note", " # note", "\t#x", '#"quoted', '# "v.1" #'])
def test_a_comment_after_a_plain_line_reads_as_none(note):
    text = mixed_text(note=note)
    assert parse(text) == parse(mixed_text())
    assert_matches_the_reference(text)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_files_mixing_plain_and_general_lines(newline):
    for general in (lambda i: i % 2 == 0, lambda i: i % 2 == 1, lambda i: i > 3):
        text = mixed_text("\t", (" ", ""), " # note", newline, general)
        assert parse(text) == parse(mixed_text())
        assert_matches_the_reference(text)
    lf = mixed_text(general=lambda i: False).replace("\n", "\r\n", 3)
    assert parse(lf) == parse(mixed_text())


@pytest.mark.parametrize(
    "src, tgt, img_from, img_to",
    [
        ("v", "v", " v.1", "v.1"),
        ("v", "v", "v.1 ", "v.1\t"),
        ("v", "v", "v.01", "v.1^007"),
        ("v", "v", "v.1^-0", "v.1"),
        ("v", "v", "v.1^\u0661", "v.1^-\u0662\u0660"),
        ("v", "v", "v.\u0661", "v.2"),
        ("v", "v", "v.1^+1", "v.1"),
        ("v", "v", "v.1#", "v.1"),
        ("v", "v", "v.1.2", "v.1"),
        ("v", "v", "v.", "v.1"),
        ("v", "v", "", "v.1"),
        ("v1", "v12", "v1.1", "v12.1^2"),
        ("v1", "v12", "v12.1", "v12.1"),
        ("v1", "v12", "v1.1", "v1.1"),
        ("v12", "v1", "v1.1", "v1.1"),
        ("d", "v1", "d.1", "v1.1"),  # the intended difference
        ("d", "v1", "d.s", "v1.1"),
        ("d", "v1", "d.r^0", "v1.1"),
        ("d", "d", "d.r^-1", "d.r^1"),
        ("v1", "v1", "v1.r", "v1.1"),
    ],
)
def test_attachments_on_each_side_of_the_table_match_the_reference(src, tgt, img_from, img_to):
    edge = f'edge x from={src} to={tgt} img_from="{img_from}" img_to="{img_to}"'
    for line in (edge, edge.replace(" ", "\t", 1), edge + " # note"):
        assert_matches_the_reference(mixed_text() + line + "\n")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "vertex v free 1",
        "vertex v free 1\n\n\nedge e from=v to=v img_from=\"v.1^2\" img_to=\"v.1^3\"",
        "vertex v free 1\nvertex v free 2",
        "vertex v free 1\n\nvertex\tv free 2\n",
        "vertex v free 1\n\nvertex v free 1 #\n",
        "vertex v  free 1\n\nvertex v free 1\n",
        "vertex v free 1\nedge e from=v to=v img_from=\"v.1\" img_to=\"v.1\"\n" * 2,
        "vertex v free 1\nedge e from=v to=w img_from=\"v.1\" img_to=\"v.1\"\n",
        "vertex v free 1\nvertex w free 0x1\n",
        "vertex v free \u0661\n",
        "vertex v dihedral\nvertex\n",
        "vertex v \n",
        "vertex v free\n",
        "vertex v free 1 2\n",
        "vertex v dihedral x\n",
        "vertex v free 1x\n",
        "vertex v free 1\nedge e from=v to=v img_from=\"v.1\" img_to=\"v.1\" x\n",
        "vertex v free 1\nedge e from=v to=v img_from=\"v.1\" img_to=\"v.1\"\"\n",
        "vertex v free 1\nedge e from=v to=v img_from=\"v.1\" img_to=\"v.1\" \"v.1\"\n",
        "vertex v free 1\nedge e from=v to=v img_from=\"v.1\" \"v.1\" img_to=\"v.1\"\n",
        "vertex v free 1\nedge e from=v to=v img_from=\"v.1\" img_to=\"v.1\" \"v.1\"\"\n",
        "vertex v free 1\nedges e\n",
        "vertex v free 1\nedge e from=v to=v img_from=\"v.1\" img_to=\"v.1\n",
    ],
)
def test_line_numbers_and_errors_on_each_side_match_the_reference(text):
    assert_matches_the_reference(text)


def rank2_dihedral_cycle(n: int) -> str:
    """An n-cycle of rank-2, dihedral and rank-1 vertices in turn, each
    rank-2 attachment a generator or a conjugate of one; every seventh line
    has tabs and a comment."""
    kinds = ["free 2", "dihedral", "free 1"]
    lines = [f"vertex w{i} {kinds[i % 3]}" for i in range(n)]

    def word(i: int, k: int) -> str:
        v = f"w{i}"
        if i % 3 == 1:
            return f"{v}.r^{k}"
        if i % 3 == 0 and k % 2 == 0:
            return f"{v}.2 {v}.1^{k} {v}.2^-1"
        return f"{v}.1^{k}"

    for i in range(n):
        j = (i + 1) % n
        lines.append(f'edge e{i} from=w{i} to=w{j} img_from="{word(i, 2 + i % 5)}" img_to="{word(j, -1 - i % 4)}"')
    return "\n".join(line.replace(" ", "\t") + " # note" if i % 7 == 0 else line for i, line in enumerate(lines)) + "\n"


@pytest.mark.parametrize(
    "make", [balanced_cycle, multi_letter_cycle, rank2_dihedral_cycle], ids=lambda f: f.__name__
)
def test_large_generated_graphs_match_the_reference(make):
    text = make(2400)
    graph = parse(text)
    assert graph == reference_parse(text) and len(graph.edges) == 2400


@pytest.mark.parametrize(
    "line",
    [
        "{gap}x",
        "vertex{gap}x",
        "vertex v{gap}free 1{gap}x",
        'edge e from=v to=v img_from="v.1"{gap}img_to="v.1"{gap}x',
        'edge e{gap}from=v{gap}x',
        "{gap}# {gap}",
    ],
)
def test_long_runs_of_whitespace_are_read_in_linear_time(line):
    """A run of 40,000 blanks in each place of a form is read in well
    under half a second, as the reference reads it: about 5 ms in all on
    Python 3.11, x86-64, where a pattern that backtracks over the run once
    per blank takes seconds."""
    text = "vertex v free 1\n" + line.format(gap=" \t" * 20_000) + "\n"
    start = time.perf_counter()
    assert_matches_the_reference(text)
    assert time.perf_counter() - start < 0.5
