import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BS32_TEXT,
    DIHEDRAL_LOOP_TEXT,
    F2_EXAMPLE_TEXT,
    KLEIN_TEXT,
    TREFOIL_TEXT,
    lollipop,
    random_graph,
)
import gogh.cli
import record_golden
from gogh.cli import (
    _CODE_RE,
    ParseError,
    _num,
    _ratio,
    main,
    parse,
    parse_word,
    render_json,
    run,
    serialize,
)
from gogh.model import ValidationError
from gogh.parametrize import HHG, hhg_verdict, parametrize


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- parsing ---------------------------------------------------------------------


def test_round_trip_on_fixtures():
    for text in (BS32_TEXT, TREFOIL_TEXT, F2_EXAMPLE_TEXT, KLEIN_TEXT, DIHEDRAL_LOOP_TEXT):
        g = parse(text)
        assert parse(serialize(g)) == g


def test_round_trip_on_random_graphs():
    rng = random.Random(127)
    for _ in range(30):
        g = random_graph(rng)
        assert parse(serialize(g)) == g


def test_comments_and_blank_lines():
    g = parse("# a loop\n\nvertex v free 1  # rank one\nedge e from=v to=v "
              'img_from="v.1^3" img_to="v.1^2"\n')
    assert g.edge_ids() == ("e",)


def test_comment_starts_at_first_hash_outside_quotes():
    head = "vertex v free 1\nedge e from=v to=v "
    with pytest.raises(ParseError, match="bad letter '#'"):
        parse(head + 'img_from="v.1 # x" img_to="v.1^2"\n')
    g = parse(head + 'img_from="v.1^3" img_to="v.1^2" # the "BS(2, 3)" loop\n')
    assert g.edge_ids() == ("e",)
    unterminated = head + 'img_from="v.1^3 # x'
    assert _CODE_RE.match(unterminated).group() == unterminated


# one regex step per character: the reference for the unrolled _CODE_RE
_CODE_RE_REFERENCE = re.compile(r'(?:[^"#]|"[^"]*"?)*')


@settings(max_examples=1000)
@given(st.text(alphabet='ab "#\t.', max_size=40))
def test_code_pattern_matches_the_reference_prefix(text):
    assert _CODE_RE.match(text).group() == _CODE_RE_REFERENCE.match(text).group()


def test_letter_syntax():
    g = parse('vertex v free 1\nvertex d dihedral\nedge e from=d to=v img_from="d.r^2" img_to="v.1^-3"\n')
    assert parse_word(g, "v.1") == [("g", "v", 1, 1)]
    assert parse_word(g, "v.1^-3") == [("g", "v", 1, -3)]
    assert parse_word(g, "d.r^2") == [("g", "d", "r", 2)]
    assert parse_word(g, "d.s") == [("g", "d", "s", 1)]
    assert parse_word(g, "e.t^-1") == [("t", "e", -1)]
    with pytest.raises(ParseError) as err:
        parse_word(g, "v.1 v.")
    assert (err.value.error, err.value.line, err.value.column) == ("bad letter 'v.'", 0, 5)


def test_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse("vertex v free 1\nvertex broken\n")
    assert err.value.line == 2


def test_unknown_vertex_in_edge():
    with pytest.raises(ParseError):
        parse('vertex v free 1\nedge e from=v to=w img_from="v.1" img_to="w.1"\n')


def test_attachment_letter_must_match_vertex():
    with pytest.raises(ParseError):
        parse(
            "vertex u free 1\nvertex v free 1\n"
            'edge e from=u to=v img_from="v.1" img_to="v.1"\n'
        )


@pytest.mark.parametrize(
    "word, column, error",
    [
        ("v.1 v.1 zz.1", 9, "unknown vertex 'zz' in word"),
        ("v.1 e.t v.7", 9, "unknown generator in 'v.7'"),
    ],
    ids=["unknown-vertex", "unknown-generator"],
)
def test_word_errors_report_the_letter_column(tmp_path, word, column, error):
    code, out = run(["reduce", write(tmp_path, "bs32.gog", BS32_TEXT), "--word", word])
    assert (code, out) == (2, {"column": column, "error": error, "line": 0})


@pytest.mark.parametrize(
    "vertices, img_from, column, error",
    [
        ("vertex u free 1\nvertex v free 1\n", "u.1 v.1", 5,
         "attachment letter 'v.1' does not live in vertex 'u'"),
        ("vertex u free 1\n", "u.1 e.t", 5, "stable letter 'e.t' inside attachment word"),
        ("vertex u free 1\n", "u.1^2 u.1^", 7, "bad letter 'u.1^'"),
        ("vertex u dihedral\n", "u.r^2 u.1", 7, "unknown generator in 'u.1'"),
    ],
    ids=["wrong-vertex", "stable-letter", "bad-letter-after-its-prefix", "free-generator-in-dihedral"],
)
def test_attachment_errors_report_the_letter_column(tmp_path, vertices, img_from, column, error):
    text = vertices + f'edge e from=u to=u img_from="{img_from}" img_to="u.1"\n'
    code, out = run(["check", write(tmp_path, "g.gog", text)])
    line = vertices.count("\n") + 1
    assert (code, out) == (2, {"column": column, "error": error, "line": line})


def test_empty_file_rejected():
    with pytest.raises(ValidationError) as err:
        parse("")
    assert err.value.code == "DisconnectedGraph"


def test_finite_order_attachment_rejected():
    with pytest.raises(ValidationError) as err:
        parse('vertex d dihedral\nedge e from=d to=d img_from="d.r" img_to="d.s"\n')
    assert err.value.code == "FiniteOrderAttachment"


# -- commands --------------------------------------------------------------------


def test_check_command(tmp_path):
    code, out = run(["check", write(tmp_path, "g.gog", TREFOIL_TEXT)])
    assert code == 0
    assert out == {"ok": True, "vertices": 2, "edges": 1}


def test_reduce_command(tmp_path):
    path = write(tmp_path, "bs32.gog", BS32_TEXT)
    code, out = run(["reduce", path, "--word", "e.t v.1^2 e.t^-1 v.1^-3"])
    assert code == 0
    assert out == {"input": "e.t v.1^2 e.t^-1 v.1^-3", "reduced": "", "trivial": True}
    code, out = run(["reduce", path, "--word", "e.t v.1 e.t^-1"])
    assert out["trivial"] is False
    assert out["reduced"] == "e.t v.1 e.t^-1"


def test_balance_command(tmp_path):
    code, out = run(["balance", write(tmp_path, "bs32.gog", BS32_TEXT)])
    assert code == 0
    (edge,) = out["edges"]
    assert edge["id"] == "e"
    assert edge["verdict"] == "Unbalanced"
    assert edge["modulus"] == edge["cycle"][0]["weight"]


@pytest.mark.parametrize("length", [10, 100, 1000])
def test_lollipop_reports_the_triangle(tmp_path, length):
    """A path of balanced edges ending in an unbalanced triangle: the
    reported cycle is the triangle, whichever edge is asked about, and the
    verdict names a triangle edge.  With conjugated images along the path,
    the witness conjugator carries none of them."""
    for conjugated in (False, True):
        path = write(tmp_path, "lollipop.gog", lollipop(length, path_conjugated=conjugated))
        _, out = run(["balance", path, "--edge", "q1"])
        (edge,) = out["edges"]
        assert len(edge["cycle"]) == 3
        assert {arc["via"].split(".")[0] for arc in edge["cycle"]} == {"q1", "q2", "q3"}
        _, out = run(["verdict", path])
        assert out["edge"] in {"q1", "q2", "q3"}
        assert len(out["witness"]["s"].split()) == 1


def test_verdict_matches_balance(tmp_path):
    rng = random.Random(131)
    for i in range(20):
        g = random_graph(rng)
        path = write(tmp_path, f"g{i}.gog", serialize(g))
        _, bal = run(["balance", path])
        _, ver = run(["verdict", path])
        all_balanced = all(e["verdict"] == "Balanced" for e in bal["edges"])
        assert (ver["status"] == "HHG") == all_balanced
        assert ver["verified"] is True


def test_verdict_bs32_shape(tmp_path):
    _, out = run(["verdict", write(tmp_path, "bs32.gog", BS32_TEXT)])
    assert out["status"] == "NotHHG"
    w = out["witness"]
    assert (w["a"], w["s"], w["i"], w["j"]) == ("v.1", "e.t", 2, 3)
    assert w["transcript"] == ""


def test_verdict_trefoil_certificate(tmp_path):
    _, out = run(["verdict", write(tmp_path, "t.gog", TREFOIL_TEXT)])
    assert out == {
        "status": "HHG",
        "certificates": [{"class": 0, "phi": {"u.1": [0, 3], "v.1": [0, 2]}}],
        "verified": True,
    }


def test_parametrize_command(tmp_path):
    _, out = run(["parametrize", write(tmp_path, "t.gog", TREFOIL_TEXT)])
    assert out["status"] == "HHG"
    assert out["certificates"][0]["phi"] == {"u.1": [0, 3], "v.1": [0, 2]}
    code, out = run(["parametrize", write(tmp_path, "f.gog", F2_EXAMPLE_TEXT)])
    assert code == 2  # rank-two vertex is not 2-ended


@pytest.mark.parametrize(
    "decl, code, stdout",
    [
        (
            "vertex v free 1",
            0,
            '{"certificates":[{"class":0,"phi":{"v.1":[0,1]}}],"status":"HHG","verified":true}',
        ),
        (
            "vertex d dihedral",
            0,
            '{"certificates":[{"class":0,"phi":{"d.r":[0,1],"d.s":[1,0]}}],"status":"HHG","verified":true}',
        ),
        ("vertex v free 2", 2, '{"column":0,"error":"vertex v is free of rank 2","line":0}'),
    ],
)
def test_parametrize_on_a_lone_vertex(tmp_path, decl, code, stdout):
    """No edge, no edge class: the lone vertex still gets its certificate."""
    got_code, payload = run(["parametrize", write(tmp_path, "v.gog", decl + "\n")])
    assert (got_code, render_json(payload)) == (code, stdout)


def test_parametrize_is_verdict_on_two_ended_graphs(tmp_path):
    """On a graph of 2-ended groups with an edge, the parametrize command
    prints verdict's object without "edge", and the library parametrization
    is the verdict's one certificate, or its unbalanced cycle."""
    rng = random.Random(107)
    statuses = []
    for i in range(120):
        g = random_graph(rng, rank2_prob=0.0)
        if not g.edges:
            continue
        path = write(tmp_path, f"g{i}.gog", serialize(g))
        code_p, out_p = run(["parametrize", path])
        code_v, out_v = run(["verdict", path])
        out_v.pop("edge", None)
        assert (code_p, render_json(out_p)) == (code_v, render_json(out_v))
        verdict = hhg_verdict(g)
        if isinstance(verdict, HHG):
            (cert,) = verdict.certificates
            assert parametrize(g) == cert.phi
        else:
            assert parametrize(g) == verdict.verdict
        statuses.append(verdict.status)
    assert statuses.count("HHG") >= 20 and statuses.count("NotHHG") >= 20


def test_conjgraph_command(tmp_path):
    emit = tmp_path / "derived.gog"
    _, out = run(
        ["conjgraph", write(tmp_path, "f.gog", F2_EXAMPLE_TEXT), "--class-of", "e", "--emit", str(emit)]
    )
    assert out["class"] == 0
    derived = parse(emit.read_text())
    assert out["text"] == serialize(derived)
    assert len(derived.vertices) == 1


def test_witness_and_distortion_commands(tmp_path):
    path = write(tmp_path, "bs32.gog", BS32_TEXT)
    _, out = run(["witness", path])
    assert (out["i"], out["j"], out["edge"]) == (2, 3, "e")
    _, out = run(["distortion", path, "--depth", "4"])
    assert [row["k"] for row in out["table"]] == [1, 2, 3, 4]
    assert out["table"][3]["exponent"] == 81
    _, out = run(["witness", write(tmp_path, "t.gog", TREFOIL_TEXT)])
    assert out == {"status": "Balanced"}


def test_distortion_depth_below_one_rejected(tmp_path):
    for text in (BS32_TEXT, TREFOIL_TEXT):
        path = write(tmp_path, "g.gog", text)
        for depth in ("0", "-2"):
            code, out = run(["distortion", path, "--depth", depth])
            assert code == 2
            assert set(out) == {"error", "line", "column"}
            assert "--depth" in out["error"]


@pytest.mark.parametrize("text", [BS32_TEXT, TREFOIL_TEXT, F2_EXAMPLE_TEXT])
def test_each_command_builds_the_groupoid_once(tmp_path, monkeypatch, text):
    """Graph, edge and class verdicts are read off one groupoid pass: each
    command that needs one builds it exactly once, and check and reduce
    build none.  parametrize on the rank-2 F2 example stops with exit 2
    before any pass."""
    import gogh.balance
    import gogh.certify
    import gogh.conjgraph
    import gogh.parametrize

    real = gogh.balance.build_groupoid
    calls = []

    def counted(graph):
        calls.append(graph)
        return real(graph)

    # every module that imported the name holds its own reference
    for name, module in list(sys.modules.items()):
        if name.startswith("gogh") and getattr(module, "build_groupoid", None) is real:
            monkeypatch.setattr(module, "build_groupoid", counted)
    path = write(tmp_path, "g.gog", text)
    two_ended = text != F2_EXAMPLE_TEXT
    for argv, code, builds in (
        (["check", path], 0, 0),
        (["reduce", path, "--word", "e.t e.t^-1"], 0, 0),
        (["balance", path], 0, 1),
        (["balance", path, "--edge", "e"], 0, 1),
        (["conjgraph", path, "--class-of", "e"], 0, 1),
        (["parametrize", path], 0 if two_ended else 2, 1 if two_ended else 0),
        (["verdict", path], 0, 1),
        (["witness", path], 0, 1),
        (["distortion", path, "--depth", "3"], 0, 1),
    ):
        calls.clear()
        assert run(argv)[0] == code, argv
        assert len(calls) == builds, argv


def test_malformed_input_exit_code(tmp_path):
    code, out = run(["check", write(tmp_path, "bad.gog", "vertex broken\n")])
    assert code == 2
    assert set(out) == {"error", "line", "column"}
    assert out["line"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["distortion", "{path}", "--depth", "x"],
        ["frobnicate", "{path}"],
        ["reduce", "{path}"],
        [],
    ],
)
def test_command_line_errors_print_the_error_object(tmp_path, capsys, argv):
    path = write(tmp_path, "bs32.gog", BS32_TEXT)
    code = main([arg.replace("{path}", path) for arg in argv])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 2
    assert set(out) == {"error", "line", "column"}
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["--help"], ["verdict", "--help"], ["distortion", "-h"]])
def test_help_prints_the_usage_object(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 0
    assert set(out) == {"usage"} and out["usage"].startswith("usage: gogh")
    assert captured.err == ""


def test_help_is_the_same_bytes_at_any_terminal_width(capsys, monkeypatch):
    """argparse would wrap to $COLUMNS and reflow the module docstring."""
    usage = {}
    for argv in (("--help",), ("verdict", "--help")):
        outputs = set()
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(list(argv)) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1
        usage[argv] = json.loads(outputs.pop())["usage"]
    assert "vertex NAME free INT" in [line.strip() for line in usage[("--help",)].splitlines()]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--help"], "fa9716063f3be84a5f18f0ca119c0911367ae37c439dfab2110ee7ea949b64fe"),
        (["verdict", "--help"], "df3345f0f4fadbbee626913b24f90b2fc2992a877429972bde95a174a9414077"),
    ],
    ids=["help", "verdict-help"],
)
def test_help_prints_the_pinned_usage_object(capsys, argv, digest):
    """The printed usage object, pinned by its sha256: it holds
    gogh.cli.USAGE and the commands' arguments, the same bytes whatever the
    module docstring says."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out
    assert gogh.cli.USAGE != gogh.cli.__doc__


def test_closed_stdout_exits_quietly(tmp_path):
    path = write(tmp_path, "t.gog", TREFOIL_TEXT)
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader exists before the child writes
    try:
        child = subprocess.run(
            [sys.executable, "-m", "gogh.cli", "verdict", path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in child.stderr
    assert child.stderr == b""
    assert child.returncode == 0


def test_unwritable_emit_and_undecodable_input_exit_2(tmp_path):
    path = write(tmp_path, "f.gog", F2_EXAMPLE_TEXT)
    missing = str(tmp_path / "missing" / "x.gog")
    code, out = run(["conjgraph", path, "--class-of", "e", "--emit", missing])
    assert code == 2
    assert set(out) == {"error", "line", "column"} and "x.gog" in out["error"]
    binary = tmp_path / "binary.gog"
    binary.write_bytes(b"vertex v free 1 \xff\n")
    code, out = run(["check", str(binary)])
    assert code == 2
    assert set(out) == {"error", "line", "column"}


def test_internal_error_exit_3(tmp_path, monkeypatch, capsys):
    def broken(graph, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(gogh.cli, "_cmd_check", broken)
    code, out = run(["check", write(tmp_path, "t.gog", TREFOIL_TEXT)])
    assert (code, out) == (3, {"error": "internal: RuntimeError: boom", "line": 0, "column": 0})
    assert "RuntimeError: boom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, replacement, argv, text, message",
    [
        (
            "gogh.balance.Fraction",
            lambda *args: Fraction(1),
            ["verdict"],
            BS32_TEXT,
            "cycle through arc e is balanced",
        ),
        (
            "gogh.parametrize.verify_parametrization",
            lambda graph, phi: (False, ["forced"]),
            ["verdict"],
            TREFOIL_TEXT,
            "certificate failed verification: ['forced']",
        ),
        (
            "gogh.certify.witness_holds",
            lambda graph, witness, cycle, occurrences: (False, ["forced"]),
            ["witness"],
            BS32_TEXT,
            "witness failed verification: ['forced']",
        ),
        (
            "gogh.certify.is_trivial",
            lambda graph, path: False,
            ["distortion", "--depth", "1"],
            BS32_TEXT,
            "distortion identity failed at depth 1",
        ),
    ],
    ids=["balance", "parametrize", "witness", "distortion"],
)
def test_failed_self_check_exits_3(tmp_path, monkeypatch, capsys, target, replacement, argv, text, message):
    """A producer whose own result fails its check is an internal error, not
    bad input: exit 3 and one JSON error object on stdout."""
    monkeypatch.setattr(target, replacement)
    code = main([argv[0], write(tmp_path, "g.gog", text), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 3
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": f"internal: RuntimeError: {message}", "line": 0, "column": 0}
    assert message in err


# -- the collector pause -------------------------------------------------------------


def _cycle_text(n, last_exponent=2):
    """An n-vertex cycle of rank-1 vertices, balanced unless last_exponent != 2."""
    lines = [f"vertex v{i:03d} free 1" for i in range(n)]
    for i in range(n):
        j = (i + 1) % n
        k = last_exponent if i == n - 1 else 2
        lines.append(
            f'edge e{i:03d} from=v{i:03d} to=v{j:03d} '
            f'img_from="v{i:03d}.1^2" img_to="v{j:03d}.1^{k}"'
        )
    return "\n".join(lines) + "\n"


def _runs_on_every_path(tmp_path, tag, text, vertex, edge):
    """(argv, exit code) of the eight commands, a bad file and a help request."""
    path = write(tmp_path, f"{tag}.gog", text)
    bad = write(tmp_path, f"{tag}-bad.gog", text + "bogus\n")
    commands = [
        ["check", path],
        ["reduce", path, "--word", f"{vertex}.1^2"],
        ["balance", path],
        ["conjgraph", path, "--class-of", edge],
        ["parametrize", path],
        ["verdict", path],
        ["witness", path],
        ["distortion", path, "--depth", "2"],
    ]
    return [(argv, 0) for argv in commands] + [
        (["verdict", bad], 2),
        (["verdict", path, "--help"], 0),
    ]


def _cyclic_garbage(argv):
    """(exit code, objects the collector finds after one run), with the
    collector off throughout so that no automatic collection runs between."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        code, _ = run(argv)
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_cyclic_garbage_of_a_run_does_not_grow_with_the_input(tmp_path):
    """The premise of pausing the collector during a run: what only the
    collector can free is a fixed-size structure (the argparse tree), the
    same for two vertices as for four hundred, on every path out of run,
    and the same for a one-pinch word as for a two-hundred-pinch one."""
    pairs = [
        ((TREFOIL_TEXT, "u", "e"), (_cycle_text(400), "v000", "e000")),
        ((BS32_TEXT, "v", "e"), (_cycle_text(400, last_exponent=3), "v000", "e000")),
    ]
    for n, (small, large) in enumerate(pairs):
        for (small_argv, code), (large_argv, _) in zip(
            _runs_on_every_path(tmp_path, f"small{n}", *small),
            _runs_on_every_path(tmp_path, f"large{n}", *large),
        ):
            want = _cyclic_garbage(small_argv)
            assert want[0] == code and want[1] > 0, small_argv
            assert _cyclic_garbage(large_argv) == want, large_argv
    # the same for traffic that grows with the word rather than the graph:
    # Britton reduction through 200 pinches, a word stuck after one pinch,
    # an 800-letter word, and a deeper distortion table
    bs = write(tmp_path, "bs.gog", BS32_TEXT)
    want = _cyclic_garbage(["reduce", bs, "--word", "e.t v.1^2 e.t^-1"])
    assert want[0] == 0 and want[1] > 0
    for argv in (
        ["reduce", bs, "--word", f"e.t^200 v.1^{2 ** 200} e.t^-200"],
        ["reduce", bs, "--word", "e.t^200 v.1^2 e.t^-200"],
        ["reduce", bs, "--word", " ".join(["e.t v.1 e.t^-1 v.1^-1"] * 200)],
        ["distortion", bs, "--depth", "40"],
    ):
        assert _cyclic_garbage(argv) == want, argv


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state(tmp_path, monkeypatch, capsys, enabled):
    path = write(tmp_path, "t.gog", TREFOIL_TEXT)
    bad = write(tmp_path, "bad.gog", "vertex broken\n")

    def broken(graph, args):
        raise RuntimeError("boom")

    was = gc.isenabled()
    try:
        for argv, code in (
            (["verdict", path], 0),
            (["check", bad], 2),
            (["--help"], 0),
            (["check", path], 3),
        ):
            if code == 3:
                monkeypatch.setattr(gogh.cli, "_cmd_check", broken)
            gc.enable() if enabled else gc.disable()
            assert run(argv)[0] == code
            assert gc.isenabled() is enabled, argv
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()


# -- JSON rendering -----------------------------------------------------------------


def test_json_deterministic(tmp_path):
    path = write(tmp_path, "f.gog", F2_EXAMPLE_TEXT)
    first = render_json(run(["verdict", path])[1])
    second = render_json(run(["verdict", path])[1])
    assert first == second
    assert json.loads(first)  # well-formed


def test_big_integers_render_as_strings(tmp_path):
    path = write(tmp_path, "bs32.gog", BS32_TEXT)
    _, out = run(["distortion", path, "--depth", "40"])
    text = render_json(out)
    data = json.loads(text)
    last = data["table"][-1]
    assert isinstance(last["exponent"], str)
    assert int(last["exponent"]) == 3**40
    small = data["table"][0]
    assert isinstance(small["exponent"], int)


# Beyond the interpreter's default 4300-digit limit on int <-> str; the test
# writes its numerals with Decimal so it never relies on that limit either.
HUGE = 7 * 10**4400 + 3


def _digits(n: int) -> str:
    return str(Decimal(n))


def _bs_text(m: int, n: int) -> str:
    return (
        "vertex v free 1\n"
        f'edge e from=v to=v img_from="v.1^{_digits(m)}" img_to="v.1^{_digits(n)}"\n'
    )


def test_huge_exponents_balanced(tmp_path):
    for m, n in ((HUGE, HUGE), (HUGE, -HUGE)):
        code, out = run(["verdict", write(tmp_path, "g.gog", _bs_text(m, n))])
        assert code == 0
        assert out["status"] == "HHG"


def test_huge_exponents_unbalanced(tmp_path):
    m, n = 6 * HUGE, 4 * HUGE + 2
    code, out = run(["verdict", write(tmp_path, "g.gog", _bs_text(m, n))])
    assert code == 0
    assert out["status"] == "NotHHG"
    text = render_json(out)
    w = json.loads(text)["witness"]
    g = gcd(m, n)
    assert {abs(int(Decimal(w["i"]))), abs(int(Decimal(w["j"])))} == {m // g, n // g}


def test_huge_exponent_word_echoed(tmp_path):
    word = f"v.1^{_digits(HUGE)}"
    code, out = run(["reduce", write(tmp_path, "bs32.gog", BS32_TEXT), "--word", word])
    assert code == 0
    assert json.loads(render_json(out))["reduced"] == word


# -- JSON-ready payloads ------------------------------------------------------------

# magnitudes at and past the 2^53 boundary, named for the test ids (pytest
# would write out HUGE); signed fields take both signs
_BOUNDARY = {"2^53": 2**53, "2^53+1": 2**53 + 1, "huge": HUGE}
_SIGNED = {**_BOUNDARY, **{f"-{name}": -n for name, n in _BOUNDARY.items()}}


def _params(values: dict) -> list:
    return [pytest.param(n, id=name) for name, n in values.items()]


def _rendered(n: int):
    """A domain integer as the JSON holds it: a number up to 2^53 in
    absolute value, its decimal numeral beyond."""
    return n if abs(n) <= 2**53 else _digits(n)


def _fraction_rendered(q: Fraction) -> str:
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def _two_vertex_text(m: int, n: int) -> str:
    return (
        "vertex u free 1\nvertex v free 1\n"
        f'edge e from=u to=v img_from="u.1^{_digits(m)}" img_to="v.1^{_digits(n)}"\n'
    )


def _payload(tmp_path, text: str, command: str, *options: str) -> dict:
    code, out = run([command, write(tmp_path, "g.gog", text), *options])
    assert code == 0, out
    return json.loads(render_json(out))


@pytest.mark.parametrize("n", [0, 1, 2**53 - 1] + _params(_BOUNDARY))
def test_num_wraps_past_two_to_the_53(n):
    assert _num(n) == _rendered(n)
    assert _num(-n) == _rendered(-n)


@pytest.mark.parametrize(
    "q",
    [
        Fraction(3),
        Fraction(-5, 3),
        Fraction(2**53 + 1, 2**53),
        pytest.param(Fraction(-HUGE, 7), id="huge"),
    ],
)
def test_ratio_is_the_reduced_fraction_in_decimal(q):
    assert _ratio(q) == _fraction_rendered(q)


@pytest.mark.parametrize("x", _params(_SIGNED))
def test_signed_fields_render_at_the_boundary(tmp_path, x):
    # BS(x, 7): modulus x/7, so i = 7 and j = x, and |j| > |i| keeps the
    # distortion table unswapped
    assert gcd(x, 7) == 1
    want = _rendered(x)
    w = _payload(tmp_path, _bs_text(x, 7), "witness")
    assert (w["i"], w["j"]) == (7, want)
    (edge,) = _payload(tmp_path, _bs_text(x, 7), "balance")["edges"]
    assert edge["modulus"] == edge["cycle"][0]["weight"] == _fraction_rendered(Fraction(x, 7))
    (row,) = _payload(tmp_path, _bs_text(x, 7), "distortion", "--depth", "1")["table"]
    assert row["exponent"] == want
    assert row["ratio"] == _fraction_rendered(Fraction(2 + 7, abs(x)))
    for command in ("parametrize", "verdict"):
        (cert,) = _payload(tmp_path, _two_vertex_text(x, 7), command)["certificates"]
        assert cert["phi"] == {"u.1": [0, 7], "v.1": [0, want]}


@pytest.mark.parametrize("bound", _params(_BOUNDARY))
def test_unsigned_fields_render_at_the_boundary(tmp_path, bound):
    # i is the modulus's denominator, never negative
    for sign in (1, -1):
        w = _payload(tmp_path, _bs_text(7, sign * bound), "witness")
        assert (w["i"], w["j"]) == (_rendered(bound), 7 * sign)
    # BS(bound - 1, n) with |n| = bound - 2 at depth 1: i = |n|, j = (bound - 1) sign(n),
    # and length_bound = 2 len(s) + |i| len(a) = bound
    for sign in (1, -1):
        text = _bs_text(bound - 1, sign * (bound - 2))
        (row,) = _payload(tmp_path, text, "distortion", "--depth", "1")["table"]
        assert row["exponent"] == _rendered(sign * (bound - 1))
        assert row["length_bound"] == _rendered(bound)
        assert row["ratio"] == _fraction_rendered(Fraction(bound, bound - 1))


def _ints(value):
    """Every int in a payload, bools aside."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _ints(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _ints(v)
    elif isinstance(value, int) and not isinstance(value, bool):
        yield value


def test_every_payload_is_json_native(tmp_path):
    """Each payload of the golden corpus and of the boundary inputs is
    JSON as built: json.dumps needs no default, and no int in it passes
    2^53, so a command that leaves a domain number unwrapped fails here."""
    runs = []
    for case in sorted((Path(__file__).parent / "golden").glob("*.json")):
        data = json.loads(case.read_text(encoding="utf-8"))
        runs.append((data["text"], [args for args, _, _ in data["runs"]]))
    for x in _SIGNED.values():
        for text in (_bs_text(x, 7), _bs_text(7, x), _two_vertex_text(x, 7)):
            runs.append((text, record_golden.commands("boundary", text)))
    assert len(runs) > 200
    for text, argvs in runs:
        path = write(tmp_path, "g.gog", text)
        for args in argvs:
            _, payload = run([args[0], path] + args[1:])
            json.dumps(payload)
            assert all(abs(n) <= 2**53 for n in _ints(payload)), (text, args)
