"""Byte-for-byte replay of the golden CLI corpus (see record_golden.py)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import record_golden
from conftest import check_cycle_contract
from gogh.balance import Unbalanced, build_groupoid
from gogh.cli import parse, render_json, run
from gogh.model import GoghError

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"
CASES = sorted(GOLDEN.glob("*.json"))


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _graph_file(tmp_path, case: Path, text: str) -> str:
    path = tmp_path / f"{case.stem}.gog"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_corpus_present():
    names = {p.stem for p in CASES}
    assert len(names) > 200
    assert {"fixture_trefoil", "fixture_bs32", "malformed_empty", "bs_-6_6"} <= names


def test_recorder_reproduces_corpus_inputs():
    """The recorder, run today, would write the same graphs and the same
    argument lists as the corpus holds, so changes to what it calls can be
    checked without re-recording."""
    recorded = {case.stem: _load(case) for case in CASES}
    produced = dict(record_golden.inputs())
    assert {k: v["text"] for k, v in recorded.items()} == produced
    for name, text in produced.items():
        argv = [args for args, _, _ in recorded[name]["runs"]]
        assert argv == record_golden.commands(name, text), name


def test_golden_replay(tmp_path):
    mismatches = []
    for case in CASES:
        data = _load(case)
        path = _graph_file(tmp_path, case, data["text"])
        for args, code, stdout in data["runs"]:
            got_code, payload = run([args[0], path] + args[1:])
            got = render_json(payload)
            if (got_code, got) != (code, stdout):
                mismatches.append((case.stem, args, code, stdout, got_code, got))
    assert not mismatches, mismatches[:3]


def test_golden_unbalanced_cycles_keep_the_contract():
    """Every unbalanced class of every golden graph reports a simple cycle
    that holds the edge it names, with the product of its arc weights as
    modulus; the graph's verdict names that edge."""
    seen = 0
    for case in CASES:
        data = _load(case)
        try:
            graph = parse(data["text"])
        except GoghError:
            continue
        groupoid = build_groupoid(graph)
        for cls in groupoid.classes:
            if isinstance(cls.verdict, Unbalanced):
                check_cycle_contract(cls.verdict)
                seen += 1
        for args, _, stdout in data["runs"]:
            if args == ["verdict"] and isinstance(groupoid.verdict, Unbalanced):
                assert json.loads(stdout)["edge"] == groupoid.verdict.edge
    assert seen >= 150, seen


@pytest.mark.parametrize(
    "stem", ["fixture_trefoil", "fixture_bs32", "fixture_f2_example", "malformed_bad_vertex_decl"]
)
def test_golden_replay_optimized_interpreter(tmp_path, stem):
    """Under `python -O` every assert is gone; the verdicts and certificates
    must still come out checked and identical."""
    case = GOLDEN / f"{stem}.json"
    data = _load(case)
    path = _graph_file(tmp_path, case, data["text"])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for args, code, stdout in data["runs"]:
        if args[0] not in ("parametrize", "verdict", "witness", "balance", "distortion", "reduce"):
            continue
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "gogh.cli", args[0], path] + args[1:],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert (proc.returncode, proc.stdout) == (code, stdout + "\n"), (args, proc.stderr)
