#!/usr/bin/env python3
"""Record the golden CLI corpus replayed by tests/test_golden.py.

    PYTHONPATH=src python tests/record_golden.py

Writes one JSON file per input graph to tests/golden/: the graph text and,
for every command run on it, the argument list (without the file path),
the exit code and the exact stdout line of `gogh`.  Inputs are the
conftest fixtures, BS(m, n) for 0 < |m|, |n| <= 6, seeded random graphs
(rank-two vertices included) and malformed texts.  A command that raises
out of `gogh.cli.run` is left out of the corpus.

Re-record only when an output change is intended, and review the diff.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from conftest import (  # noqa: E402
    BS32_TEXT,
    DIHEDRAL_LOOP_TEXT,
    F2_EXAMPLE_TEXT,
    KLEIN_TEXT,
    TREFOIL_TEXT,
    random_graph,
    random_word_tokens,
)
from gogh.cli import letter_str, parse, render_json, run, serialize  # noqa: E402
from gogh.words import invert_tokens, tokens_of_vertex_word  # noqa: E402

GOLDEN = os.path.join(HERE, "golden")

MALFORMED = {
    "bad_vertex_decl": "vertex broken\n",
    "bad_second_line": "vertex v free 1\nvertex broken\n",
    "unknown_vertex_in_edge": 'vertex v free 1\nedge e from=v to=w img_from="v.1" img_to="w.1"\n',
    "letter_in_wrong_vertex": (
        'vertex u free 1\nvertex v free 1\nedge e from=u to=v img_from="v.1" img_to="v.1"\n'
    ),
    "empty": "",
    "finite_order_attachment": 'vertex d dihedral\nedge e from=d to=d img_from="d.r" img_to="d.s"\n',
    "disconnected": "vertex u free 1\nvertex v free 1\n",
    "duplicate_vertex": "vertex v free 1\nvertex v free 2\n",
}


def inputs():
    yield "fixture_bs32", BS32_TEXT
    yield "fixture_trefoil", TREFOIL_TEXT
    yield "fixture_f2_example", F2_EXAMPLE_TEXT
    yield "fixture_klein", KLEIN_TEXT
    yield "fixture_dihedral_loop", DIHEDRAL_LOOP_TEXT
    for m in range(-6, 7):
        for n in range(-6, 7):
            if m and n:
                yield f"bs_{m}_{n}", (
                    f'vertex v free 1\nedge e from=v to=v img_from="v.1^{n}" img_to="v.1^{m}"\n'
                )
    rng = random.Random(20070133)
    for i in range(40):
        yield f"random_{i:02d}", serialize(random_graph(rng))
    for i in range(40, 60):
        yield f"random_{i:02d}", serialize(random_graph(rng, v_max=6, e_max=8, rank2_prob=0.3))
    for name, text in MALFORMED.items():
        yield f"malformed_{name}", text


def display(tokens) -> str:
    """Tokens in the input letter syntax, tree stable letters kept, so the
    word is exactly the one generated."""
    parts = []
    for tok in tokens:
        if tok[-1] != 0:
            gen = tok[2] if tok[0] == "g" else "t"
            parts.append(f"{tok[1]}.{letter_str(gen, tok[-1])}")
    return " ".join(parts)


def commands(name: str, text: str):
    try:
        graph = parse(text)
    except Exception:
        graph = None
    rng = random.Random(name)
    words = ["v.1"]
    if graph is not None:
        words = [display(random_word_tokens(rng, graph))]
        if graph.edges:
            e = graph.edges[0]
            relator = (
                [("t", e.name, 1)]
                + tokens_of_vertex_word(e.attachment_target)
                + [("t", e.name, -1)]
                + invert_tokens(tokens_of_vertex_word(e.attachment_source))
            )
            words.append(display(relator))
    out = [["check"]]
    out += [["reduce", "--word", w] for w in words if w]
    out.append(["balance"])
    out += [["conjgraph", "--class-of", e] for e in (graph.edge_ids() if graph else ["e"])]
    out += [["parametrize"], ["verdict"], ["witness"], ["distortion", "--depth", "3"]]
    if name.startswith("fixture_"):
        out += [
            ["reduce", "--word", "nosuch.1"],
            ["reduce", "--word", "e.t", "--base", "nosuch"],
            ["balance", "--edge", "e"],
            ["balance", "--edge", "nosuch"],
            ["conjgraph", "--class-of", "nosuch"],
        ]
    return out


def main() -> int:
    if os.path.isdir(GOLDEN):
        shutil.rmtree(GOLDEN)
    os.makedirs(GOLDEN)
    skipped = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs():
            path = os.path.join(tmp, f"{name}.gog")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            runs = []
            for args in commands(name, text):
                try:
                    code, payload = run([args[0], path] + args[1:])
                except Exception:
                    skipped += 1
                    continue
                runs.append([args, code, render_json(payload)])
            with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump({"text": text, "runs": runs}, fh, indent=1, sort_keys=True)
                fh.write("\n")
    print(f"recorded {len(os.listdir(GOLDEN))} inputs into {GOLDEN}; {skipped} raising runs left out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
