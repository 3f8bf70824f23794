"""The text the large-graph path writes: the graph text ``serialize``
renders, against a renderer written out here, and the stdout of
``verdict`` on a large cycle, pinned by its hash.

``serialize`` renders each distinct letters tuple once per call and joins
the texts of a word's letters with its vertex name; the reference below
writes every letter of every word out.  The graphs are seeded random
graphs with multi-letter, conjugated and dihedral attachments, and the
derived graphs of their classes, which the conjgraph command renders.
"""

import hashlib
import random

from conftest import random_graph
from gogh import cli
from gogh.balance import build_groupoid
from gogh.cli import parse, serialize
from gogh.conjgraph import build_conjugacy_graph
from gogh.model import DihedralInfinite, EdgeRecord, Free, VertexWord, make_graph
from test_memory import balanced_cycle


def reference_word(word: VertexWord) -> str:
    letters = []
    for gen, exp in word.letters:
        letters.append(f"{word.vertex}.{gen}" if exp == 1 else f"{word.vertex}.{gen}^{exp}")
    return " ".join(letters)


def reference_serialize(graph) -> str:
    lines = []
    for name, kind in graph.vertices:
        if isinstance(kind, DihedralInfinite):
            lines.append(f"vertex {name} dihedral")
        else:
            lines.append(f"vertex {name} free {kind.rank}")
    for e in graph.edges:
        lines.append(
            f"edge {e.name} from={e.source} to={e.target} "
            f'img_from="{reference_word(e.attachment_source)}" '
            f'img_to="{reference_word(e.attachment_target)}"'
        )
    return "\n".join(lines) + "\n"


def _graphs(seed: int, count: int):
    """Seeded random graphs, each followed by its classes' derived graphs."""
    rng = random.Random(seed)
    for _ in range(count):
        graph = random_graph(rng, v_max=6, e_max=9, rank2_prob=0.5)
        yield graph
        for cls in build_groupoid(graph).classes:
            yield build_conjugacy_graph(graph, cls).graph


def test_serialize_matches_the_reference_renderer():
    seen = {"multi-letter": 0, "conjugated": 0, "dihedral": 0, "derived": 0}
    for graph in _graphs(1907, 300):
        assert serialize(graph) == reference_serialize(graph)
        words = [w for e in graph.edges for w in (e.attachment_source, e.attachment_target)]
        seen["multi-letter"] += any(len(w.letters) > 1 for w in words)
        seen["conjugated"] += any(
            len(w.letters) > 2 and w.letters[0][0] == w.letters[-1][0] for w in words
        )
        seen["dihedral"] += any(isinstance(kind, DihedralInfinite) for _, kind in graph.vertices)
        seen["derived"] += any(name.endswith("_0") for name, _ in graph.vertices)
    assert min(seen.values()) >= 20, seen


def test_parse_reads_back_what_serialize_writes():
    for graph in _graphs(1911, 300):
        assert parse(serialize(graph)) == graph


def test_serialize_renders_numerals_beyond_the_digit_limit():
    big = 7 * 10**5000
    source = VertexWord("u", ((2, 1), (1, -big), (2, -1)))
    target = VertexWord("v", ((1, big + 1),))
    graph = make_graph([("u", Free(2)), ("v", Free(1))], [EdgeRecord("e", "u", "v", source, target)])
    text = serialize(graph)
    assert f'img_from="u.2 u.1^-7{"0" * 5000} u.2^-1"' in text
    assert parse(text) == graph


def test_verdict_stdout_on_a_large_cycle_is_pinned(tmp_path, capsys):
    """The whole stdout of verdict on the 25,000-edge balanced cycle of
    test_memory, whose certificate renders 25,000 vertex images."""
    path = tmp_path / "cycle.gog"
    path.write_text(balanced_cycle(25000))
    assert cli.main(["verdict", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest().startswith("b77abfaa42cd")
