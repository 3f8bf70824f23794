"""Memory of the parse and of the decision on a large input, per edge,
and of the reduction of a long word, per stable letter.

A balanced cycle of n rank-1 vertices, its edge ratios alternating 3:2
and 2:3, is HHG with one class: every layer from the text to the
verified certificate runs on it once, and holds each of its per-edge
facts.  The word e.t^N v.1^2 e.t^-N in BS(3, 2) pinches once and then
sticks, so the reduce command holds a path word, its reduction and their
rendering of about 2N stable letters each.
"""

import gc
import tracemalloc

from conftest import BS32_TEXT
from gogh import cli
from gogh.cli import parse
from gogh.parametrize import hhg_verdict

EDGES = 5000
PEAK_BYTES_PER_EDGE = 2117  # 1693 measured, plus 25%


def _traced_peak(fn):
    """fn's result and the peak of the traced heap while it runs."""
    enabled = gc.isenabled()
    gc.disable()  # as cli.run does; the pass leaves no cycles to collect
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return result, peak


def balanced_cycle(n: int) -> str:
    lines = [f"vertex v{i} free 1" for i in range(n)]
    for i in range(n):
        a, b = (2, 3) if i % 2 else (3, 2)
        j = (i + 1) % n
        lines.append(f'edge e{i} from=v{i} to=v{j} img_from="v{i}.1^{a}" img_to="v{j}.1^{b}"')
    return "\n".join(lines) + "\n"


def test_peak_bytes_per_edge_of_the_decision():
    """The peak of the traced Python heap per edge over parse + hhg_verdict.

    Measured at 1616-1693 bytes per edge on Python 3.11.7, x86-64, with and
    without -O (3.10 and 3.12 not measured); at 1849-1923 while the
    groupoid pass built a BFS forest over adjacency lists of all its nodes,
    at 1965-2040 before the groupoid kept one record per edge instead of
    one per edge side, and at 2700-2730 before the records were slotted and
    each class read the groupoid's one occurrence map.  The bound is the
    highest measured value plus 25%.  Under tracemalloc the test takes
    0.8-1.8 s on a shared 2-core host."""
    text = balanced_cycle(EDGES)
    hhg_verdict(parse(balanced_cycle(4)))  # one-time set-up (imports, caches) stays out
    verdict, peak = _traced_peak(lambda: hhg_verdict(parse(text)))
    assert verdict.status == "HHG" and len(verdict.certificates) == 1
    assert peak / EDGES <= PEAK_BYTES_PER_EDGE, peak / EDGES


PARSE_PEAK_BYTES_PER_EDGE = 1253  # 1002 measured, plus 25%


def test_peak_bytes_per_edge_of_the_parse():
    """The peak of the traced Python heap per edge over parse alone, the
    graph's validation included.

    Measured at 997.9-1001.6 bytes per edge on Python 3.11.7, x86-64, with
    and without -O, where one scan of the text matches each line and each
    edge line's match is kept until the edge pass; 998.0-1001.9 when each
    line was split off, stripped and matched on its own, and 1030.0-1033.6
    when the scan kept five substrings of each edge line in place of its
    match.  The bound is the highest measured value plus 25%."""
    text = balanced_cycle(EDGES)
    parse(balanced_cycle(4))
    graph, peak = _traced_peak(lambda: parse(text))
    assert len(graph.edges) == EDGES
    assert peak / EDGES <= PARSE_PEAK_BYTES_PER_EDGE, peak / EDGES


STABLE_LETTERS = 20000
PEAK_BYTES_PER_STABLE_LETTER = 52  # 41.2 measured, plus 25%


def test_peak_bytes_per_stable_letter_of_a_reduction(tmp_path):
    """The peak of the traced Python heap per stable letter over cli.run +
    render_json of reduce on e.t^N v.1^2 e.t^-N, N = 10000, in BS(3, 2).

    Measured at 40.8-41.2 bytes per stable letter on Python 3.11.7,
    x86-64, with and without -O (3.10 and 3.12 not measured), and at 307
    when each step built its own pair, empty syllable, stack pair, token
    and string.  The bound is the highest measured value plus 25%."""
    path = tmp_path / "bs32.gog"
    path.write_text(BS32_TEXT)
    n = STABLE_LETTERS // 2
    argv = ["reduce", str(path), "--word", f"e.t^{n} v.1^2 e.t^-{n}"]
    cli.render_json(cli.run(["reduce", str(path), "--word", "e.t v.1^2 e.t^-1"])[1])
    out, peak = _traced_peak(lambda: cli.render_json(cli.run(argv)[1]))
    stuck = " ".join(["e.t"] * (n - 1) + ["v.1^3"] + ["e.t^-1"] * (n - 1))
    assert out == cli.render_json({"input": argv[-1], "reduced": stuck, "trivial": False})
    assert peak / STABLE_LETTERS <= PEAK_BYTES_PER_STABLE_LETTER, peak / STABLE_LETTERS
