"""Memory of the decision on a large input, per edge.

A balanced cycle of n rank-1 vertices, its edge ratios alternating 3:2
and 2:3, is HHG with one class: every layer from the text to the
verified certificate runs on it once, and holds each of its per-edge
facts.
"""

import gc
import tracemalloc

from gogh.cli import parse
from gogh.parametrize import hhg_verdict

EDGES = 5000
PEAK_BYTES_PER_EDGE = 2550  # 2040 measured, plus 25%


def balanced_cycle(n: int) -> str:
    lines = [f"vertex v{i} free 1" for i in range(n)]
    for i in range(n):
        a, b = (2, 3) if i % 2 else (3, 2)
        j = (i + 1) % n
        lines.append(f'edge e{i} from=v{i} to=v{j} img_from="v{i}.1^{a}" img_to="v{j}.1^{b}"')
    return "\n".join(lines) + "\n"


def test_peak_bytes_per_edge_of_the_decision():
    """The peak of the traced Python heap per edge over parse + hhg_verdict.

    Measured at 1965-2040 bytes per edge on Python 3.11.7, x86-64 (3.10 and
    3.12 not measured), and at 2700-2730 before the records were slotted and
    each class read the groupoid's one occurrence map.  The bound is the
    highest measured value plus 25%.  Under tracemalloc the test takes
    0.8-1.8 s on a shared 2-core host."""
    text = balanced_cycle(EDGES)
    hhg_verdict(parse(balanced_cycle(4)))  # one-time set-up (imports, caches) stays out
    enabled = gc.isenabled()
    gc.disable()  # as cli.run does; the pass leaves no cycles to collect
    tracemalloc.start()
    try:
        verdict = hhg_verdict(parse(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert verdict.status == "HHG" and len(verdict.certificates) == 1
    assert peak / EDGES <= PEAK_BYTES_PER_EDGE, peak / EDGES
