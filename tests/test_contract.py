"""The CLI contract on inputs that once broke it: each row runs one command
in a child whose address space is capped, and must exit 0 with one JSON
object whose contents are known by construction."""

import json
import os
import subprocess
import sys

from test_growth import ADDRESS_SPACE, CAPPED_RUN, SRC

# BS(3 * 10^20, 2 * 10^20): a's letter length passes a Py_ssize_t, so
# taking len() of the word raised OverflowError and exited 3
HUGE_LOOP_TEXT = (
    "vertex v free 1\n"
    'edge e from=v to=v img_from="v.1^300000000000000000000" img_to="v.1^200000000000000000000"\n'
)


def _capped(tmp_path, text: str, *argv: str) -> dict:
    """(exit code, the JSON object) of cli.run on text in a capped child."""
    path = tmp_path / "graph.gog"
    path.write_text(text)
    command, *options = argv
    child = subprocess.run(
        [sys.executable, "-c", CAPPED_RUN.format(limit=ADDRESS_SPACE), command, str(path), *options],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    (line,) = child.stdout.splitlines()
    result = json.loads(line)
    return result["code"], json.loads(result["out"])


def test_distortion_with_a_length_beyond_an_index(tmp_path):
    code, out = _capped(tmp_path, HUGE_LOOP_TEXT, "distortion", "--depth", "1")
    assert code == 0, out
    assert out["table"] == [
        {"exponent": 3, "k": 1, "length_bound": "200000000000000000002", "ratio": "200000000000000000002/3"}
    ]
    assert out["witness"]["a"] == "v.1^100000000000000000000"
