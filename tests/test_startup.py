"""Each command loads only the layers it runs.

Every case starts a fresh interpreter, runs one import or one command and
reports the ``gogh`` submodules it loaded, so a layer imported at a
module's top where a command does not need it shows here.  The package
root binds no names; its tests follow.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BS32_TEXT, TREFOIL_TEXT
import gogh

SRC = Path(__file__).resolve().parents[1] / "src"
ONE_VERTEX_TEXT = "vertex v free 1\n"
# a conjugated attachment, which the parser reads without the word layer
CONJUGATED_TEXT = 'vertex v free 2\nedge e from=v to=v img_from="v.1^2" img_to="v.2 v.1^3 v.2^-1"\n'
# a dihedral attachment of three letters, which the parser multiplies out in
# dihedral, and a bad letter, which exits 2
DIHEDRAL_WORD_TEXT = (
    'vertex d dihedral\nvertex v free 1\nedge e from=d to=v img_from="d.s d.r^2 d.s" img_to="v.1^-3"\n'
)
BAD_LETTER_TEXT = 'vertex v free 1\nedge e from=v to=v img_from="v.1^3" img_to="v.x"\n'

CLI = {"cli", "model"}
# the checkers and all they import: the files to read to trust a certificate
CHECKS = {"checks", "model", "freewords"}
# the path words and all they import, loaded only by a command that builds one
WORDS = {"words", "model", "dihedral", "freewords"}
BALANCE = CLI | {"balance", "freewords"}
CONJGRAPH = BALANCE | {"conjgraph"}
# parametrize builds its certificate's elements in dihedral
HHG_VERDICT = CONJGRAPH | CHECKS | {"parametrize", "dihedral"}
NOT_HHG_VERDICT = HHG_VERDICT | {"certify"}
WITNESS = BALANCE | CHECKS | {"certify"}
DISTORTION = WITNESS | WORDS

# stdlib modules that the text layer and the checkers leave unloaded
STDLIB = ("fractions", "decimal", "traceback", "dataclasses", "inspect")

# only the modules that `run` adds count, so a site hook that loads one of
# them at interpreter start cannot fail a gate
PROBE = """\
import json, sys
before = set(sys.modules)
{run}
print(json.dumps({{
    "gogh": sorted(m[5:] for m in sys.modules if m.startswith("gogh.")),
    "stdlib": [m for m in {stdlib!r} if m in sys.modules and m not in before],
}}))
"""


def _fresh(run: str, cwd) -> dict:
    """What a fresh interpreter has loaded after running `run`."""
    child = subprocess.run(
        [sys.executable, "-c", PROBE.format(run=run, stdlib=STDLIB)],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.fixture
def files(tmp_path):
    for name, text in (
        ("one.gog", ONE_VERTEX_TEXT),
        ("conj.gog", CONJUGATED_TEXT),
        ("dihedral.gog", DIHEDRAL_WORD_TEXT),
        ("bad.gog", BAD_LETTER_TEXT),
        ("trefoil.gog", TREFOIL_TEXT),
        ("bs32.gog", BS32_TEXT),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def test_bare_import_loads_no_submodule(files):
    """Nor does the root bind any name but a module's dunders.  The check runs
    in a fresh interpreter because an in-process import of a submodule binds
    it on the package."""
    run = "import gogh\nassert [n for n in vars(gogh) if not (n.startswith('__') and n.endswith('__'))] == []"
    assert _fresh(run, files)["gogh"] == []


def test_cli_import_loads_the_text_layer_only(files):
    loaded = _fresh("import gogh.cli", files)
    assert set(loaded["gogh"]) == CLI
    assert loaded["stdlib"] == []


def test_checks_import_loads_no_producer(files):
    loaded = _fresh("import gogh.checks", files)
    assert set(loaded["gogh"]) == CHECKS
    assert loaded["stdlib"] == []


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["check", "one.gog"], CLI),
        (["check", "conj.gog"], CLI),
        (["check", "dihedral.gog"], CLI | {"dihedral"}),
        (["reduce", "bs32.gog", "--word", "e.t v.1^2 e.t^-1"], CLI | WORDS),
        (["balance", "bs32.gog"], BALANCE),
        (["conjgraph", "trefoil.gog", "--class-of", "e"], CONJGRAPH),
        (["verdict", "trefoil.gog"], HHG_VERDICT),
        (["parametrize", "trefoil.gog"], HHG_VERDICT),
        (["verdict", "bs32.gog"], NOT_HHG_VERDICT),
        (["parametrize", "bs32.gog"], NOT_HHG_VERDICT),
        (["witness", "bs32.gog"], WITNESS),
        (["distortion", "bs32.gog", "--depth", "3"], DISTORTION),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_command_loads_its_layers(files, argv, modules):
    loaded = _fresh(f"from gogh.cli import main\nassert main({argv!r}) == 0", files)
    assert set(loaded["gogh"]) == modules
    assert "dataclasses" not in loaded["stdlib"]


def test_check_on_a_bad_letter_loads_the_text_layer_only(files):
    loaded = _fresh("from gogh.cli import main\nassert main(['check', 'bad.gog']) == 2", files)
    assert set(loaded["gogh"]) == CLI


def test_check_loads_no_fraction_decimal_or_traceback(files):
    assert _fresh("from gogh.cli import main\nmain(['check', 'one.gog'])", files)["stdlib"] == []


def test_no_module_keeps_a_cache():
    """After every submodule is imported, no module binds a functools
    cache or a module-level ``*_CACHE`` dict: each call of the library
    starts as a fresh `gogh` process does."""
    caches = []
    for info in pkgutil.iter_modules(gogh.__path__):
        module = importlib.import_module(f"gogh.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)) or (
                isinstance(value, dict) and name.upper().endswith("_CACHE")
            ):
                caches.append(f"{module.__name__}.{name}")
    assert caches == []


# -- the package root ----------------------------------------------------------


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gogh.no_such_name


def test_submodules_load_through_the_root(files):
    submodules = sorted(info.name for info in pkgutil.iter_modules(gogh.__path__))
    run = "\n".join(
        [
            f"from gogh import {', '.join(submodules)}",
            f"for name in {submodules!r}:",
            "    assert globals()[name] is sys.modules['gogh.' + name], name",
        ]
    )
    assert set(_fresh(run, files)["gogh"]) == set(submodules)
