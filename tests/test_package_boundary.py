"""The package's shape, read from its source with ``ast``.

The package ships producers and checkers; the brute-force oracles live in
``tests/oracles.py``.  No module keeps an import it does not use, none
defines or re-exports an oracle name, and the groupoid module does not
depend on the word layer.  The checkers' module reaches no producer: its
import closure holds no producer module and defines no producer name.
"""

import ast
from pathlib import Path

import gogh
from test_separation import PRODUCERS

PACKAGE = Path(gogh.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}

MOVED = {
    "brute_force_balance_oracle",
    "OracleUnbalanced",
    "OracleBalancedWithinBounds",
    "bounded_conjugator_search",
    "_search_states",
    "_letter_moves",
    "_conjugation_gens",
    "SearchBudgetExceeded",
    "has_pinch",
    "pinch_membership",
    "vw_mul",
    "vw_inv",
    "vw_pow",
}

PRODUCER_MODULES = {"balance", "conjgraph", "parametrize", "certify", "cli"}


def _imported(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, at any depth."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return bound


def _bound_at_top(tree: ast.Module) -> set[str]:
    """Names the module binds at its top level, imports included, and the
    strings listed in its ``__all__`` or in a top-level table it is built
    from (such as a name -> home module table)."""
    bound = _imported(tree)
    values = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
                bound.update(names)
                values.update(dict.fromkeys(names, node.value))
    pending, seen = ["__all__"], set()
    while pending:
        name = pending.pop()
        if name in seen or values.get(name) is None:
            continue
        seen.add(name)
        for n in ast.walk(values[name]):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                bound.add(n.value)
            elif isinstance(n, ast.Name):
                pending.append(n.id)
    return bound


def test_modules_found():
    assert {"balance", "words", "model", "freewords", "__init__"} <= set(MODULES)


def test_every_import_is_used():
    unused = {}
    for name, tree in MODULES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        missing = _imported(tree) - used
        if missing:
            unused[name] = sorted(missing)
    assert not unused


def test_no_module_holds_an_oracle():
    held = {name: sorted(_bound_at_top(tree) & MOVED) for name, tree in MODULES.items()}
    assert not any(held.values()), held


def test_balance_does_not_import_words():
    for node in ast.walk(MODULES["balance"]):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("words", "gogh.words"), ast.dump(node)
            assert not any(alias.name == "words" for alias in node.names), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(alias.name != "gogh.words" for alias in node.names), ast.dump(node)


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules the module imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # from .x import ..., or from . import x
            found.update([node.module] if node.module else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.removeprefix("gogh."))
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("gogh.") for alias in node.names)
    return found & set(MODULES)


def _closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_package_imports(MODULES[name]))
    return seen


def test_checks_imports_no_producer_module():
    closure = _closure("checks")
    assert closure == {"checks", "model", "freewords"}  # the walk follows imports
    assert not closure & PRODUCER_MODULES, sorted(closure & PRODUCER_MODULES)


def test_checks_closure_defines_no_producer_name():
    defined = {}
    for name in _closure("checks"):
        tree = MODULES[name]
        names = _bound_at_top(tree) | {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        defined[name] = sorted(names & PRODUCERS)
    assert not any(defined.values()), defined
