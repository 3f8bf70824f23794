"""The checkers share no decision logic with the producers.

The code of each checker, nested code objects included, names none of the
functions that produce verdicts, edge classes or attachment data, and
neither does any package function it reaches by name, transitively.  The
brute-force oracles in ``oracles.py`` are checkers too, and their functions
join the walk.
"""

import types

import oracles
from gogh import balance, certify, checks, cli, conjgraph, dihedral, freewords, model, parametrize, words

MODULES = {
    module.__name__.rpartition(".")[2]: module
    for module in (balance, certify, checks, cli, conjgraph, dihedral, freewords, model, parametrize, words)
}

CHECKERS = (
    MODULES["checks"].verify_parametrization,
    MODULES["checks"].provenance_holds,
    MODULES["checks"].witness_holds,
    MODULES["words"].britton_reduce,
    oracles.pinch_membership,
    oracles.has_pinch,
    oracles.bounded_conjugator_search,
    oracles.brute_force_balance_oracle,
)

PRODUCERS = {
    "build_groupoid",
    "attachment_data",
    "canonical_root",
    "_least_rotation",
    "_letter_key",
    "_class_certificate",
    "_parametrization",
}


def _package_functions() -> dict:
    """Module-level functions of the package and of the test oracles, by name."""
    table: dict[str, set] = {}
    for mod in (*MODULES.values(), oracles):
        for value in vars(mod).values():
            if isinstance(value, types.FunctionType) and (
                value.__module__.startswith("gogh.") or value.__module__ == oracles.__name__
            ):
                table.setdefault(value.__name__, set()).add(value)
    return table


def _names(code: types.CodeType):
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


def _reach(fn, table) -> dict:
    """Every package function reachable from fn by name -> the names its code uses."""
    seen: dict = {}
    todo = [fn]
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen[f] = set(_names(f.__code__))
        for name in seen[f]:
            todo.extend(table.get(name, ()))
    return seen


def test_producers_exist():
    assert PRODUCERS <= set(_package_functions())


def test_checkers_name_no_producer():
    table = _package_functions()
    for checker in CHECKERS:
        for f, names in _reach(checker, table).items():
            assert not names & PRODUCERS, (checker.__name__, f.__name__, names & PRODUCERS)


def test_reach_is_transitive():
    reached = _reach(oracles.bounded_conjugator_search, _package_functions())
    # through are_equal -> is_trivial -> britton_reduce -> _pinch_entry -> _image_data
    assert MODULES["freewords"].primitive_root in reached
    # and through the oracle's own helpers
    assert oracles._search_states in reached and oracles._letter_moves in reached
