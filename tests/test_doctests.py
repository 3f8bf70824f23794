"""Run the examples in the package's docstrings."""

import doctest
import importlib
import pkgutil

import gogh


def test_docstring_examples_pass():
    failed = attempted = 0
    for info in pkgutil.iter_modules(gogh.__path__):
        module = importlib.import_module(f"gogh.{info.name}")
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 2
