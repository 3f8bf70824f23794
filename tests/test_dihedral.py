from dataclasses import FrozenInstanceError
from itertools import product

import pytest

from gogh.dihedral import (
    DihedralElement,
    IDENTITY,
    dinv,
    dmul,
    dpow,
    element_to_word,
    word_to_element,
)
from gogh.model import VertexWord

RANGE = [DihedralElement(e, k) for e in (0, 1) for k in range(-5, 6)]


def test_basic_products():
    assert dmul(DihedralElement(0, 1), DihedralElement(0, 2)) == DihedralElement(0, 3)
    # s r s = r^-1
    s, r = DihedralElement(1, 0), DihedralElement(0, 1)
    assert dmul(dmul(s, r), s) == DihedralElement(0, -1)


@pytest.mark.parametrize("eps", [-1, 2, 3])
def test_reflection_exponent_is_checked(eps):
    # a raise, not an assert: it holds under `python -O` too
    with pytest.raises(ValueError):
        DihedralElement(eps, 0)


def test_elements_are_slotted_and_frozen():
    x = DihedralElement(1, 3)
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(x, "note", 0)
    for name in ("eps", "k", "note"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
            setattr(x, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
            delattr(x, name)
    assert x == DihedralElement(1, 3) and hash(x) == hash(DihedralElement(1, 3))


def test_reflections_square_to_identity():
    for k in range(-5, 6):
        x = DihedralElement(1, k)
        assert dmul(x, x) == IDENTITY
        assert dpow(x, 2) == IDENTITY


def test_associativity_exhaustive():
    for x, y, z in product(RANGE, RANGE, RANGE):
        assert dmul(dmul(x, y), z) == dmul(x, dmul(y, z))


def test_identity_and_inverse():
    for x in RANGE:
        assert dmul(x, IDENTITY) == x
        assert dmul(IDENTITY, x) == x
        assert dmul(x, dinv(x)) == IDENTITY
        assert dmul(dinv(x), x) == IDENTITY


def test_power_addition():
    for x in RANGE:
        for m in range(-4, 5):
            for n in range(-4, 5):
                assert dpow(x, m + n) == dmul(dpow(x, m), dpow(x, n))


def test_power_values():
    assert dpow(DihedralElement(0, 3), 4) == DihedralElement(0, 12)
    assert dpow(DihedralElement(1, 5), 2) == IDENTITY
    assert dpow(DihedralElement(0, 2), -3) == DihedralElement(0, -6)


def test_conjugation_by_reflection_flips_sign():
    for k in range(-5, 6):
        for l in range(-5, 6):
            refl = DihedralElement(1, l)
            rot = DihedralElement(0, k)
            assert dmul(dmul(refl, rot), dinv(refl)) == DihedralElement(0, -k)


def test_word_roundtrip():
    for x in RANGE:
        assert word_to_element(element_to_word("d", x)) == x
    # s r s collapses to the normal form of r^-1
    w = VertexWord("d", (("s", 1), ("r", 1), ("s", 1)))
    assert word_to_element(w) == DihedralElement(0, -1)
