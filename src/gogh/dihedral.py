"""Exact arithmetic in the infinite dihedral group.

The group is presented as <r, s | s r s = r^-1, s^2>, with r of infinite
order and s the reflection.  Every element has a unique normal form
s^eps r^k with eps in {0, 1} and k an integer, encoded as DihedralElement.
"""

from __future__ import annotations

from .model import DIHEDRAL_R, DIHEDRAL_S, VertexWord, record


@record
class DihedralElement:
    eps: int  # 0 or 1
    k: int

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError(f"reflection exponent {self.eps!r} is not 0 or 1")

    @property
    def is_identity(self) -> bool:
        return self.eps == 0 and self.k == 0

    @property
    def infinite_order(self) -> bool:
        return self.eps == 0 and self.k != 0


IDENTITY = DihedralElement(0, 0)


def dmul(x: DihedralElement, y: DihedralElement) -> DihedralElement:
    # s^a r^m * s^b r^n = s^(a+b) r^((-1)^b m + n)
    k = -x.k if y.eps else x.k
    return DihedralElement(x.eps ^ y.eps, k + y.k)


def dinv(x: DihedralElement) -> DihedralElement:
    # reflections are involutions; (0,k)^-1 = (0,-k)
    return DihedralElement(x.eps, x.k if x.eps else -x.k)


def dpow(x: DihedralElement, n: int) -> DihedralElement:
    # reflections are involutions; (0,k)^n = (0,kn) for n of either sign
    if x.eps:
        return x if n % 2 else IDENTITY
    return DihedralElement(0, x.k * n)


# -- conversions between VertexWord letters and normal forms -----------------


def word_to_element(word: VertexWord) -> DihedralElement:
    out = IDENTITY
    for gen, exp in word.letters:
        if gen == DIHEDRAL_R:
            out = dmul(out, DihedralElement(0, exp))
        elif gen == DIHEDRAL_S:
            out = dmul(out, DihedralElement(exp % 2, 0))
        else:
            raise ValueError(f"not a dihedral generator: {gen!r}")
    return out


def element_to_word(vertex: str, x: DihedralElement) -> VertexWord:
    letters: list[tuple[str, int]] = []
    if x.eps:
        letters.append((DIHEDRAL_S, 1))
    if x.k:
        letters.append((DIHEDRAL_R, x.k))
    return VertexWord(vertex, tuple(letters))
