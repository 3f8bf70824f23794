"""Word algebra for finitely generated free groups.

Words are tuples of (generator, exponent) letters with merged exponents, so
a huge power is a single letter.  All functions assume the letters of their
inputs belong to one free vertex group.  The module holds the free word
algebra that producers and checkers share: free and cyclic reduction,
products, powers, inverses and primitive roots.  The canonical root, which
names a groupoid node, is a producer's choice and lives in ``balance``.
"""

from __future__ import annotations

from functools import lru_cache

from .model import GoghError, VertexWord, record

Letters = tuple[tuple[int, int], ...]


class TrivialWord(GoghError):
    pass


def reduce_letters(seq) -> Letters:
    out: list[list] = []
    for gen, exp in seq:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


def extend_reduced(out: list, letters: Letters) -> None:
    """Multiply the freely reduced list out by the freely reduced letters,
    in place.  Letters cancel only at the seam, so this takes time in the
    letters that cancel plus those appended, whatever the length of out.

    >>> out = [(1, 2), (2, 1)]
    >>> extend_reduced(out, ((2, -1), (1, -2), (2, 5)))
    >>> out
    [(2, 5)]
    """
    i, n = 0, len(letters)
    while i < n and out:
        gen, exp = letters[i]
        last_gen, last_exp = out[-1]
        if last_gen != gen:
            break
        i += 1
        total = last_exp + exp
        if total:
            out[-1] = (gen, total)
            break
        out.pop()
    out.extend(letters[i:])


def inv_letters(letters: Letters) -> Letters:
    return tuple((g, -e) for g, e in reversed(letters))


def mul_letters(*parts: Letters) -> Letters:
    merged: list[tuple[int, int]] = []
    for p in parts:
        merged.extend(p)
    return reduce_letters(merged)


def pow_letters(letters: Letters, n: int) -> Letters:
    """The reduced n-th power.  A reduced c u c^-1 has n-th power c u^n c^-1,
    so when u is one letter the power takes O(|c|) letters whatever n."""
    if n < 0:
        return pow_letters(inv_letters(letters), -n)
    if n == 0:
        return ()
    if len(letters) == 1:
        g, e = letters[0]
        return ((g, e * n),)
    letters = reduce_letters(letters)
    k = 0  # letters = c u c^-1 with |c| = k
    while len(letters) - 2 * k > 1 and letters[k] == (letters[-1 - k][0], -letters[-1 - k][1]):
        k += 1
    core = letters[k : len(letters) - k]
    power = pow_letters(core, n) if len(core) == 1 else reduce_letters(core * n)
    return letters[:k] + power + letters[len(letters) - k :]


def free_reduce(word: VertexWord) -> VertexWord:
    """Freely reduce; idempotent and length-nonincreasing.

    >>> free_reduce(VertexWord("v", ((1, 2), (2, -1), (2, 1), (1, -3)))).letters
    ((1, -1),)
    """
    return VertexWord(word.vertex, reduce_letters(word.letters))


def cyclic_reduce(word: VertexWord) -> tuple[VertexWord, VertexWord]:
    """Split a freely reduced word as conjugator * core * conjugator^-1.

    The core is cyclically reduced and in wrap-normal position: its first
    and last letters use distinct generators (so the cyclic run structure
    coincides with the letter list), unless it has at most one letter.
    """
    letters = list(word.letters)
    conj: list[tuple[int, int]] = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0]:
        g, p = letters[0]
        _, q = letters[-1]
        if p + q == 0:
            conj.append((g, p))
            letters = letters[1:-1]
        else:
            # w = g^p mid g^q  ->  g^-q (g^(p+q) mid) g^q
            conj.append((g, -q))
            letters = [(g, p + q)] + letters[1:-1]
            break
    return (
        VertexWord(word.vertex, reduce_letters(conj)),
        VertexWord(word.vertex, tuple(letters)),
    )


@record
class RootData:
    """w = conjugator * root^exponent * conjugator^-1, root primitive."""

    root: VertexWord
    conjugator: VertexWord
    exponent: int


@lru_cache(maxsize=4096)
def primitive_root(word: VertexWord) -> RootData:
    """Primitive root of a nontrivial freely reduced word.

    >>> primitive_root(VertexWord("v", ((1, 6),))).exponent
    6
    """
    if word.is_identity:
        raise TrivialWord("the identity has no primitive root")
    conj, core = cyclic_reduce(word)
    letters = core.letters
    n = len(letters)
    if n == 1:
        g, k = letters[0]
        return RootData(VertexWord(word.vertex, ((g, 1),)), conj, k)
    # the run structure of the cyclic word is rotation-invariant, so any
    # proper-power period aligns with whole letters
    for m in range(1, n + 1):
        if n % m:
            continue
        if all(letters[i] == letters[(i + m) % n] for i in range(n)):
            return RootData(VertexWord(word.vertex, letters[:m]), conj, n // m)
    raise AssertionError("unreachable")
