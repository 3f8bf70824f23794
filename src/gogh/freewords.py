"""Word algebra for finitely generated free groups.

Words are tuples of (generator, exponent) letters with merged exponents, so
a huge power is a single letter.  All functions assume the letters of their
inputs belong to one free vertex group.  The module holds the free word
algebra that producers and checkers share: free and cyclic reduction,
products, powers, inverses and primitive roots.  One linear split of the
letters into conjugator and cyclic core serves both powers and roots, and
a root's data (``RootData``) is letter tuples.  The canonical root, which
names a groupoid node, is a producer's choice and lives in ``balance``.
"""

from __future__ import annotations

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
    """The reduced n-th power.  A reduced c u c^-1 with u cyclically reduced
    has n-th power c u^n c^-1, reduced only at its two seams, so when u is
    one letter the power takes O(|c|) letters whatever n."""
    if n < 0:
        return pow_letters(inv_letters(letters), -n)
    if n == 0:
        return ()
    if len(letters) == 1:
        g, e = letters[0]
        return ((g, e * n),)
    conj, core = cyclic_reduce(reduce_letters(letters))
    out = list(conj)
    extend_reduced(out, pow_letters(core, n) if len(core) == 1 else core * n)
    extend_reduced(out, inv_letters(conj))
    return tuple(out)


def free_reduce(word: VertexWord) -> VertexWord:
    """Freely reduce; idempotent and length-nonincreasing.

    >>> free_reduce(VertexWord("v", ((1, 2), (2, -1), (2, 1), (1, -3)))).letters
    ((1, -1),)
    """
    return VertexWord(word.vertex, reduce_letters(word.letters))


def cyclic_reduce(letters: Letters) -> tuple[Letters, Letters]:
    """Split freely reduced letters as conjugator * core * conjugator^-1,
    in time linear in the letters.

    The core is cyclically reduced and in wrap-normal position: its first
    and last letters use distinct generators (so the cyclic run structure
    coincides with the letter list), unless it has at most one letter.

    >>> cyclic_reduce(((1, 2), (2, 1), (3, 1), (1, 3)))
    (((1, -3),), ((1, 5), (2, 1), (3, 1)))
    """
    i, j = 0, len(letters) - 1
    while i < j and letters[i][0] == letters[j][0]:
        g, p = letters[i]
        q = letters[j][1]
        if p + q:
            # w = g^p mid g^q  ->  g^-q (g^(p+q) mid) g^q
            return letters[:i] + ((g, -q),), ((g, p + q),) + letters[i + 1 : j]
        i += 1
        j -= 1
    return letters[:i], letters[i : j + 1]


@record
class RootData:
    """w = conjugator * root^exponent * conjugator^-1 as letters, root primitive."""

    root: Letters
    conjugator: Letters
    exponent: int


def primitive_root(letters: Letters) -> RootData:
    """Primitive root of nontrivial freely reduced letters.

    A one-letter g^k has root g, exponent k and no conjugator; a longer
    word has the root of its cyclic core, conjugated as cyclic_reduce
    splits it.

    >>> primitive_root(((2, 1), (1, 6), (2, -1)))
    RootData(root=((1, 1),), conjugator=((2, 1),), exponent=6)
    """
    if not letters:
        raise TrivialWord("the identity has no primitive root")
    conj, core = cyclic_reduce(letters)
    n = len(core)
    if n == 1:
        ((g, k),) = core
        return RootData(((g, 1),), conj, k)
    # the run structure of the cyclic word is rotation-invariant, so any
    # proper-power period aligns with whole letters
    for m in range(1, n + 1):
        if n % m:
            continue
        if all(core[i] == core[(i + m) % n] for i in range(n)):
            return RootData(core[:m], conj, n // m)
    raise AssertionError("unreachable")
