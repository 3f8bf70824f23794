"""Word algebra for finitely generated free groups.

Words are tuples of (generator, exponent) letters with merged exponents, so
a huge power is a single letter.  All functions assume the letters of their
inputs belong to one free vertex group.  Canonical roots take O(L) letter
comparisons in a root of L letters: the least rotation is found by Booth's
algorithm, once on the root and once on its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .model import GoghError, VertexWord

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
    if n < 0:
        return pow_letters(inv_letters(letters), -n)
    if n == 0:
        return ()
    if len(letters) == 1:
        g, e = letters[0]
        return ((g, e * n),)
    return reduce_letters(letters * n)


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


@dataclass(frozen=True)
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


def _letter_key(letter: tuple[int, int]):
    g, e = letter
    return (g, 0 if e > 0 else 1, abs(e))


def _least_rotation(keys: list) -> int:
    """Start of the lexicographically least rotation of nonempty keys, by
    Booth's algorithm (K. S. Booth, IPL 10(4), 1980): a KMP failure function
    over the doubled sequence, O(len(keys)) comparisons.  On a sequence with
    several least rotations it returns the first start.

    >>> _least_rotation([3, 1, 2, 1, 1])
    3
    """
    n = len(keys)
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        c = keys[j % n]
        i = fail[j - k - 1]
        while i != -1 and c != keys[(k + i + 1) % n]:
            if c < keys[(k + i + 1) % n]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != keys[k % n]:
            if c < keys[k % n]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k % n


def canonical_root(word: VertexWord) -> tuple[VertexWord, VertexWord, int]:
    """(canonical root R, conjugator g, signed exponent p) with w = g R^p g^-1.

    R is the lexicographically least rotation of the primitive root or of
    its inverse, ordered by (generator, exponent sign, exponent size), so
    commensurable words share the same R.  Booth's least rotation runs once
    on the root and once on its inverse, so this is O(L) in the root's
    letters.  The two never tie: no nontrivial free word is conjugate to
    its inverse.
    """
    rd = primitive_root(word)
    best = None
    for source, flip in ((rd.root.letters, 1), (inv_letters(rd.root.letters), -1)):
        keys = [_letter_key(l) for l in source]
        i = _least_rotation(keys)
        key = keys[i:] + keys[:i]
        if best is None or key < best[0]:
            best = (key, source[i:] + source[:i], flip, source[:i])
    _, rot, flip, prefix = best
    # source = prefix * rot * prefix^-1, and root = source^flip
    conj = mul_letters(rd.conjugator.letters, prefix)
    return (
        VertexWord(word.vertex, rot),
        VertexWord(word.vertex, conj),
        rd.exponent * flip,
    )
