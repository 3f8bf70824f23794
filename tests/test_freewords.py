import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogh.balance import canonical_root
from gogh.freewords import (
    RootData,
    TrivialWord,
    cyclic_reduce,
    free_reduce,
    inv_letters,
    mul_letters,
    pow_letters,
    primitive_root,
    reduce_letters,
)
from gogh.cli import run
from gogh.model import VertexWord


def W(*letters):
    return VertexWord("v", tuple(letters))


def conj(g, w):
    return W(*mul_letters(g.letters, w.letters, inv_letters(g.letters)))


# -- brute-force helpers (oracles for the DERIVED expectations) -----------------


def expand(letters):
    out = []
    for g, e in letters:
        step = 1 if e > 0 else -1
        out.extend((g, step) for _ in range(abs(e)))
    return out


def expanded_rotations(letters):
    flat = expand(letters)
    return [tuple(flat[i:] + flat[:i]) for i in range(len(flat))] or [()]


def brute_period(letters):
    """Smallest rotation period of the expanded cyclic word, over divisors."""
    flat = expand(letters)
    n = len(flat)
    for d in range(1, n + 1):
        if n % d:
            continue
        if all(flat[i] == flat[(i + d) % n] for i in range(n)):
            return d
    raise AssertionError


# -- free reduction --------------------------------------------------------------


def test_reduce_cancellation():
    assert free_reduce(W((1, 1), (1, -1))).letters == ()
    assert free_reduce(W((1, 2), (2, -1), (2, 1), (1, -3))).letters == ((1, -1),)


def test_reduce_keeps_reduced_words():
    w = W((1, 2), (2, -1), (1, 5))
    assert free_reduce(w) == w


letters_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=-4, max_value=4)),
    max_size=12,
).map(tuple)


@given(letters_strategy)
def test_reduce_idempotent_and_nonincreasing(letters):
    once = free_reduce(VertexWord("v", letters))
    twice = free_reduce(once)
    assert once == twice
    assert sum(abs(e) for _, e in once.letters) <= sum(abs(e) for _, e in letters)


@given(letters_strategy, letters_strategy)
def test_mul_inverse_cancels(a, b):
    u = free_reduce(VertexWord("v", a))
    v = free_reduce(VertexWord("v", b))
    prod = mul_letters(u.letters, v.letters, inv_letters(v.letters), inv_letters(u.letters))
    assert prod == ()


# -- cyclic reduction -------------------------------------------------------------


@pytest.mark.parametrize(
    "word,conjugator,core",
    [
        (((1, 1), (2, 1), (1, -1)), ((1, 1),), ((2, 1),)),
        (((1, 1), (2, 1)), (), ((1, 1), (2, 1))),
        (((1, 1), (2, 1), (3, 1), (2, -1), (1, -1)), ((1, 1), (2, 1)), ((3, 1),)),
    ],
)
def test_cyclic_reduce_examples(word, conjugator, core):
    assert cyclic_reduce(word) == (conjugator, core)


@given(letters_strategy)
def test_cyclic_reduce_reconstructs(letters):
    w = free_reduce(VertexWord("v", letters))
    g, core = cyclic_reduce(w.letters)
    assert conj(W(*g), W(*core)) == w
    if len(core) >= 2:
        assert core[0][0] != core[-1][0]


# -- primitive roots ---------------------------------------------------------------


def test_power_of_generator():
    """g^k has root g, exponent k and no conjugator: for generators 1..3,
    exponents +-1..+-7 and exponents past 2^64."""
    rd = primitive_root(((1, 6),))
    assert rd.root == ((1, 1),)
    assert rd.exponent == 6
    for g in (1, 2, 3):
        for k in [*range(1, 8), 2**64 + 1, 3**41, 2**100]:
            for exp in (k, -k):
                assert primitive_root(((g, exp),)) == RootData(((g, 1),), (), exp)


def test_two_letter_square():
    rd = primitive_root(((1, 1), (2, 1), (1, 1), (2, 1)))
    assert rd.root == ((1, 1), (2, 1))
    assert rd.exponent == 2


def test_conjugated_square():
    # b a^2 b^-1: conjugator b, inner root a, exponent 2
    rd = primitive_root(((2, 1), (1, 2), (2, -1)))
    assert rd.conjugator == ((2, 1),)
    assert rd.root == ((1, 1),)
    assert rd.exponent == 2
    # the expanded core has period 1, checked over all divisors
    assert brute_period(((1, 2),)) == 1


def test_trivial_word_raises():
    with pytest.raises(TrivialWord):
        primitive_root(())


@given(letters_strategy)
def test_root_reconstruction_and_primitivity(letters):
    w = free_reduce(VertexWord("v", letters))
    if w.is_identity:
        return
    rd = primitive_root(w.letters)
    assert conj(W(*rd.conjugator), W(*pow_letters(rd.root, rd.exponent))) == w
    # the root itself has a trivial period: its primitive root is itself
    again = primitive_root(rd.root)
    assert abs(again.exponent) == 1
    # cross-check |exponent| against the brute-force period of the core
    _, core = cyclic_reduce(w.letters)
    period = brute_period(core)
    assert len(expand(core)) // period == abs(rd.exponent)


def test_root_of_powers_is_stable():
    rng = random.Random(5)
    for _ in range(30):
        letters = tuple(
            (rng.randint(1, 2), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 4))
        )
        w = free_reduce(VertexWord("v", letters))
        if w.is_identity:
            continue
        base = canonical_root(w.letters)[0]
        for k in range(1, 6):
            assert canonical_root(pow_letters(w.letters, k))[0] == base


# -- conjugacy and commensurability through canonical roots -------------------------
#
# Two free words are commensurable exactly when they share a canonical root R;
# `balance` decides commensurability by that equality.


def test_rotation_conjugacy():
    # rotations and conjugates share R
    u, v = W((1, 1), (2, 1)), W((2, 1), (1, 1))
    c = W((3, 2), (1, -1))
    roots = [canonical_root(x.letters)[0] for x in (u, v, conj(c, u))]
    assert roots[0] == roots[1] == roots[2]


def test_non_conjugate_rotations():
    u, v = W((1, 1), (2, 1)), W((1, 1), (2, -1))
    # no expanded rotation of u or of its inverse equals v
    roots_u = expanded_rotations(u.letters) + expanded_rotations(inv_letters(u.letters))
    assert tuple(expand(v.letters)) not in roots_u
    assert canonical_root(u.letters)[0] != canonical_root(v.letters)[0]


def test_canonical_root_rebuilds_word():
    # g R^p g^-1 rebuilds the word, also when the word is conjugated
    w = W((1, 2), (2, -1))
    for word in (w, conj(W((2, 1)), w)):
        root, g, p = canonical_root(word.letters)
        assert conj(W(*g), W(*pow_letters(root, p))) == word


def test_example_powers_of_a():
    # a^3 versus b a^2 b^-1 share the root a
    ru, gu, pu = canonical_root(((1, 3),))
    rv, gv, pv = canonical_root(((2, 1), (1, 2), (2, -1)))
    assert ru == rv == ((1, 1),)
    assert (pu, pv) == (3, 2)
    assert gu == ()
    assert gv == ((2, 1),)


def test_distinct_generators_not_commensurable():
    u, v = W((1, 1)), W((2, 1))
    roots_u = expanded_rotations(u.letters) + expanded_rotations(inv_letters(u.letters))
    assert tuple(expand(v.letters)) not in roots_u
    assert canonical_root(u.letters)[0] != canonical_root(v.letters)[0]


def test_inverse_word():
    # w and w^-1 share R, with exponents of opposite sign
    w = W((1, 1), (2, 1))
    rw, _, pw = canonical_root(w.letters)
    ri, _, pi = canonical_root(inv_letters(w.letters))
    assert rw == ri
    assert pw == -pi and abs(pw) == 1


def test_trivial_input_raises():
    with pytest.raises(TrivialWord):
        canonical_root(())


@settings(max_examples=60)
@given(letters_strategy, letters_strategy, st.integers(min_value=-3, max_value=3))
def test_commensurable_words_share_canonical_root(a, c, k):
    w = free_reduce(VertexWord("v", a))
    if w.is_identity or k == 0:
        return
    root, _, p = canonical_root(w.letters)
    # g w^k g^-1 lies in the cyclic group around a conjugate of R
    other = conj(W(*reduce_letters(c)), W(*pow_letters(w.letters, k)))
    root_o, g_o, p_o = canonical_root(other.letters)
    assert root_o == root
    assert p_o == k * p
    assert conj(W(*g_o), W(*pow_letters(root, p_o))) == other


@given(letters_strategy)
def test_canonical_root_reconstructs(letters):
    w = free_reduce(VertexWord("v", letters))
    if w.is_identity:
        return
    root, g, p = canonical_root(w.letters)
    assert conj(W(*g), W(*pow_letters(root, p))) == w
    # canonical across inversion: w and w^-1 share the root
    root_inv, _, p_inv = canonical_root(inv_letters(w.letters))
    assert root_inv == root
    assert p_inv == -p


# -- canonical roots against the quadratic rotation scan -----------------------------


def quadratic_canonical_root(letters):
    """Every rotation of the primitive root and of its inverse, keyed letter by
    letter by (generator, sign, size), the least kept, the root first on a tie:
    O(L^2), the reference for Booth's least rotation."""
    rd = primitive_root(letters)
    best = None
    for source, flip in ((rd.root, 1), (inv_letters(rd.root), -1)):
        for i in range(len(source)):
            rot = source[i:] + source[:i]
            key = tuple((g, 0 if e > 0 else 1, abs(e)) for g, e in rot)
            if best is None or key < best[0]:
                best = (key, rot, flip, source[:i])
    _, rot, flip, prefix = best
    return rot, mul_letters(rd.conjugator, prefix), rd.exponent * flip


def _random_reduced(rng, length, gens=3, exp_max=3):
    letters = []
    while len(letters) < length:
        g = rng.randint(1, gens)
        if not letters or letters[-1][0] != g:
            letters.append((g, rng.choice([e for e in range(-exp_max, exp_max + 1) if e])))
    return tuple(letters)


def _seeded_words(rng):
    for _ in range(150):  # mixed exponents over three generators
        yield W(*_random_reduced(rng, rng.randint(1, 12)))
    for _ in range(100):  # proper powers, some conjugated
        base = free_reduce(W(*_random_reduced(rng, rng.randint(1, 5), gens=2, exp_max=2)))
        word = W(*pow_letters(base.letters, rng.choice([2, 3, 4, -2, -3])))
        if rng.random() < 0.5:
            word = conj(W(*_random_reduced(rng, rng.randint(1, 3))), word)
        yield word
    for _ in range(50):  # single-generator words, some conjugated
        word = W((rng.randint(1, 3), rng.choice([-5, -2, -1, 1, 3, 7])))
        yield conj(W(*_random_reduced(rng, rng.randint(0, 3))), word)
    for g in (1, 2, 3):  # one-letter words of both signs, bare and conjugated
        for e in (1, -1, 4, -4):
            yield W((g, e))
            yield conj(W((g % 3 + 1, 1), ((g + 1) % 3 + 1, -2)), W((g, e)))
    # commutators and their relatives: the inverse of each is built from the
    # same letters in another order, so its rotations share long prefixes
    # with the word's own
    a, b, c = (1, 1), (2, 1), (3, 1)
    A, B, C = (1, -1), (2, -1), (3, -1)
    for letters in (
        (a, b, A, B),
        (b, a, B, A),
        (a, b, A, B) * 3,
        (a, b, A, B, b, a, B, A),
        (a, b, c, A, B, C),
        (a, b, A, B, c),
        (a, B, A, b),
        ((1, 2), (2, 3), (1, -2), (2, -3)),
    ):
        yield W(*letters)
        yield conj(W(c), W(*letters))


def test_canonical_root_matches_the_quadratic_scan():
    """Also: the root and inverse scans never tie, since a nontrivial
    element of a free group is not conjugate to its inverse."""
    rng = random.Random(2024)
    count = 0
    for word in _seeded_words(rng):
        word = free_reduce(word)
        if word.is_identity:
            continue
        assert canonical_root(word.letters) == quadratic_canonical_root(word.letters), word
        root = primitive_root(word.letters).root
        inverse = inv_letters(root)
        assert all(inverse[i:] + inverse[:i] != root for i in range(len(root)))
        count += 1
    assert count >= 300


def test_long_attachments_stay_linear(tmp_path):
    """`verdict` on two 8000-letter attachments: the rotation scan alone was
    O(L^2) and took over a minute."""
    rng = random.Random(8000)
    letters = _random_reduced(rng, 8000, gens=2, exp_max=1)
    word = " ".join(f"v.{g}^{e}" for g, e in letters)
    path = tmp_path / "long.gog"
    path.write_text(
        "vertex u free 1\nvertex v free 2\n"
        f'edge a from=v to=u img_from="{word}" img_to="u.1^2"\n'
        f'edge b from=v to=u img_from="{word}" img_to="u.1^3"\n',
        encoding="utf-8",
    )
    start = time.perf_counter()
    code, payload = run(["verdict", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0 and payload["status"] == "NotHHG" and payload["verified"]
    assert elapsed < 2.0, elapsed
