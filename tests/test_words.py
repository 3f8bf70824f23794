import random
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_word_tokens, rewriting_bfs_trivial, _norm_tokens, _rewrite_moves
import oracles
from gogh import dihedral as dih
from gogh import freewords as fw
from gogh.cli import display_tokens, int_str, parse, parse_int
from gogh.model import (
    DihedralInfinite,
    Free,
    GoghError,
    ValidationError,
    VertexWord,
    edge_attachments,
    edge_endpoints,
    reverse_step,
    tree_steps,
)
from gogh.words import (
    PathWord,
    _image_data,
    are_equal,
    britton_reduce,
    is_trivial,
    to_path_form,
    tokens_of_path,
    tokens_of_vertex_word,
    invert_tokens,
)
from oracles import (
    SearchBudgetExceeded,
    bounded_conjugator_search,
    has_pinch,
    pinch_membership,
    vw_mul,
    vw_pow,
)


def path(graph, text_tokens, base=None):
    return to_path_form(graph, text_tokens, base)


# -- path forms ------------------------------------------------------------------


def test_tree_letter_insertion(trefoil):
    p = path(trefoil, [("g", "u", 1, 1), ("g", "v", 1, 1)], "u")
    assert p.base == "u"
    assert p.head == VertexWord("u", ((1, 1),))
    steps = p.steps()
    assert steps == [("e", 1), ("e", -1)]  # over to v, then closed back
    assert p.tail[0][1] == VertexWord("v", ((1, 1),))
    # the inserted letters are tree letters, so the element is unchanged
    assert are_equal(trefoil, p, path(trefoil, [("g", "u", 1, 1), ("g", "v", 1, 1)], "u"))
    assert display_tokens(trefoil, tokens_of_path(p)) == "u.1 v.1"


def test_path_form_idempotent_on_path_words(bs32):
    tokens = [("g", "v", 1, 1), ("t", "e", 1), ("g", "v", 1, 2), ("t", "e", -1)]
    p = path(bs32, tokens, "v")
    again = to_path_form(bs32, tokens_of_path(p), "v")
    assert again == p


def test_rebasing_conjugates_by_tree_path(trefoil):
    tokens = [("g", "v", 1, 3)]
    at_v = path(trefoil, tokens, "v")
    at_u = path(trefoil, tokens, "u")
    # tree letters are trivial, so both represent the same element
    assert are_equal(trefoil, at_v, at_u)
    assert at_u.base == "u"


def _reference_path_form(graph, tokens, base=None):
    """The path form built one letter at a time: each letter is multiplied
    into its syllable with fw.mul_letters or dih.dmul."""
    if base is None:
        base = min(graph.vertex_ids())
        for tok in tokens:
            if tok[0] == "g":
                base = tok[1]
            else:
                base = edge_endpoints(graph, (tok[1], 1 if tok[2] > 0 else -1))[0]
            break
    syllables = [VertexWord(base, ())]
    steps = []

    def walk(step):
        steps.append(step)
        syllables.append(VertexWord(edge_endpoints(graph, step)[1], ()))

    def goto(vertex):
        for step in tree_steps(graph, syllables[-1].vertex, vertex):
            walk(step)

    for tok in tokens:
        if tok[0] == "g":
            _, vertex, gen, exp = tok
            if exp == 0:
                continue
            goto(vertex)
            word = syllables[-1]
            letter = VertexWord(vertex, ((gen, exp),))
            if isinstance(graph.kind(vertex), Free):
                syllables[-1] = VertexWord(vertex, fw.mul_letters(word.letters, letter.letters))
            else:
                el = dih.dmul(dih.word_to_element(word), dih.word_to_element(letter))
                syllables[-1] = dih.element_to_word(vertex, el)
        else:
            _, edge, exp = tok
            step = (edge, 1 if exp > 0 else -1)
            for _ in range(abs(exp)):
                goto(edge_endpoints(graph, step)[0])
                walk(step)
    goto(base)
    return PathWord(base, syllables[0], tuple(zip(steps, syllables[1:])))


def test_path_form_matches_letter_by_letter_reference():
    rng = random.Random(41)
    kinds = set()
    for _ in range(300):
        g = random_graph(rng, v_max=4, e_max=5, rank2_prob=0.4)
        kinds.update(type(k) if isinstance(k, DihedralInfinite) else k.rank for _, k in g.vertices)
        tokens = random_word_tokens(rng, g, syllables=12)
        if rng.random() < 0.5:  # a tail that cancels against the word's end
            tokens += invert_tokens(tokens)[: rng.randint(1, len(tokens))]
        for _ in range(rng.randint(0, 3)):
            tok = list(rng.choice(tokens))
            if tok[0] == "t" and rng.random() < 0.6:
                tok[2] *= rng.randint(2, 5)  # e.t^N and e.t^-N
            else:
                tok[-1] = 0
            tokens.insert(rng.randint(0, len(tokens)), tuple(tok))
        base = rng.choice([None, rng.choice(g.vertex_ids())])
        assert to_path_form(g, tokens, base) == _reference_path_form(g, tokens, base)
    assert {DihedralInfinite, 1, 2} <= kinds


def test_path_form_reduces_each_letter_once(monkeypatch):
    n = 2000
    g = parse("vertex v free 2\n")
    tokens = [("g", "v", 1 + i % 2, 1) for i in range(n)]
    fed = []
    reduce_letters = fw.reduce_letters

    def counting(seq):
        seq = list(seq)
        fed.append(len(seq))
        return reduce_letters(seq)

    monkeypatch.setattr(fw, "reduce_letters", counting)
    p = to_path_form(g, tokens, "v")
    assert p.head.letters == ((1, 1), (2, 1)) * (n // 2) and not p.tail
    assert sum(fed) <= 2 * n


def test_path_form_unknown_names_are_validation_errors(bs32):
    with pytest.raises(ValidationError) as err:
        to_path_form(bs32, [("g", "nosuch", 1, 1)], "v")
    assert err.value.code == "UnknownVertex"
    with pytest.raises(ValidationError) as err:
        to_path_form(bs32, [("t", "nosuch", 1)], "v")
    assert err.value.code == "UnknownEdge"


# -- pinch membership ---------------------------------------------------------------


def test_membership_in_cyclic_image(bs32):
    assert pinch_membership(bs32, "e", VertexWord("v", ((1, 6),))) == 3
    assert pinch_membership(bs32, "e", VertexWord("v", ((1, 1),))) is None
    assert pinch_membership(bs32, "e", VertexWord("v", ())) == 0
    # source side: powers of v^3
    assert pinch_membership(bs32, "e", VertexWord("v", ((1, -9),)), sign=-1) == -3


def test_membership_multi_letter_attachment():
    from gogh.cli import display_tokens, int_str, parse, parse_int

    g = parse(
        'vertex v free 2\n'
        'edge e from=v to=v img_from="v.1" img_to="v.1 v.2"\n'
    )
    ab2 = VertexWord("v", ((1, 1), (2, 1), (1, 1), (2, 1)))
    assert pinch_membership(g, "e", ab2) == 2
    assert pinch_membership(g, "e", VertexWord("v", ((1, 1),))) is None
    inv = VertexWord("v", ((2, -1), (1, -1)))
    assert pinch_membership(g, "e", inv) == -1


def test_one_letter_image_data_is_the_primitive_root_data():
    """_image_data reads a one-letter free g^k as ((), (), ((g, 1),), k),
    which must be what the primitive-root route gives: for generators 1..3
    of a rank-3 vertex, exponents +-1..+-7 and exponents past 2^64."""
    big = [2**64 + 1, 3**41, 2**100]
    for g in (1, 2, 3):
        for k in [*range(1, 8), *big]:
            for exp in (k, -k):
                att = VertexWord("v", ((g, exp),))
                rd = fw.primitive_root(att.letters)
                c = rd.conjugator
                want = (fw.inv_letters(c), c, rd.root, rd.exponent)
                assert _image_data(Free(3), att) == want, att
                assert want == ((), (), ((g, 1),), exp)


def test_membership_dihedral(dihedral_loop):
    assert pinch_membership(dihedral_loop, "e", VertexWord("d", (("r", 6),))) == 3
    assert pinch_membership(dihedral_loop, "e", VertexWord("d", (("r", 3),))) is None
    assert pinch_membership(dihedral_loop, "e", VertexWord("d", (("s", 1),))) is None


# -- Britton reduction ---------------------------------------------------------------


def test_defining_relation_reduces_to_identity(bs32):
    tokens = [("t", "e", 1), ("g", "v", 1, 2), ("t", "e", -1), ("g", "v", 1, -3)]
    reduced = britton_reduce(bs32, path(bs32, tokens, "v"))
    assert not reduced.tail
    assert reduced.head.is_identity


def test_irreducible_word_unchanged(bs32):
    tokens = [("t", "e", 1), ("g", "v", 1, 1), ("t", "e", -1)]
    p = path(bs32, tokens, "v")
    reduced = britton_reduce(bs32, p)
    assert reduced == p
    assert not has_pinch(bs32, reduced)
    # bounded rewriting BFS confirms no shorter equal word at depth <= 6:
    # each move preserves the element and no reachable state is shorter
    seen = {_norm_tokens(bs32, tokens)}
    frontier = list(seen)
    for _ in range(6):
        nxt = []
        for state in frontier:
            for move in _rewrite_moves(bs32, state):
                move = _norm_tokens(bs32, move)
                if move not in seen:
                    seen.add(move)
                    nxt.append(move)
        frontier = nxt
    shortest = min(len(state) for state in seen)
    assert shortest >= len(_norm_tokens(bs32, tokens))


def test_stable_letter_powers_expand(bs32):
    # t^2 v^4 t^-2 = v^9, written with exponents on the stable letters
    tokens = [("t", "e", 2), ("g", "v", 1, 4), ("t", "e", -2), ("g", "v", 1, -9)]
    assert is_trivial(bs32, tokens)


def test_relation_read_backwards(bs32):
    tokens = [("t", "e", -1), ("g", "v", 1, 3), ("t", "e", 1)]
    reduced = britton_reduce(bs32, path(bs32, tokens, "v"))
    assert not reduced.tail
    assert reduced.head == VertexWord("v", ((1, 2),))


def test_exponent_compression_survives_reduction(bs32):
    # t^41 v^(2^41) t^-41 = v^(3^41) handled purely arithmetically
    tokens = (
        [("t", "e", 1)] * 41
        + [("g", "v", 1, 2**41)]
        + [("t", "e", -1)] * 41
        + [("g", "v", 1, -(3**41))]
    )
    assert is_trivial(bs32, tokens)
    off_by_one = (
        [("t", "e", 1)] * 41
        + [("g", "v", 1, 2**41)]
        + [("t", "e", -1)] * 41
        + [("g", "v", 1, -(3**41) + 1)]
    )
    assert not is_trivial(bs32, off_by_one)


def reference_britton_reduce(graph, w):
    """Britton reduction as one stack pass in which every pinch asks
    pinch_membership and re-normalises the whole syllable it merges into:
    below * attachment^k * incoming, concatenated and normalised."""
    stack = [(None, w.head)]
    for step, syllable in w.tail:
        top_step, top = stack[-1]
        k = None
        if top_step == reverse_step(step):
            k = pinch_membership(graph, top_step[0], top, top_step[1])
        if k is None:
            stack.append((step, syllable))
            continue
        stack.pop()
        att = edge_attachments(graph, top_step)[0]
        kind = graph.kind(att.vertex)
        below_step, below = stack[-1]
        stack[-1] = (below_step, vw_mul(kind, below, vw_pow(kind, att, k), syllable))
    return PathWord(w.base, stack[0][1], tuple(stack[1:]))


def _pinch_heavy_tokens(rng, graph, depth=3):
    """Random letters around sandwiches t g t^-1 whose middle g is a power
    of the edge's target attachment times nested sandwiches, so pinches
    chain and merge into the syllables below them."""
    tokens = random_word_tokens(rng, graph, syllables=4)
    if depth == 0 or not graph.edges:
        return tokens
    for _ in range(rng.randint(1, 3)):
        step = (rng.choice(graph.edge_ids()), rng.choice((1, -1)))
        target = edge_attachments(graph, step)[1]
        middle = tokens_of_vertex_word(vw_pow(graph.kind(target.vertex), target, rng.randint(-3, 3)))
        if rng.random() < 0.5:
            inner = _pinch_heavy_tokens(rng, graph, depth - 1)
            middle += inner + invert_tokens(inner)
        if rng.random() < 0.3:  # a stray letter: the sandwich may not pinch
            middle += random_word_tokens(rng, graph, syllables=1)
        sandwich = [("t", step[0], step[1])] + middle + [("t", step[0], -step[1])]
        at = rng.randint(0, len(tokens))
        tokens[at:at] = sandwich
    return tokens


def _reduce_both(graph, tokens, base=None):
    p = to_path_form(graph, tokens, base)
    reduced = britton_reduce(graph, p)
    assert reduced == reference_britton_reduce(graph, p)
    assert not has_pinch(graph, reduced)
    return p, reduced


def test_reduction_matches_the_reference_on_random_words():
    rng = random.Random(53)
    kinds, shapes, pinched = set(), set(), 0
    for _ in range(320):
        g = random_graph(rng, v_max=3, e_max=4, rank2_prob=0.4)
        kinds.update(type(k) if isinstance(k, DihedralInfinite) else k.rank for _, k in g.vertices)
        shapes.update(
            len(e.attachment_target.letters) for e in g.edges if isinstance(g.kind(e.target), Free)
        )
        tokens = _pinch_heavy_tokens(rng, g)
        p, reduced = _reduce_both(g, tokens, rng.choice([None, rng.choice(g.vertex_ids())]))
        pinched += len(reduced.tail) < len(p.tail)
    assert {DihedralInfinite, 1, 2} <= kinds
    assert {1, 3} <= shapes and max(shapes) >= 4  # conjugated and multi-letter attachments
    assert pinched >= 200


def test_reduction_matches_the_reference_on_the_merge_family():
    g = parse('vertex v free 2\nedge e from=v to=v img_from="v.1^3" img_to="v.1^2"\n')
    piece = [("g", "v", 2, 1), ("t", "e", 1), ("g", "v", 1, 2), ("t", "e", -1)]
    for m in range(1, 61):
        _, reduced = _reduce_both(g, piece * m, "v")
        assert not reduced.tail and reduced.head.letters == ((2, 1), (1, 3)) * m
    # a growing syllable that each incoming e.t^-1 tests and leaves in place
    piece = [("t", "e", -1), ("g", "v", 1, 3), ("t", "e", 1), ("g", "v", 2, 1)]
    for img_to in ("v.1^2", "v.2 v.1^2 v.2^-1", "v.2 v.1^2 v.2^-1 v.1", "v.2 v.1 v.2 v.1^2 v.2^-1"):
        g = parse(f'vertex v free 2\nedge e from=v to=v img_from="v.1^3" img_to="{img_to}"\n')
        for m in range(61):
            tokens = [("t", "e", 1), ("g", "v", 2, 1)] + piece * m + [("t", "e", -1)]
            _, reduced = _reduce_both(g, tokens, "v")
            assert len(reduced.tail) == 2


def test_reduction_matches_the_reference_against_a_conjugated_root():
    """Syllables against e's target image v.2 v.1 v.2 v.1^2 v.2^-1, which is
    c root c^-1 with c = v.2 v.1^-2 and root v.1^3 v.2: its powers, which
    pinch, and its powers times one letter at the start, in the middle or
    at the end, which mostly do not.  Most are long enough that the pinch
    test reads the two ends of c^-1 g c before its middle.  pinch_membership
    agrees with the powers written out, and reduction with the reference."""
    g = parse(
        'vertex v free 2\nedge e from=v to=v img_from="v.1^3" img_to="v.2 v.1 v.2 v.1^2 v.2^-1"\n'
    )
    kind = g.kind("v")
    att = g.edge("e").attachment_target
    powers = {vw_pow(kind, att, k).letters: k for k in range(-40, 41)}
    rng = random.Random(29)
    pinched = 0
    for q in range(-30, 31):
        for where in ("none", "start", "middle", "end"):
            letters = list(vw_pow(kind, att, q).letters)
            at = {"none": None, "start": 0, "middle": len(letters) // 2, "end": len(letters)}[where]
            if at is not None:
                letters[at:at] = [(rng.choice((1, 2)), rng.choice((-1, 1)))]
            word = vw_mul(kind, VertexWord("v", tuple(letters)))
            assert pinch_membership(g, "e", word, 1) == powers.get(word.letters), (q, where)
            sandwich = [("t", "e", 1)] + tokens_of_vertex_word(word) + [("t", "e", -1)]
            tokens = sandwich + [("g", "v", 2, 1)]
            p, reduced = _reduce_both(g, tokens, "v")
            pinched += len(reduced.tail) < len(p.tail)
    assert pinched >= 61


def test_reduction_matches_the_reference_on_bs_towers():
    values = [x for x in range(-6, 7) if x]
    for m in values:
        for n in values:
            if abs(m) == abs(n):
                continue
            g = parse(f'vertex v free 1\nedge e from=v to=v img_from="v.1^{m}" img_to="v.1^{n}"\n')
            for big_n in range(41):
                for x in {n, n**big_n, m * n**big_n + 1}:
                    tokens = [("t", "e", big_n), ("g", "v", 1, x), ("t", "e", -big_n)]
                    _reduce_both(g, tokens, "v")


# -- word problem --------------------------------------------------------------------


def test_ww_inverse_trivial_random():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, v_max=3, e_max=3)
        tokens = random_word_tokens(rng, g)
        assert is_trivial(g, tokens + invert_tokens(tokens))


def test_bs32_relation_trivial_and_nonrelation_not(bs32):
    rel = [("t", "e", 1), ("g", "v", 1, 2), ("t", "e", -1), ("g", "v", 1, -3)]
    assert is_trivial(bs32, rel)
    non = [("t", "e", 1), ("g", "v", 1, 1), ("t", "e", -1), ("g", "v", 1, -1)]
    assert not is_trivial(bs32, non)
    assert rewriting_bfs_trivial(bs32, non, depth=6) is not True


def test_oracle_agreement_sample():
    rng = random.Random(23)
    for _ in range(120):
        g = random_graph(rng, v_max=3, e_max=3, rank2_prob=0.1)
        tokens = random_word_tokens(rng, g, syllables=6)
        verdict = is_trivial(g, tokens)
        oracle = rewriting_bfs_trivial(g, tokens, depth=10, node_cap=400)
        if verdict:
            assert oracle is True
        else:
            assert oracle is not True


def test_conjugation_invariance():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng, v_max=3, e_max=3)
        w = random_word_tokens(rng, g, syllables=5)
        c = random_word_tokens(rng, g, syllables=3)
        conjugated = c + w + invert_tokens(c)
        assert is_trivial(g, conjugated) == is_trivial(g, w)


def test_soundness_of_reduction():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, v_max=3, e_max=3)
        tokens = random_word_tokens(rng, g)
        p = to_path_form(g, tokens)
        reduced = britton_reduce(g, p)
        assert not has_pinch(g, reduced)
        assert are_equal(g, p, reduced)


# -- bounded conjugator search --------------------------------------------------------


def test_identity_conjugator(bs32):
    x = VertexWord("v", ((1, 2),))
    h = bounded_conjugator_search(bs32, x, x, 2, 2)
    assert h is not None and is_trivial(bs32, h)


def test_defining_relation_conjugator(bs32):
    x = VertexWord("v", ((1, 2),))
    y = VertexWord("v", ((1, 3),))
    h = bounded_conjugator_search(bs32, x, y, 1, 1)
    assert h is not None
    assert tokens_of_path(h) == [("t", "e", 1)]


def test_conjugator_search_reverifies_its_hit_without_asserts(bs32, monkeypatch):
    # an explicit raise, so `python -O` cannot strip the re-verification
    monkeypatch.setattr(oracles, "are_equal", lambda *args: False)
    x = VertexWord("v", ((1, 2),))
    y = VertexWord("v", ((1, 3),))
    with pytest.raises(GoghError, match="re-verification"):
        bounded_conjugator_search(bs32, x, y, 1, 1)


def test_f2_example_conjugator(f2_example):
    x = VertexWord("v", ((1, 3),))
    y = VertexWord("v", ((1, 2),))
    h = bounded_conjugator_search(f2_example, x, y, 3, 1)
    assert h is not None
    conj = tokens_of_path(h)
    lhs = conj + [("g", "v", 1, 3)] + invert_tokens(conj) + [("g", "v", 1, -2)]
    assert is_trivial(f2_example, lhs)
    assert conj == [("g", "v", 2, -1), ("t", "e", -1)]


def test_search_budget_error(f2_example):
    x = VertexWord("v", ((1, 1),))
    y = VertexWord("v", ((2, 1),))
    with pytest.raises(SearchBudgetExceeded):
        bounded_conjugator_search(f2_example, x, y, 6, 4, node_cap=50)


# -- numerals ------------------------------------------------------------------

# around the interpreter's default limit of 4300 digits on int <-> str
NUMERALS = [
    "9" * 4299,
    "9" * 4300,
    "9" * 4301,
    "-" + "1" * 4300,
    "-" + "1" * 4301,
    "0",
    "-0",
    "007",
    "-0012",
    "\u0661\u0662",  # Arabic-Indic "12": a Unicode decimal numeral
    "-\u0661\u0662",
    # fraction, underscore and small-exponent forms
    "1.5",
    "-12.0",
    "1_000",
    "1e3",
    "-2E2",
]


@pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "limit-640"])
def test_numerals_equal_the_decimal_conversion(limit):
    if limit is not None and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str digit limit")
    old = sys.get_int_max_str_digits() if limit is not None else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        for numeral in NUMERALS:
            value = int(Decimal(numeral))
            assert parse_int(numeral) == value
            assert int_str(value) == str(Decimal(value))
            assert int_str(-value) == str(Decimal(-value))
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def test_int_str_writes_a_non_int_as_decimal_does():
    for value in (True, False, 2.0, -3.5):
        assert int_str(value) == str(Decimal(value))


def _outcome(convert, value):
    try:
        return convert(value)
    except Exception as exc:  # the error type is part of the contract
        return type(exc)


# No exponent marker: "9e9999999999" is 12 characters and denotes an integer
# of 10**10 digits, which neither conversion can build in bounded time or
# memory.  Small exponents are among NUMERALS above.
@settings(max_examples=500)
@given(st.text(alphabet="0123456789-+_ \t\x1c.\u0661\u0662\u2003", max_size=12))
def test_parse_int_equals_the_decimal_conversion_on_any_text(text):
    assert _outcome(parse_int, text) == _outcome(lambda s: int(Decimal(s)), text)
