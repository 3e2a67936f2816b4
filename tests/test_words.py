import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whdetect import words
from whdetect.words import (
    Generator,
    Presentation,
    PresentationError,
    Word,
    WordError,
    free_reduce,
    make_presentation,
    parse_presentation,
    parse_word,
)
from whdetect.pipeline import free_abelian_rank

AB = (Generator("a"), Generator("x"))


def test_parse_cancelling_pair_is_empty():
    assert parse_word("a a^-1", AB) == Word()


def test_parse_dicyclic_relator():
    w = parse_word("x^-1 a x a", AB)
    assert w.letters == ((1, -1), (0, 1), (1, 1), (0, 1))


def test_parse_power():
    assert parse_word("a a a", AB).letters == ((0, 1),) * 3
    assert parse_word("a^3", AB).letters == ((0, 1),) * 3


def test_parse_uppercase_inverse():
    assert parse_word("A", AB) == parse_word("a^-1", AB)


def test_parse_errors():
    with pytest.raises(WordError):
        parse_word("z", AB)
    with pytest.raises(WordError):
        parse_word("a^", AB)


def test_letter_bound_is_checked_before_expanding(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 10)
    assert len(parse_word("a^4 x^-6", AB)) == 10
    for text in ("a^11", "a^-11", "a^6 x^5", "a " * 11):
        with pytest.raises(WordError):
            parse_word(text, AB)
    assert len(make_presentation(["a"], ["a^6", "a^4"]).relators) == 2
    with pytest.raises(PresentationError):
        make_presentation(["a"], ["a^6", "a^5"])


def test_free_reduce_examples():
    assert free_reduce([(0, 1), (0, -1), (1, 1)]) == ((1, 1),)
    assert free_reduce([]) == ()
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, -1)]) == ()


def test_invert_word_examples():
    assert Word(((0, 1), (1, 1))).inverse().letters == ((1, -1), (0, -1))
    assert Word().inverse() == Word()
    assert Word(((0, 1), (0, 1))).inverse().letters == ((0, -1), (0, -1))


letters = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=30
)


def letterwise(letters) -> tuple:
    """Free reduction one letter at a time: the oracle for the reduction by
    runs."""
    stack = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


@given(letters)
def test_free_reduce_matches_letterwise(ls):
    assert free_reduce(ls) == letterwise(ls)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-6, 6)), max_size=12))
def test_parsed_powers_reduce_as_runs(powers):
    """parse_word reduces each power as one run, partly cancelled runs
    included, to the word that reducing its letters one at a time gives,
    and ``runs()`` reads that word back as maximal runs."""
    text = " ".join(f"{AB[g].name}^{e}" for g, e in powers)
    written = [(g, 1 if e > 0 else -1) for g, e in powers for _ in range(abs(e))]
    w = parse_word(text, AB)
    assert w.letters == letterwise(written)
    runs = w.runs()
    assert tuple(x for x, m in runs for _ in range(m)) == w.letters
    assert all(x != y for (x, _), (y, _) in zip(runs, runs[1:]))


def test_parsed_power_shares_one_letter_tuple():
    """Each power's letters are one tuple, kept through free reduction."""
    w = parse_word("a^150 x a^-3 a^5", AB)
    assert len(w) == 153
    assert len({id(letter) for letter in w.letters}) == 3


@given(letters)
def test_free_reduce_idempotent(ls):
    once = free_reduce(ls)
    assert free_reduce(once) == once


@given(letters)
def test_word_times_inverse_is_identity(ls):
    w = Word(tuple(ls))
    assert not (w * w.inverse())
    assert not (w.inverse() * w)


@given(letters, letters)
def test_product_reduces(l1, l2):
    w = Word(tuple(l1)) * Word(tuple(l2))
    assert free_reduce(w.letters) == w.letters


def test_display_parse_roundtrip():
    gens = tuple(Generator(n) for n in "abc")
    w = parse_word("a^2 b^-1 c a", gens)
    assert parse_word(w.display(gens), gens) == w


def test_presentation_text_format():
    p = parse_presentation("gens: a, x; rels: a^4, x^2 a^-2, x^-1 a x a")
    assert [g.name for g in p.generators] == ["a", "x"]
    assert len(p.relators) == 3


def test_presentation_equation_normalization():
    p = make_presentation(["a", "x"], ["a^4", "x^2 = a^2", "x^-1 a x = a^-1"])
    q = make_presentation(["a", "x"], ["a^4", "x^2 a^-2", "x^-1 a x a"])
    assert p.relators == q.relators


def test_presentation_validation():
    with pytest.raises(PresentationError):
        Presentation((Generator("a"), Generator("a")))
    with pytest.raises(PresentationError):
        Presentation((Generator("a"),), (Word(((1, 1),)),))


@pytest.mark.parametrize("name", ["a", "x1", "_t", "a'", "Ab_2''"])
def test_generator_name_is_a_word_token(name):
    gens = (Generator(name),)
    assert parse_word(f"{name}^-2", gens) == Word(((0, -1), (0, -1)))


@pytest.mark.parametrize(
    "name", ["", "a b", "a\nrels: a^4", "1a", "a^2", "a,b", "-a", "a*b", "a "]
)
def test_generator_name_not_a_word_is_rejected(name):
    with pytest.raises(PresentationError):
        Generator(name)


def test_presentation_text_with_a_non_word_generator_is_rejected():
    with pytest.raises(PresentationError):
        parse_presentation("gens: a\nrels: a^4")
    with pytest.raises(PresentationError):
        parse_presentation("gens: a b; rels: a^4")


@pytest.mark.parametrize(
    "text",
    [
        "gens: a; rels: a^2; rels: a^3",
        "gens: a; gens: b; rels: b^3",
        "rels: a^2; gens: a; rels: a^3",
        "gens: a; rels: a^2; GENS: a",
        "gens: a; rels:; rels: a^3",
    ],
)
def test_repeated_section_is_rejected(text):
    with pytest.raises(PresentationError, match="repeated section"):
        parse_presentation(text)


def test_presentation_display_roundtrip():
    p = make_presentation(["a", "x"], ["a^4", "x^-1 a x a"])
    assert parse_presentation(p.display()).relators == p.relators


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 4), data=st.data())
def test_free_abelian_rank_matches_smith_normal_form(n, data):
    """The count of infinite cyclic invariant factors of Z^n / row-span(M),
    which the Smith normal form gives, is n minus the rank of M over Q."""
    M = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=6))
    gens = tuple(Generator(f"g{i}") for i in range(n))
    rels = tuple(
        Word(tuple((g, 1 if e > 0 else -1) for g, e in enumerate(row) for _ in range(abs(e))))
        for row in M
    )
    rank = np.linalg.matrix_rank(np.array(M, dtype=float).reshape(len(M), n))
    assert free_abelian_rank(Presentation(gens, rels)) == n - rank
