import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcells.dihedral import DihedralElement, DihedralGroup

from conftest import all_words, flag_permutation


def test_make_element_examples():
    g4 = DihedralGroup(4)
    assert g4.element("ss").is_identity
    assert g4.element("tst") == DihedralElement("t", 3)
    g5 = DihedralGroup(5)
    assert g5.element("ststs") == DihedralElement(None, 5)
    assert g5.element("ststs").is_longest
    assert g4.element("") .is_identity
    assert g4.element("e").is_identity


@pytest.mark.parametrize("n", range(2, 7))
def test_make_element_matches_flag_model(n, flag_tables):
    group = DihedralGroup(n)
    for word in all_words("st", 2 * n + 1):
        assert group.element(word) == flag_tables[n][flag_permutation(n, word)]


def test_multiply_examples():
    g4 = DihedralGroup(4)
    s = g4.element("s")
    assert g4.multiply(s, s).is_identity
    sts = g4.element("sts")
    assert g4.multiply(sts, sts).is_identity
    st = g4.element("st")
    assert g4.multiply(st, st) == g4.element("stst")
    assert g4.multiply(st, st).is_longest


@pytest.mark.parametrize("n", range(2, 7))
def test_multiply_matches_flag_model(n, flag_tables):
    group = DihedralGroup(n)
    for u in group.elements():
        for v in group.elements():
            perm = flag_permutation(n, group.word(u) + group.word(v))
            assert group.multiply(u, v) == flag_tables[n][perm]


@given(
    n=st.integers(min_value=2, max_value=9),
    words=st.lists(st.text(alphabet="st", max_size=6), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_multiply_associative(n, words):
    group = DihedralGroup(n)
    u, v, w = (group.element(word) for word in words)
    assert group.multiply(group.multiply(u, v), w) == group.multiply(
        u, group.multiply(v, w)
    )


@given(n=st.integers(min_value=2, max_value=9), word=st.text(alphabet="st", max_size=8))
@settings(max_examples=150, deadline=None)
def test_inverse_is_reversed_word(n, word):
    group = DihedralGroup(n)
    el = group.element(word)
    assert group.inverse(el) == group.element(word[::-1])
    assert group.multiply(el, group.inverse(el)).is_identity


def test_length():
    g5 = DihedralGroup(5)
    assert g5.element("").length == 0
    assert g5.element("ststs").length == 5
    assert g5.element("sts").length == 3
    assert g5.element("ststst").length == 4  # st st st = ts ts in D_10


def test_enumerate_elements():
    g3 = DihedralGroup(3)
    assert [g3.label(el) for el in g3.elements()] == ["e", "s", "t", "st", "ts", "w0"]
    assert len(DihedralGroup(4).elements()) == 8
    assert len(DihedralGroup(5).elements()) == 10
    for n in range(2, 8):
        lengths = [el.length for el in DihedralGroup(n).elements()]
        assert lengths == sorted(lengths)


def test_descents():
    g4 = DihedralGroup(4)
    assert g4.right_descents(g4.element("")) == frozenset()
    assert g4.right_descents(g4.element("w0")) == {"s", "t"}
    assert g4.left_descents(g4.element("w0")) == {"s", "t"}
    assert g4.right_descents(g4.element("sts")) == {"s"}
    assert g4.left_descents(g4.element("sts")) == {"s"}
    assert g4.right_descents(g4.element("st")) == {"t"}
    assert g4.left_descents(g4.element("st")) == {"s"}


def test_bruhat_examples():
    g4 = DihedralGroup(4)
    e, s, t = g4.element(""), g4.element("s"), g4.element("t")
    for v in g4.elements():
        assert g4.bruhat_leq(e, v)
    assert g4.bruhat_leq(s, g4.element("ts"))
    assert not g4.bruhat_leq(s, t)
    assert not g4.bruhat_leq(t, s)


def _subword_reference(group, u, v):
    """All subsequences of the fixed reduced word for v, reduced one by one."""
    word = group.word(v).replace("e", "")
    for mask in itertools.product((0, 1), repeat=len(word)):
        sub = "".join(letter for letter, keep in zip(word, mask) if keep)
        if group.element(sub) == u:
            return True
    return False


@pytest.mark.parametrize("n", range(2, 9))
def test_bruhat_matches_subword_oracle(n):
    group = DihedralGroup(n)
    for u in group.elements():
        for v in group.elements():
            expected = _subword_reference(group, u, v)
            assert group.bruhat_leq_subword(u, v) == expected
            assert group.bruhat_leq(u, v) == expected


@pytest.mark.parametrize("n", range(9, 13))
def test_bruhat_matches_subword_products_beyond_eight(n):
    group = DihedralGroup(n)
    for u in group.elements():
        for v in group.elements():
            assert group.bruhat_leq(u, v) == group.bruhat_leq_subword(u, v)


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        DihedralGroup(4).element("sx")
    with pytest.raises(ValueError):
        DihedralGroup(1)


def _alternating(start: str, length: int) -> str:
    other = "t" if start == "s" else "s"
    return ((start + other) * length)[:length]


def _rewrite_product(n: int, u: DihedralElement, v: DihedralElement) -> DihedralElement:
    """u*v by string rewriting alone: write out both alternating words, cancel
    ss and tt, and fold an alternating word longer than n by the braid
    relation (its first n letters become the other alternating word of length
    n, which is (st)^n = e), until the word is reduced."""
    word = "".join(_alternating(el.start or "s", el.length) for el in (u, v))
    while True:
        if "ss" in word or "tt" in word:
            word = word.replace("ss", "").replace("tt", "")
        elif len(word) > n:
            word = _alternating("t" if word[0] == "s" else "s", n) + word[n:]
        else:
            break
    if len(word) in (0, n):
        return DihedralElement(None, len(word))
    return DihedralElement(word[0], len(word))


@pytest.mark.parametrize("n", range(2, 13))
def test_multiply_matches_rewriting_oracle(n):
    group = DihedralGroup(n)
    els = group.elements()
    for u in els:
        for v in els:
            assert group.multiply(u, v) == _rewrite_product(n, u, v), (u, v)


def test_element_repr_equality_and_hash():
    built = DihedralElement("s", 3)
    assert repr(built) == "DihedralElement(start='s', length=3)"
    assert repr(DihedralElement(None, 0)) == "DihedralElement(start=None, length=0)"
    g5 = DihedralGroup(5)
    reduced = g5.element("tsststs")  # t(ss)tsts, then (tt)sts
    product = g5.multiply(g5.element("st"), g5.element("s"))
    for other in (reduced, product, DihedralGroup(5).element("sts")):
        assert other == built and hash(other) == hash(built)
        assert {built: "sts"}[other] == "sts"
    assert built != DihedralElement("t", 3)
    assert (built.start, built.length) == ("s", 3)
    longest = DihedralElement(None, 5)
    assert longest.is_longest and not longest.is_identity
