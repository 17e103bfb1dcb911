"""Coxeter combinatorics of the dihedral group D_2n = <s, t | s^2 = t^2 = (st)^n = e>.

Every non-trivial element is an alternating word in s and t, pinned down by its
first letter and its length, except that the two words of length n coincide in
the longest element w0.  Elements are stored in that two-parameter normal form,
as a named tuple, so hashing and equality run in C.  Group arithmetic routes
through the rotation/reflection model (a residue mod n plus a flip flag):
multiply reads two tables built once per n from that model, one sending each
element to its (rotation, flip) pair and one sending each pair back.

The Bruhat order is decided by length alone: u <= v iff u == v or
l(u) < l(v), since every shorter element is a product of a subword of each
reduced word of v.  bruhat_leq_subword enumerates subwords; it stays as the
oracle that the tests and the verify suite compare bruhat_leq with.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

GENERATORS = ("s", "t")

__all__ = ["DihedralElement", "DihedralGroup", "GENERATORS"]


class DihedralElement(NamedTuple):
    """Normal form of a dihedral group element.

    ``start`` is the first letter of the alternating word and is None for the
    identity (length 0) and for the longest element (length n, where both
    alternating words agree).
    """

    start: str | None
    length: int

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    @property
    def is_longest(self) -> bool:
        return self.start is None and self.length > 0


IDENTITY = DihedralElement(None, 0)


def _other(letter: str) -> str:
    return "t" if letter == "s" else "s"


class DihedralGroup:
    """Parameter pack for D_2n (n >= 2) with the group operations."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"dihedral exponent must be at least 2, got {n}")
        self.n = n
        self._pair_of, self._of_pair = _product_tables(n)

    def __repr__(self) -> str:
        return f"DihedralGroup({self.n})"

    # -- construction and arithmetic -----------------------------------------

    def element(self, word: str | Iterable[str]) -> DihedralElement:
        """Canonical form of a product of generators; "" or "e" is the identity.

        The label "w0" is accepted for the longest element.
        """
        if isinstance(word, str):
            if word in ("", "e"):
                return IDENTITY
            if word == "w0":
                return DihedralElement(None, self.n)
            letters: Iterable[str] = word
        else:
            letters = word
        k, flip = 0, 0
        for letter in letters:
            if letter not in GENERATORS:
                raise ValueError(f"letters must be in {GENERATORS}, got {letter!r}")
            shift = 0 if letter == "s" else 1
            k = k + (shift if flip == 0 else -shift)
            flip ^= 1
        return _from_pair(self.n, k, flip)

    def multiply(self, u: DihedralElement, v: DihedralElement) -> DihedralElement:
        """u*v, for elements of this group (KeyError for any other value)."""
        ku, fu = self._pair_of[u]
        kv, fv = self._pair_of[v]
        return self._of_pair[fu ^ fv][(ku - kv if fu else ku + kv) % self.n]

    def inverse(self, el: DihedralElement) -> DihedralElement:
        # the inverse of an alternating word is its reversal
        if el.start is None or el.length % 2 == 1:
            return el
        return DihedralElement(_other(el.start), el.length)

    def word(self, el: DihedralElement) -> str:
        """A reduced word for el ("e" for the identity; w0 starts with s)."""
        if el.is_identity:
            return "e"
        letter = "s" if el.start is None else el.start
        out = []
        for _ in range(el.length):
            out.append(letter)
            letter = _other(letter)
        return "".join(out)

    def label(self, el: DihedralElement) -> str:
        """Display label: "e", the alternating word, or "w0"."""
        if el.is_identity:
            return "e"
        if el.is_longest:
            return "w0"
        return self.word(el)

    def elements(self) -> tuple[DihedralElement, ...]:
        """All 2n elements, by length, with start letter s before t."""
        out = [IDENTITY]
        for k in range(1, self.n):
            out.append(DihedralElement("s", k))
            out.append(DihedralElement("t", k))
        out.append(DihedralElement(None, self.n))
        return tuple(out)

    # -- descents and Bruhat order -------------------------------------------

    def right_descents(self, el: DihedralElement) -> frozenset[str]:
        return frozenset(
            g for g in GENERATORS
            if self.multiply(el, self.element(g)).length < el.length
        )

    def left_descents(self, el: DihedralElement) -> frozenset[str]:
        return frozenset(
            g for g in GENERATORS
            if self.multiply(self.element(g), el).length < el.length
        )

    def bruhat_leq_subword(self, u: DihedralElement, v: DihedralElement) -> bool:
        """Reference Bruhat test: u is a product of a subsequence of a reduced
        word for v (the order is independent of which reduced word is fixed)."""
        return u in _subword_products(self.n, v)

    def bruhat_leq(self, u: DihedralElement, v: DihedralElement) -> bool:
        """Bruhat order by the dihedral length rule: u == v or l(u) < l(v)."""
        return u == v or u.length < v.length


def _from_pair(n: int, k: int, flip: int) -> DihedralElement:
    """The normal form of the element (k, flip) of D_2n.

    The model is the semidirect product Z_n x Z_2 with
    s = (0, 1), t = (1, 1) and (k1, e1)*(k2, e2) = (k1 + (-1)^e1 k2, e1+e2).
    """
    k %= n
    if flip == 0:
        if k == 0:
            return IDENTITY
        length_t = 2 * k
        length_s = 2 * (n - k)
    else:
        length_s = 2 * ((-k) % n) + 1
        length_t = 2 * ((k - 1) % n) + 1
    if length_s == length_t == n:
        return DihedralElement(None, n)
    if length_s < length_t:
        return DihedralElement("s", length_s)
    return DihedralElement("t", length_t)


@lru_cache(maxsize=None)
def _product_tables(
    n: int,
) -> tuple[dict[DihedralElement, tuple[int, int]], tuple[tuple[DihedralElement, ...], ...]]:
    """Element -> (rotation, flip), and the elements indexed by [flip][rotation],
    for D_2n; keyed by n, so every DihedralGroup(n) shares them."""
    of_pair = tuple(tuple(_from_pair(n, k, flip) for k in range(n)) for flip in (0, 1))
    pair_of = {el: (k, flip) for flip, row in enumerate(of_pair) for k, el in enumerate(row)}
    return pair_of, of_pair


@lru_cache(maxsize=None)
def _subword_products(n: int, v: DihedralElement) -> frozenset[DihedralElement]:
    """Products of all subsequences of the fixed reduced word of v."""
    group = DihedralGroup(n)
    products = {IDENTITY}
    for letter in group.word(v).replace("e", ""):
        g = group.element(letter)
        products |= {group.multiply(p, g) for p in products}
    return frozenset(products)
