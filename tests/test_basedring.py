import itertools
import math
import re
import time
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcells import klring
from klcells.basedring import (
    BasedRing,
    RingError,
    RingFormatError,
    RingViolation,
    full_kl_ring,
    ring_from_text,
    ring_products,
    ring_to_text,
    subquotient_qn,
    verify,
)
from klcells.basedring import _generators
from klcells.klring import compute_cells

from conftest import cell_of


def as_dict(ring, x, y):
    return {ring.labels[z]: v for z, v in enumerate(ring.product(x, y)) if v}


def test_q5_table_is_the_reference_one():
    ring = subquotient_qn(5)
    assert ring.labels == ("e", "s", "sts")
    assert as_dict(ring, "s", "s") == {"s": 2}
    assert as_dict(ring, "s", "sts") == {"sts": 2}
    assert as_dict(ring, "sts", "s") == {"sts": 2}
    assert as_dict(ring, "sts", "sts") == {"s": 2, "sts": 2}
    assert as_dict(ring, "e", "sts") == {"sts": 1}


def test_q4_table_is_the_reference_one():
    ring = subquotient_qn(4)
    assert ring.labels == ("e", "s", "sts")
    assert as_dict(ring, "sts", "sts") == {"s": 2}
    assert as_dict(ring, "s", "sts") == {"sts": 2}


def test_q6_table_is_the_reference_one():
    ring = subquotient_qn(6)
    assert ring.labels == ("e", "s", "sts", "ststs")
    assert as_dict(ring, "sts", "sts") == {"s": 2, "sts": 2, "ststs": 2}
    assert as_dict(ring, "ststs", "ststs") == {"s": 2}
    assert as_dict(ring, "sts", "ststs") == {"sts": 2}
    assert as_dict(ring, "ststs", "sts") == {"sts": 2}
    assert as_dict(ring, "s", "ststs") == {"ststs": 2}


@pytest.mark.parametrize("n", range(3, 9))
def test_basis_size_formula(n):
    ring = subquotient_qn(n)
    assert ring.size == 1 + (n - 1 + 1) // 2
    assert verify(ring).ok


def _q5_with_s_sts_decremented():
    ring = subquotient_qn(5)
    table = [[[list(row) for row in plane] for plane in ring.c][x] for x in range(3)]
    table[1][2][2] -= 1  # decrement one coefficient of s*sts
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    return BasedRing(ring.labels, frozen, ring.identity)


def test_verify_flags_corruption():
    report = verify(_q5_with_s_sts_decremented())
    assert not report.ok
    assert any(v.axiom == "associativity" for v in report.violations)
    assert any(v.axiom == "anti-involution" for v in report.violations)
    assert all(v.witness for v in report.violations)
    assert "violation" in report.summary()


def test_verify_reports_every_violation_in_order():
    assert verify(_q5_with_s_sts_decremented()).violations == (
        RingViolation("associativity", (1, 1, 2, 2), "2 != 1"),
        RingViolation("associativity", (1, 2, 2, 1), "2 != 4"),
        RingViolation("associativity", (2, 1, 2, 1), "4 != 2"),
        RingViolation("associativity", (2, 1, 2, 2), "4 != 2"),
        RingViolation("associativity", (2, 2, 2, 2), "6 != 8"),
        RingViolation("anti-involution", (1, 2, 2), "1 != 2"),
        RingViolation("anti-involution", (2, 1, 2), "2 != 1"),
    )


def test_verify_accepts_a_decrement_that_happens_to_stay_a_ring():
    # dropping sts*sts from 2s+2sts to s+2sts yields a different but valid
    # based ring, so verify must accept it; the regression data, not the
    # axioms, are what pin the reference tables
    ring = subquotient_qn(5)
    table = [[[list(row) for row in plane] for plane in ring.c][x] for x in range(3)]
    table[2][2][1] -= 1
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    assert verify(BasedRing(ring.labels, frozen, ring.identity)).ok


def test_verify_flags_negative_entry():
    ring = subquotient_qn(3)
    table = [[list(row) for row in plane] for plane in ring.c]
    table[1][1][0] = -1
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    report = verify(BasedRing(ring.labels, frozen, ring.identity))
    assert not report.ok
    assert any(v.axiom == "positivity" for v in report.violations)


def test_verify_reports_a_table_with_too_few_planes():
    ring = BasedRing(("e", "s"), (((1, 0), (0, 1)),))
    assert verify(ring).violations == (
        RingViolation("shape", (), "not one plane of size rows per label"),
    )
    assert verify(ring).violations == _plain_violations(ring)


def test_verify_reports_an_identity_outside_the_basis():
    ring = BasedRing(("e",), (((1,),),), identity=3)
    assert verify(ring).violations == (
        RingViolation("identity", (3,), "identity index out of range"),
    )
    assert verify(ring).violations == _plain_violations(ring)


def _plain_violations(ring):
    """Every based-ring violation, found by plain loops over coordinates;
    the order and the messages are the ones verify reports."""
    out = []
    size, c = ring.size, ring.c
    if sorted(ring.involution) != list(range(size)):
        return (RingViolation("involution", (), "not a permutation of the basis"),)
    if len(set(ring.labels)) != size:
        out.append(RingViolation("labels", (), "labels are not distinct"))
    if len(c) != size or any(len(c[i]) != size for i in range(len(c))):
        out.append(RingViolation("shape", (), "not one plane of size rows per label"))
        return tuple(out)
    for i in range(size):
        for j in range(size):
            if len(c[i][j]) != size:
                out.append(RingViolation("shape", (i, j), "row of wrong length"))
                return tuple(out)
            for z in range(size):
                if c[i][j][z] < 0:
                    message = f"coefficient {c[i][j][z]} < 0"
                    out.append(RingViolation("positivity", (i, j, z), message))
    e = ring.identity
    if e not in range(size):
        out.append(RingViolation("identity", (e,), "identity index out of range"))
    for j in range(size if e in range(size) else 0):
        for z in range(size):
            want = 1 if z == j else 0
            if c[e][j][z] != want:
                out.append(RingViolation("left-identity", (j, z), "e*y != y"))
            if c[j][e][z] != want:
                out.append(RingViolation("right-identity", (j, z), "x*e != x"))
    for x in range(size):
        for y in range(size):
            for z in range(size):
                for v in range(size):
                    lhs = sum(c[x][y][u] * c[u][z][v] for u in range(size))
                    rhs = sum(c[y][z][u] * c[x][u][v] for u in range(size))
                    if lhs != rhs:
                        message = f"{lhs} != {rhs}"
                        out.append(RingViolation("associativity", (x, y, z, v), message))
    inv = ring.involution
    for x in range(size):
        for y in range(size):
            for z in range(size):
                a, b = c[x][y][z], c[inv[y]][inv[x]][inv[z]]
                if a != b:
                    out.append(RingViolation("anti-involution", (x, y, z), f"{a} != {b}"))
    return tuple(out)


# small entries, and entries of 2^20 and more of either sign
_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2**20, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**20)),
)


@st.composite
def _integer_rings(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    cells = st.lists(_entries, min_size=size, max_size=size).map(tuple)
    table = draw(
        st.lists(
            st.lists(cells, min_size=size, max_size=size).map(tuple),
            min_size=size,
            max_size=size,
        ).map(tuple)
    )
    identity = draw(st.integers(min_value=0, max_value=size - 1))
    involution = draw(st.permutations(range(size)))
    labels = tuple(f"b{i}" for i in range(size))
    return BasedRing(labels, table, identity, tuple(involution))


@given(_integer_rings())
@settings(max_examples=150, deadline=None)
def test_verify_matches_plain_loops_on_integer_tables(ring):
    assert verify(ring).violations == _plain_violations(ring)


_real_rings = [subquotient_qn(n) for n in (3, 5, 8)] + [full_kl_ring(n) for n in (2, 3)]

# (x, y, z, delta): add delta to the coefficient of z in x*y, indices taken
# modulo what the test allows
_changes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.sampled_from((-1, 1, 2, 2**20, -(2**20), 2**45)),
    ),
    max_size=3,
)


def _changed(ring, changes):
    table = [[list(row) for row in plane] for plane in ring.c]
    for x, y, z, delta in changes:
        table[x][y][z] += delta
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    return BasedRing(ring.labels, frozen, ring.identity, ring.involution)


@given(st.sampled_from(_real_rings), _changes)
@settings(max_examples=150, deadline=None)
def test_verify_matches_plain_loops_on_corrupted_rings(ring, changes):
    # a few wrong entries in a true ring: most triples still associate
    size = ring.size
    corrupted = _changed(ring, [(x % size, y % size, z % size, d) for x, y, z, d in changes])
    assert verify(corrupted).violations == _plain_violations(corrupted)


@given(st.sampled_from(_real_rings), _changes)
@settings(max_examples=150, deadline=None)
def test_verify_matches_plain_loops_when_only_products_off_the_identity_change(ring, changes):
    # e is basis element 0 and the products x*y with x, y != e change, so the
    # identity axioms still hold: verify tries the generating set first and
    # must fall back to every pair whenever one of its pairs fails
    off = ring.size - 1
    corrupted = _changed(
        ring, [(1 + x % off, 1 + y % off, z % ring.size, d) for x, y, z, d in changes]
    )
    plain = _plain_violations(corrupted)
    assert not any(v.axiom.endswith("identity") for v in plain)
    assert verify(corrupted).violations == plain


_INVOLUTION_RINGS = {
    **{f"Q{n}": (lambda n=n: subquotient_qn(n)) for n in (3, 4, 5, 6)},
    "ZD4": lambda: full_kl_ring(2),
    "ZD6": lambda: full_kl_ring(3),
}


@pytest.mark.parametrize("name", sorted(_INVOLUTION_RINGS))
def test_verify_matches_plain_loops_under_every_basis_permutation_as_involution(name):
    # the anti-involution is tried on e and the generators first: a
    # permutation that moves e, or fails on one pair off them, must still
    # be reported pair by pair
    ring = _INVOLUTION_RINGS[name]()
    failing = 0
    for involution in itertools.permutations(range(ring.size)):
        permuted = ring._replace(involution=involution)
        plain = _plain_violations(permuted)
        assert verify(permuted).violations == plain, involution
        failing += bool(plain)
    assert 0 < failing < math.factorial(ring.size)


def test_an_involution_moving_e_is_reported_though_every_generator_pair_passes():
    # the Ising ring, e, a, b with a*a = e + b, a*b = b*a = a, b*b = e, is
    # generated by a; swapping e and b keeps phi(xa) = phi(a)phi(x) for
    # every x, so only the pairs (x, e) show that the swap is no
    # anti-involution
    c = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 1), (0, 1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    )
    ring = BasedRing(("e", "a", "b"), c, 0, (2, 1, 0))
    assert _generators(c, 0) == [1]
    plain = _plain_violations(ring)
    assert all(v.axiom == "anti-involution" and v.witness[1] != 1 for v in plain)
    assert plain and verify(ring).violations == plain


@pytest.mark.parametrize(
    "value, shown", [(1.5, "1.5"), (None, "None"), ("1", "'1'"), (Fraction(3, 2), "Fraction(3, 2)")]
)
def test_verify_reports_a_constant_that_is_not_an_int(value, shown):
    ring = BasedRing(("e", "x"), (((1, 0), (0, 1)), ((0, 1), (value, 0))), 0)
    assert verify(ring).violations == (
        RingViolation("shape", (1, 1, 0), f"coefficient {shown} is not an int"),
    )


def test_verify_reports_a_non_int_constant_after_the_negative_ones_before_it():
    ring = BasedRing(("e", "x"), (((1, 0), (0, 1)), ((0, -1), (0.0, 0))), 0)
    assert verify(ring).violations == (
        RingViolation("positivity", (1, 0, 1), "coefficient -1 < 0"),
        RingViolation("shape", (1, 1, 0), "coefficient 0.0 is not an int"),
    )


def _generator_labels(ring):
    return tuple(ring.labels[g] for g in _generators(ring.c, ring.identity))


@pytest.mark.parametrize("n", range(2, 9))
def test_the_full_kl_ring_is_generated_by_s_and_t(n):
    ring = full_kl_ring(n)
    assert _generator_labels(ring) == ("s", "t")
    assert _span_of_products(ring, _generators(ring.c, ring.identity)) == ring.size


def test_the_full_kl_ring_at_n_64_is_generated_by_s_and_t_and_verifies_within_a_minute():
    start = time.perf_counter()
    ring = full_kl_ring(64)
    assert _generator_labels(ring) == ("s", "t")
    assert verify(ring).ok
    assert time.perf_counter() - start < 60.0


@pytest.mark.parametrize("n", range(3, 25))
def test_the_subquotient_ring_is_generated_by_s_and_sts(n):
    ring = subquotient_qn(n)
    assert _generator_labels(ring) == (("s",) if n == 3 else ("s", "sts"))
    assert _span_of_products(ring, _generators(ring.c, ring.identity)) == ring.size


def _span_of_products(ring, generators):
    """The rank over Q of the span of e and every product of generators,
    closed by right multiplication with a generator until it stops growing;
    independent of the reach walk in _generators."""
    size, c = ring.size, ring.c
    echelon = {}  # pivot -> row with a 1 there and 0 at every other pivot

    def add(vector):
        for pivot, row in echelon.items():
            if vector[pivot]:
                vector = [a - vector[pivot] * b for a, b in zip(vector, row)]
        pivot = next((z for z, a in enumerate(vector) if a), None)
        if pivot is None:
            return False
        vector = [a / vector[pivot] for a in vector]
        for other, row in echelon.items():
            if row[pivot]:
                echelon[other] = [a - row[pivot] * b for a, b in zip(row, vector)]
        echelon[pivot] = vector
        return True

    unit = [Fraction(int(z == ring.identity)) for z in range(size)]
    frontier = [unit] if add(unit) else []
    while frontier:
        vector = frontier.pop()
        for g in generators:
            product = [
                sum(a * c[x][g][z] for x, a in enumerate(vector)) for z in range(size)
            ]
            if add(product):
                frontier.append(product)
    return len(echelon)


# the products of a, b and c off e: all zero, or a*a = b*b = a, where
# (b*b)*a = a but b*(b*a) = 0; no row reaches a later element, so the walk
# takes every element but e as a generator
_ZERO_PRODUCTS = {}
_A_SQUARES = {(1, 1): (0, 1, 0, 0), (2, 2): (0, 1, 0, 0)}


@pytest.mark.parametrize("products", [_ZERO_PRODUCTS, _A_SQUARES], ids=["zero", "a-squares"])
def test_a_ring_that_needs_every_element_as_a_generator_verifies_as_before(products):
    size = 4
    unit = [tuple(int(z == j) for z in range(size)) for j in range(size)]
    c = tuple(
        tuple(
            unit[y] if x == 0 else unit[x] if y == 0 else products.get((x, y), (0,) * size)
            for y in range(size)
        )
        for x in range(size)
    )
    ring = BasedRing(("e", "a", "b", "c"), c)
    assert _generator_labels(ring) == ("a", "b", "c")
    assert verify(ring).violations == _plain_violations(ring)
    assert verify(ring).ok == (products is _ZERO_PRODUCTS)


def test_verify_reads_an_associativity_digit_at_the_top_of_the_width():
    # every |entry| is at most A = 1 and s*s = e + s - a has the largest
    # |row| sum S = 3, so the digits are W = (A*S).bit_length() + 1 = 3 bits
    # wide; a*(s*s) = a + a - (s - a) = (0, -1, 3) puts 2^(W-1) - 1 beside a
    # negative digit, against (a*s)*s = a = (0, 0, 1)
    c = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 1, -1), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 1), (0, 1, -1)),
    )
    ring = BasedRing(("e", "s", "a"), c)
    assert [sum(c[1][1][u] * c[2][u][v] for u in range(3)) for v in range(3)] == [0, -1, 3]
    violations = verify(ring).violations
    assert violations == _plain_violations(ring)
    assert RingViolation("associativity", (2, 1, 1, 2), "1 != 3") in violations


def test_verify_accepts_the_full_kl_ring_at_twelve():
    assert verify(full_kl_ring(12)).ok


def test_cells_of_subquotients():
    for n in (4, 5):
        ring = subquotient_qn(n)
        cells = compute_cells(ring.labels, ring.c, ring.identity)
        assert {frozenset(c) for c in cells.two_sided} == {
            frozenset({"e"}),
            frozenset(ring.labels) - {"e"},
        }
        e_cell = cell_of(cells, "two_sided", "e")
        top = cell_of(cells, "two_sided", "s")
        assert (e_cell, top) in cells.two_sided_leq
        assert (top, e_cell) not in cells.two_sided_leq
        # left, right and two-sided cells all agree here
        assert cells.left == cells.two_sided == cells.right
    q3 = subquotient_qn(3)
    assert compute_cells(q3.labels, q3.c, q3.identity).two_sided == (("e",), ("s",))


def test_subquotient_ring_equals_the_kl_table_restricted_to_its_span():
    # rule (S) against a plain restriction of ZD_2n, which also asserts that
    # every product of the span stays inside it plus w0
    for n in range(3, 65):
        assert subquotient_qn(n) == oracles.subquotient_by_restriction(n)


def test_subquotient_ring_never_reads_the_kl_table(monkeypatch):
    def refuse(n):
        raise AssertionError(f"structure_constants({n}) was called")

    monkeypatch.setattr(klring, "structure_constants", refuse)
    assert subquotient_qn.__wrapped__(7) == subquotient_qn(7)


def test_subquotient_rejects_small_n():
    with pytest.raises(ValueError):
        subquotient_qn(2)


def test_serialization_round_trip():
    for build in (lambda: subquotient_qn(5), lambda: subquotient_qn(6), lambda: subquotient_qn(3)):
        ring = build()
        text = ring_to_text(ring)
        back = ring_from_text(text, name=ring.name)
        assert back.labels == ring.labels
        assert back.c == ring.c
        assert back.identity == ring.identity
        assert back.involution == ring.involution
        # serialization is stable
        assert ring_to_text(back) == text


@pytest.mark.parametrize("label", ["a b", "x#y", "", " x", "x\t"])
def test_to_text_refuses_a_label_that_would_not_read_back(label):
    ring = BasedRing(("e", label), (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    with pytest.raises(RingFormatError, match=re.escape(f"label {label!r}")):
        ring_to_text(ring)


def test_serialized_form_lists_positive_quadruples():
    text = ring_to_text(subquotient_qn(3))
    lines = [line for line in text.splitlines() if line.startswith("c ")]
    assert "c s s s 2" in lines
    assert "c e s s 1" in lines
    assert all(int(line.split()[-1]) > 0 for line in lines)


def test_from_text_rejects_malformed_input():
    with pytest.raises(RingFormatError):
        ring_from_text("identity e\n")  # no labels
    with pytest.raises(RingFormatError):
        ring_from_text("labels e s\nidentity q\n")
    with pytest.raises(RingFormatError):
        ring_from_text("labels e s\nidentity e\nc e s s x\n")
    with pytest.raises(RingFormatError):
        ring_from_text("labels e s\nidentity e\nbogus 1\n")


_TINY = (
    "labels e g\nidentity e\ninvolution e g\n"
    "c e e e 1\nc e g g 1\nc g e g 1\nc g g g 2\n"
)


def test_from_text_refuses_a_repeated_constant():
    # the second line used to replace the first silently
    with pytest.raises(RingFormatError, match="line 8: 'c g g g' already given on line 7"):
        ring_from_text(_TINY + "c g g g 3\n")
    # the same constant with the same value is refused too
    with pytest.raises(RingFormatError, match="line 8"):
        ring_from_text(_TINY + "c g g g 2\n")


@pytest.mark.parametrize("line,first", [("labels e g", 1), ("identity e", 2), ("involution e g", 3)])
def test_from_text_refuses_a_repeated_directive(line, first):
    key = line.split()[0]
    with pytest.raises(RingFormatError, match=f"line 8: '{key}' already given on line {first}"):
        ring_from_text(_TINY + line + "\n")


def test_ring_products_lists_the_non_zero_constants_in_basis_order():
    ring = subquotient_qn(5)
    expected = [
        (ring.labels[x], ring.labels[y], ring.labels[z], ring.c[x][y][z])
        for x in range(ring.size)
        for y in range(ring.size)
        for z in range(ring.size)
        if ring.c[x][y][z]
    ]
    assert list(ring_products(ring)) == expected
    assert ("s", "s", "s", 2) in expected


def test_from_text_rejects_axiom_violations():
    # s*s = 3s + missing identity rows: fails the identity axiom
    text = "labels e s\nidentity e\nc s s s 3\n"
    with pytest.raises(RingError):
        ring_from_text(text)


def test_from_text_accepts_a_hand_written_ring():
    text = """
# tiny doubling ring
labels e g
identity e
c e e e 1
c e g g 1
c g e g 1
c g g g 2
"""
    ring = ring_from_text(text)
    assert ring.labels == ("e", "g")
    assert ring.product("g", "g") == (0, 2)
