import math
from fractions import Fraction

import pytest

from klcells.basedring import (
    BasedRing,
    ring_from_text,
    ring_to_text,
    subquotient_qn,
    subring_an,
)
from klcells.characters import (
    CharacterError,
    DecompositionError,
    NonCommutativeError,
    SpecialCharacterError,
    character_table,
    decompose,
    special_character,
)
from klcells.matrixmodule import module_from_mats, trivial_module
from klcells.quadfield import QuadNum


def q(a, b=0, d=1):
    return QuadNum(Fraction(a), Fraction(b), d if b else 1)


def rendered(table):
    return tuple(tuple(str(v) for v in row) for row in table.rows)


def test_fibonacci_characters_render_a_sign_between_terms():
    # t*t = e + t: the characters send t to (1 ± √5)/2
    ring = ring_from_text(
        "labels e t\nidentity e\nc e e e 1\nc e t t 1\nc t e t 1\nc t t e 1\nc t t t 1\n"
    )
    assert rendered(character_table(ring)) == (
        ("1", "1/2-(1/2)√5"),
        ("1", "1/2+(1/2)√5"),
    )


def test_character_table_is_built_once_per_ring():
    assert character_table(subquotient_qn(5)) is character_table(subquotient_qn(5))
    # rings compare by value, name included: a ring file keeps its own table
    copy = ring_from_text(ring_to_text(subquotient_qn(5)))
    assert character_table(copy) is not character_table(subquotient_qn(5))
    assert character_table(copy).ring.name == "custom"
    assert character_table(copy).rows == character_table(subquotient_qn(5)).rows


def test_q5_character_table_exactly():
    table = character_table(subquotient_qn(5))
    assert table.exact
    assert rendered(table) == (
        ("1", "0", "0"),
        ("1", "2", "1-√5"),
        ("1", "2", "1+√5"),
    )
    assert table.rows[2] == (q(1), q(2), q(1, 1, 5))


def test_q4_character_table_exactly():
    table = character_table(subquotient_qn(4))
    assert rendered(table) == (("1", "0", "0"), ("1", "2", "-2"), ("1", "2", "2"))


def test_q6_character_table_exactly():
    table = character_table(subquotient_qn(6))
    assert table.exact
    assert rendered(table) == (
        ("1", "0", "0", "0"),
        ("1", "2", "-2", "2"),
        ("1", "2", "0", "-2"),
        ("1", "2", "4", "2"),
    )


def test_an_character_table():
    table = character_table(subring_an(6))
    assert rendered(table) == (("1", "0"), ("1", "2"))


@pytest.mark.parametrize("n", range(3, 9))
def test_rows_satisfy_multiplicativity(n):
    ring = subquotient_qn(n)
    table = character_table(ring)
    assert table.exact
    zero = q(0)
    for row in table.rows:
        assert row[ring.identity] == q(1)
        for x in range(ring.size):
            for y in range(ring.size):
                total = zero
                for z in range(ring.size):
                    if ring.c[x][y][z]:
                        total = total + ring.c[x][y][z] * row[z]
                assert row[x] * row[y] == total


def test_q7_character_table_exactly():
    # values in Q(λ), λ = 2cos(2π/7) with minimal polynomial x³+x²-2x-1
    table = character_table(subquotient_qn(7))
    assert table.exact
    assert rendered(table) == (
        ("1", "0", "0", "0"),
        ("1", "2", "4-2λ-2λ²", "4-2λ²"),
        ("1", "2", "-2+2λ²", "-2λ"),
        ("1", "2", "2+2λ", "-2+2λ+2λ²"),
    )
    assert [[v.coords for v in row] for row in table.rows[1:]] == [
        [(1,), (2,), (4, -2, -2), (4, 0, -2)],
        [(1,), (2,), (-2, 0, 2), (0, -2)],
        [(1,), (2,), (2, 2), (-2, 2, 2)],
    ]
    assert special_character(table) == 3
    # the Galois automorphism λ -> λ²-2 = 2cos(4π/7) permutes the three
    # faithful rows cyclically: V4 -> V3 -> V2 -> V4
    lam = table.rows[3][2] / 2 - 1
    image = lam * lam - 2

    def conjugate(value):
        total = q(0)
        for c in reversed(value.coords):  # Horner at the image of λ
            total = total * image + c
        return total

    def conjugate_row(row):
        return tuple(conjugate(v) for v in row)

    rows = table.rows
    assert conjugate_row(rows[3]) == rows[2]
    assert conjugate_row(rows[2]) == rows[1]
    assert conjugate_row(rows[1]) == rows[3]


@pytest.mark.parametrize("n", range(3, 17))
def test_exact_tables_agree_with_the_float_formula(n):
    # chi_j(kl(s(ts)^k)) = 2 sin((2k+1) j pi/n) / sin(j pi/n), chi_0 = (1, 0, ...)
    size = n // 2 + 1
    expected = [[1.0] + [0.0] * (size - 1)] + [
        [1.0]
        + [
            2 * math.sin((2 * k + 1) * j * math.pi / n) / math.sin(j * math.pi / n)
            for k in range(size - 1)
        ]
        for j in range(1, n // 2 + 1)
    ]
    table = character_table(subquotient_qn(n))
    assert table.size == size
    unmatched = list(range(size))
    for row in table.rows:
        values = [float(v) for v in row]
        hits = [
            i for i in unmatched
            if all(abs(a - b) < 1e-9 for a, b in zip(values, expected[i]))
        ]
        assert len(hits) == 1, (n, values)
        unmatched.remove(hits[0])


def test_values_from_two_quadratic_fields_raise():
    # x = ±√2, y = ±√3, z = xy: the exact solver would have to mix two fields
    text = (
        "labels e x y z\nidentity e\n"
        "c e e e 1\nc e x x 1\nc e y y 1\nc e z z 1\n"
        "c x e x 1\nc y e y 1\nc z e z 1\n"
        "c x x e 2\nc y y e 3\nc z z e 6\n"
        "c x y z 1\nc y x z 1\nc x z y 2\nc z x y 2\nc y z x 3\nc z y x 3\n"
    )
    with pytest.raises(CharacterError):
        character_table(ring_from_text(text))


def test_non_commutative_rejected():
    # a valid based "ring" shell that is not commutative: free-ish table
    labels = ("e", "a", "b")
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        c[0][i][i] = 1
        if i:
            c[i][0][i] = 1
    c[1][1][0] = 1
    c[2][2][0] = 1
    c[1][2][1] = 1  # a*b = a
    c[2][1][2] = 1  # b*a = b
    ring = BasedRing(labels, tuple(tuple(tuple(r) for r in p) for p in c), 0)
    with pytest.raises(NonCommutativeError):
        character_table(ring)


def test_non_semisimple_reported():
    # x*x = 0: only one character survives for a two-element basis
    text = "labels e x\nidentity e\nc e e e 1\nc e x x 1\nc x e x 1\n"
    ring = ring_from_text(text)
    with pytest.raises(CharacterError):
        character_table(ring)


def test_special_characters():
    assert special_character(character_table(subquotient_qn(5))) == 2
    assert special_character(character_table(subquotient_qn(4))) == 2
    assert special_character(character_table(subquotient_qn(6))) == 3
    assert special_character(character_table(subring_an(4))) == 1


def test_special_magnitudes_are_the_documented_ones():
    table = character_table(subquotient_qn(5))
    sums = [sum(row, start=q(0)) for row in table.rows]
    assert sums == [q(1), q(4, -1, 5), q(4, 1, 5)]
    assert abs(sums[2]) > abs(sums[1]) > abs(sums[0])
    t4 = character_table(subquotient_qn(4))
    assert [sum(r, start=q(0)) for r in t4.rows] == [q(1), q(1), q(5)]


def test_special_tie_raises():
    # two orthogonal idempotents: the characters (1,1,0) and (1,0,1) both
    # give magnitude 2, so no unique special character exists
    text = (
        "labels e u v\nidentity e\n"
        "c e e e 1\nc e u u 1\nc e v v 1\nc u e u 1\nc v e v 1\n"
        "c u u u 1\nc v v v 1\n"
    )
    ring = ring_from_text(text)
    table = character_table(ring)
    assert table.size == 3
    with pytest.raises(SpecialCharacterError):
        special_character(table)


def test_decompose_top_cell_q4():
    ring = subquotient_qn(4)
    table = character_table(ring)
    module = module_from_mats(
        ring, 2, {1: ((2, 0), (0, 2)), 2: ((0, 2), (2, 0))}
    )
    assert decompose(table, module) == (0, 1, 1)


def test_decompose_rank_one_q4():
    ring = subquotient_qn(4)
    table = character_table(ring)
    module = module_from_mats(ring, 1, {1: ((2,),), 2: ((2,),)})
    assert decompose(table, module) == (0, 0, 1)


def test_decompose_trivial_module():
    for ring in (subquotient_qn(4), subquotient_qn(5), subquotient_qn(6)):
        table = character_table(ring)
        mults = decompose(table, trivial_module(ring))
        assert mults[0] == 1 and sum(mults) == 1


def test_decompose_rejects_invalid_traces():
    ring = subquotient_qn(4)
    table = character_table(ring)
    # trace(s) = 1 is impossible: multiplicities would be half-integral
    module = module_from_mats(ring, 1, {1: ((1,),), 2: ((0,),)})
    with pytest.raises(DecompositionError):
        decompose(table, module)


def test_decompose_rejects_negative_multiplicities():
    ring = subquotient_qn(4)
    table = character_table(ring)
    # traces (rank 2, s -> 0, sts -> 2) force a negative V1 multiplicity
    module = module_from_mats(ring, 2, {1: ((0, 0), (0, 0)), 2: ((1, 0), (0, 1))})
    with pytest.raises(DecompositionError):
        decompose(table, module)


def test_rows_sorted_ascending():
    for n in (4, 5, 6):
        table = character_table(subquotient_qn(n))
        keys = [tuple(row[1:]) for row in table.rows]
        assert keys == sorted(keys)
