import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcells.quadfield import (
    FieldMismatchError,
    NonRealRootsError,
    QuadNum,
    compare,
    solve_quadratic_monic,
    square_free_decomposition,
    two_cos,
    two_cos_minpoly,
)


def q(a, b=0, d=1):
    return QuadNum(Fraction(a), Fraction(b), d if b else 1)


def test_square_free_decomposition():
    assert square_free_decomposition(20) == (2, 5)
    assert square_free_decomposition(1) == (1, 1)
    assert square_free_decomposition(36) == (6, 1)
    assert square_free_decomposition(5) == (1, 5)
    with pytest.raises(ValueError):
        square_free_decomposition(0)


def test_constructor_normalizes_and_validates():
    assert q(3, 0, 5).d == 1
    with pytest.raises(ValueError):
        QuadNum(Fraction(1), Fraction(1), 12)  # not square-free
    with pytest.raises(ValueError):
        QuadNum(Fraction(1), Fraction(1), 1)  # irrational part needs d > 1


def test_difference_of_squares():
    golden = q(1, 1, 5)
    assert golden * q(1, -1, 5) == q(-4)


def test_square_of_one_plus_root_five():
    value = q(1, 1, 5) * q(1, 1, 5)
    assert value == q(6, 2, 5)
    assert abs(float(value) - (1 + math.sqrt(5)) ** 2) < 1e-12


def test_inverse():
    assert q(2).inverse() == q(Fraction(1, 2))
    x = q(1, 1, 5)
    assert x * x.inverse() == q(1)
    with pytest.raises(ZeroDivisionError):
        q(0).inverse()


def test_compare_examples():
    assert compare(q(1, 1, 5), q(1, -1, 5)) > 0
    assert compare(q(4, 1, 5), q(4, -1, 5)) > 0
    assert compare(q(2), q(0, 1, 5)) < 0
    assert q(4, -1, 5) < q(2) < q(0, 1, 5) < q(4, 1, 5)


def test_incompatible_fields_rejected():
    with pytest.raises(FieldMismatchError):
        q(0, 1, 2) + q(0, 1, 5)


def test_display_format():
    assert str(q(1, 1, 5)) == "1+√5"
    assert str(q(1, -1, 5)) == "1-√5"
    assert str(q(4, -1, 5)) == "4-√5"
    assert str(q(0, 2, 5)) == "2√5"
    assert str(q(0, -1, 5)) == "-√5"
    assert str(q(Fraction(1, 2))) == "1/2"
    assert str(q(6, 2, 5)) == "6+2√5"


def test_solve_quadratic_examples():
    low, high = solve_quadratic_monic(2, 4)
    assert (low, high) == (q(1, -1, 5), q(1, 1, 5))
    assert solve_quadratic_monic(2, 0) == (q(0), q(2))
    assert solve_quadratic_monic(0, 4) == (q(-2), q(2))
    with pytest.raises(NonRealRootsError):
        solve_quadratic_monic(0, -1)


def test_solve_quadratic_double_root():
    assert solve_quadratic_monic(2, -1) == (q(1), q(1))


@given(
    p=st.fractions(min_value=-20, max_value=20, max_denominator=24),
    qq=st.fractions(min_value=-20, max_value=20, max_denominator=24),
)
@settings(max_examples=150, deadline=None)
def test_solved_roots_satisfy_equation(p, qq):
    try:
        low, high = solve_quadratic_monic(p, qq)
    except NonRealRootsError:
        assert p * p + 4 * qq < 0
        return
    assert not high < low
    for root in (low, high):
        assert root * root == root * p + qq


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@given(a1=_rationals, b1=_rationals, a2=_rationals, b2=_rationals, a3=_rationals)
@settings(max_examples=150, deadline=None)
def test_field_axioms(a1, b1, a2, b2, a3):
    x = QuadNum(a1, b1, 5)
    y = QuadNum(a2, b2, 5)
    z = QuadNum(a3, Fraction(1), 5)
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    if x != q(0):
        assert x * x.inverse() == q(1)


@given(a1=_rationals, b1=_rationals, a2=_rationals, b2=_rationals)
@settings(max_examples=150, deadline=None)
def test_compare_consistent_with_floats(a1, b1, a2, b2):
    x = QuadNum(a1, b1, 5)
    y = QuadNum(a2, b2, 5)
    if abs(float(x) - float(y)) > 1e-9:
        assert (compare(x, y) > 0) == (float(x) > float(y))


def test_integer_coercion_in_arithmetic():
    assert 2 * q(1, 1, 5) == q(2, 2, 5)
    assert q(1, 1, 5) + 1 == q(2, 1, 5)
    assert 1 - q(0, 1, 5) == q(1, -1, 5)
    assert q(1).is_integer and not q(Fraction(1, 2)).is_integer
    assert q(3).as_integer() == 3


def test_floor_examples():
    assert math.floor(q(1, 1, 5)) == 3  # 1+√5 ≈ 3.236
    assert math.floor(q(6, 2, 5)) == 10  # (1+√5)² ≈ 10.472
    assert math.floor(q(1, -1, 5)) == -2  # 1-√5 ≈ -1.236
    assert math.floor(q(0, -1, 2)) == -2
    assert math.floor(q(4)) == 4 and math.floor(q(-4)) == -4
    assert math.floor(q(Fraction(-7, 2))) == -4
    assert math.floor(q(Fraction(1, 2), Fraction(1, 2), 5)) == 1  # golden ratio


@given(a=_rationals, b=_rationals, d=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=150, deadline=None)
def test_floor_brackets_the_value(a, b, d):
    x = QuadNum(a, b, d)
    n = math.floor(x)
    assert isinstance(n, int)
    assert q(n) <= x < q(n + 1)


@pytest.mark.parametrize("n", range(3, 65))
def test_two_cos_minpoly_has_degree_half_phi(n):
    poly = two_cos_minpoly(n)
    phi = sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)
    assert len(poly) - 1 == phi // 2
    assert poly[-1] == 1 and all(isinstance(c, int) for c in poly)
    root = 2 * math.cos(2 * math.pi / n)
    assert abs(sum(c * root**i for i, c in enumerate(poly))) < 1e-6 * 4 ** len(poly)


@pytest.mark.parametrize("n", [7, 16])
def test_floor_and_sign_bracket_the_float_in_two_cos_fields(n):
    lam = two_cos(n)
    degree = len(two_cos_minpoly(n)) - 1
    assert len(lam.coords) == 2 and not lam.is_quadratic
    rng = random.Random(7 * n)
    root = 2 * math.cos(2 * math.pi / n)
    for _ in range(100):
        coeffs = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(degree)]
        x = q(0)
        for c in reversed(coeffs):  # Horner in exact arithmetic
            x = x * lam + c
        approx = sum(float(c) * root**i for i, c in enumerate(coeffs))
        assert abs(float(x) - approx) < 1e-9 * max(1.0, abs(approx))
        if abs(approx) > 1e-6:
            assert x.sign() == (1 if approx > 0 else -1)
        floor = math.floor(x)
        assert isinstance(floor, int)
        if abs(approx - round(approx)) > 1e-6:
            assert floor == math.floor(approx)
        assert floor <= x < floor + 1
