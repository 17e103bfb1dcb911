import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcells import quadfield
from klcells.quadfield import (
    FieldMismatchError,
    NonRealRootsError,
    QuadNum,
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
    with pytest.raises(ValueError, match=r"^d must be square-free, got d=12$"):
        QuadNum(Fraction(1), Fraction(1), 12)  # not square-free
    with pytest.raises(ValueError):
        QuadNum(Fraction(1), Fraction(1), 1)  # irrational part needs d > 1


def test_square_free_check_runs_once_per_d(monkeypatch):
    calls = []

    def counting(k):
        calls.append(k)
        return square_free_decomposition(k)

    monkeypatch.setattr(quadfield, "square_free_decomposition", counting)
    for a in range(5):
        QuadNum(a, 1, 1001)  # 7 * 11 * 13, a d no other test uses
    assert calls == [1001]


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
    assert (q(1, 1, 5) - q(1, -1, 5)).sign() > 0
    assert (q(4, 1, 5) - q(4, -1, 5)).sign() > 0
    assert (q(2) - q(0, 1, 5)).sign() < 0
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
    # the sign of a fractional coefficient stands outside its parentheses
    half = Fraction(1, 2)
    assert str(QuadNum(half, -half, 5)) == "1/2-(1/2)√5"
    assert str(QuadNum(Fraction(1, 4), Fraction(-1, 20), 5)) == "1/4-(1/20)√5"
    assert str(QuadNum(0, Fraction(-3, 10), 5)) == "-(3/10)√5"
    assert str(QuadNum(0, Fraction(3, 10), 5)) == "(3/10)√5"
    assert str(QuadNum(1, -2, 5)) == "1-2√5"
    lam = two_cos(7)  # degree 3
    assert str(half - Fraction(1, 3) * lam - Fraction(2, 5) * lam * lam) == (
        "1/2-(1/3)λ-(2/5)λ²"
    )
    assert str(-Fraction(1, 3) * lam + Fraction(2, 5) * lam * lam) == "-(1/3)λ+(2/5)λ²"


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
        assert ((x - y).sign() > 0) == (float(x) > float(y))


def test_integer_coercion_in_arithmetic():
    assert 2 * q(1, 1, 5) == q(2, 2, 5)
    assert q(1, 1, 5) + 1 == q(2, 1, 5)
    assert 1 - q(0, 1, 5) == q(1, -1, 5)


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


# -- an in-test reference: Fraction coordinates reduced by the minimal polynomial


def _ref_strip(coords):
    coords = list(coords)
    while len(coords) > 1 and coords[-1] == 0:
        coords.pop()
    return coords


def _ref_mul(x, y, poly):
    """x*y for coordinate lists, reduced by the monic polynomial poly."""
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    deg = len(poly) - 1
    for k in range(len(out) - 1, deg - 1, -1):
        c, out[k] = out[k], 0
        for i in range(deg):
            out[k - deg + i] -= c * poly[i]
    return _ref_strip(out[:deg])


def _ref_inverse(x, poly):
    """y with x*y = 1, by Gauss-Jordan on the matrix of multiplication by x."""
    deg = len(poly) - 1
    basis = [[Fraction(int(i == j)) for i in range(deg)] for j in range(deg)]
    cols = [_ref_mul(x, e, poly) + [0] * deg for e in basis]
    rows = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
    for c in range(deg):
        pivot = next(r for r in range(c, deg) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(deg):
            if r != c and rows[r][c] != 0:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return _ref_strip([row[-1] for row in rows])


def _ref_value_interval(x, poly, lo, hi):
    """x evaluated at both ends of a tiny interval around theta, by bisection
    on poly from the isolating interval (lo, hi)."""
    def at(coeffs, t):
        return sum(Fraction(c) * t**i for i, c in enumerate(coeffs))

    lo, hi = Fraction(lo), Fraction(hi)
    lo_sign = at(poly, lo) > 0
    for _ in range(120):
        mid = (lo + hi) / 2
        if (at(poly, mid) > 0) == lo_sign:
            lo = mid
        else:
            hi = mid
    return at(x, lo), at(x, hi)


def _fields():
    """(name, generator, minimal polynomial, isolating interval) per field."""
    out = []
    for d in (2, 5):
        root = math.isqrt(d)
        out.append((f"sqrt{d}", QuadNum(0, 1, d), (-d, 0, 1), (root, root + 1)))
    for n in (7, 16):
        approx = Fraction(2 * math.cos(2 * math.pi / n))
        eps = Fraction(1, 10**6)
        out.append((f"lambda{n}", two_cos(n), two_cos_minpoly(n), (approx - eps, approx + eps)))
    return out


@pytest.mark.parametrize("field", _fields(), ids=lambda f: f[0])
def test_arithmetic_matches_fraction_reference(field):
    name, gen, poly, (lo, hi) = field
    deg = len(poly) - 1
    rng = random.Random(f"reference-{name}")

    def sample():
        coords = []
        for _ in range(deg):
            kind = rng.random()
            if kind < 0.2:
                coords.append(Fraction(0))
            elif kind < 0.5:
                coords.append(Fraction(rng.randint(-9, 9)))
            else:
                coords.append(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        if rng.random() < 0.15:  # a rational value
            coords[1:] = [Fraction(0)] * (deg - 1)
        return build(coords), _ref_strip(coords)

    def build(coords):
        value = q(0)
        for c in reversed(coords):
            value = value * gen + c
        return value

    def check(value, ref):
        assert list(value.coords) == ref
        for c, r in zip(value.coords, ref):
            assert type(c) is (int if r.denominator == 1 else Fraction)
        assert value.is_rational == (len(ref) == 1)
        # equal to, and hashing like, the same value built by Horner's rule
        rebuilt = build(ref)
        assert value == rebuilt and hash(value) == hash(rebuilt)

    for _ in range(40):
        (x, rx), (y, ry) = sample(), sample()
        check(x, rx)
        pairs = list(zip_longest(rx, ry, fillvalue=Fraction(0)))
        check(x + y, _ref_strip(a + b for a, b in pairs))
        check(x - y, _ref_strip(a - b for a, b in pairs))
        check(x * y, _ref_mul(rx, ry, poly))
        assert (x == y) == (rx == ry)
        same = (x + y) - y
        assert same == x and hash(same) == hash(x)
        if any(rx):
            check(x.inverse(), _ref_inverse(rx, poly))
            low, high = _ref_value_interval(rx, poly, lo, hi)
            assert low != 0 and (low > 0) == (high > 0)
            assert x.sign() == (1 if low > 0 else -1)
            if math.floor(low) == math.floor(high):
                assert math.floor(x) == math.floor(low)
        else:
            assert x.sign() == 0 and math.floor(x) == 0


def test_values_built_two_ways_are_equal_and_hash_equal():
    pairs = [
        (QuadNum(Fraction(2, 4), Fraction(3, 6), 5), QuadNum(Fraction(1, 2), Fraction(1, 2), 5)),
        (QuadNum(Fraction(6, 3), Fraction(-4, 2), 2), QuadNum(2, -2, 2)),
        (q(1, 1, 5) * q(1, -1, 5), q(-4)),
        (q(1, 1, 5) * q(Fraction(1, 2)), q(Fraction(1, 2), Fraction(1, 2), 5)),
        (q(Fraction(1, 3), 1, 5) + q(Fraction(2, 3), -1, 5), q(1)),
        (q(3, 1, 5).inverse() * q(3, 1, 5), q(1)),
    ]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)
        assert left.coords == right.coords


def test_rationals_hash_like_the_equal_int_or_fraction():
    assert len({QuadNum(3), 3}) == 1
    assert {QuadNum(3): 1}.get(3) == 1
    assert hash(QuadNum(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(q(1, 1, 5) * q(1, -1, 5)) == hash(-4)
    assert hash(QuadNum(0)) == hash(0)


def test_coords_hold_int_for_integral_coordinates():
    value = QuadNum(Fraction(4, 2), Fraction(1, 2), 5)
    assert value.coords == (2, Fraction(1, 2))
    assert type(value.coords[0]) is int and type(value.coords[1]) is Fraction
    assert all(type(c) is int for c in q(6, 2, 5).coords)
    assert type(q(Fraction(8, 4)).coords[0]) is int
    assert str(value) == "2+(1/2)√5"
    assert repr(value) == "QuadNum(Fraction(2, 1), Fraction(1, 2), 5)"
