"""Exact arithmetic in Q and in real number fields Q(theta).

A FieldElement is a polynomial in theta with rational coordinates, reduced by
theta's minimal polynomial: a monic integer polynomial together with a
rational interval that isolates the real root meant.  Plain rationals belong
to every field.  The coordinates are stored as integer numerators over one
positive common denominator, reduced by their gcd, so that +, x, the
reduction by the minimal polynomial, signs and floors run on plain ints.
Signs, order and floors are decided exactly: the value is evaluated at a
dyadic approximation of theta, refined by bisecting the interval, until the
error bound from the derivative leaves no doubt (Cohen, *A Course in
Computational Algebraic Number Theory*).  Floats are for display and
cross-checks only and never enter a decision.

Two kinds of field occur.  QuadNum(a, b, d) is a + b*sqrt(d) in Q(sqrt(d))
with d square-free, theta = sqrt(d).  two_cos(n) is 2cos(2pi/n), which
generates Q(2cos(2pi/n)) of degree phi(n)/2; when that degree is 2 it is
written in the sqrt(d) basis instead, so every value of degree at most 2
renders as a+b√d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import zip_longest
from typing import Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "FieldElement",
    "NumberField",
    "QuadNum",
    "FieldMismatchError",
    "NonRealRootsError",
    "solve_quadratic_monic",
    "square_free_decomposition",
    "two_cos",
    "two_cos_minpoly",
]


class FieldMismatchError(ValueError):
    """Raised when combining values from distinct number fields."""


class NonRealRootsError(ValueError):
    """Raised when a quadratic has negative discriminant (complex spectrum)."""


def square_free_decomposition(k: int) -> tuple[int, int]:
    """Split k > 0 as m*m*d with d square-free; returns (m, d).

    Trial division: fine for the small discriminants this library produces,
    not meant for cryptographic-size input.
    """
    if k <= 0:
        raise ValueError(f"expected a positive integer, got {k}")
    m, d = 1, 1
    i = 2
    while i * i <= k:
        while k % (i * i) == 0:
            k //= i * i
            m *= i
        if k % i == 0:
            k //= i
            d *= i
        i += 1
    return m, d * k


# -- polynomials: coefficient lists from the constant term up ------------------


def _strip(coeffs: list) -> list:
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mul(x: Sequence, y: Sequence) -> list:
    head = x[0]
    out = [head * b for b in y] + [0] * (len(x) - 1)
    for i in range(1, len(x)):
        a = x[i]
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


def _over_common_denominator(coords: Sequence[Rational]) -> tuple[list[int], int]:
    """Integer numerators and their least common denominator."""
    den = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (den // c.denominator) for c in coords], den


def _reduce(product: list[int], poly: Sequence[int]) -> None:
    """Reduce product modulo the monic poly in place: the top term c theta**k
    is replaced by -c (poly[0] + poly[1] theta + ...) theta**(k - top) until
    fewer than top = deg(poly) coordinates are left."""
    top = len(poly) - 1
    while len(product) > top:
        c = product.pop()
        if c:
            base = len(product) - top
            for i in range(top):
                if poly[i]:
                    product[base + i] -= c * poly[i]


def _poly_divmod(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Quotient and remainder; integers stay integers when den is monic."""
    num, top = list(num), len(den) - 1
    quot = [0] * max(len(num) - top, 1)
    for k in range(len(num) - 1 - top, -1, -1):
        c = num[k + top] if den[top] == 1 else Fraction(num[k + top]) / den[top]
        quot[k] = c
        if c:  # the slot k + top itself is eliminated and never read again
            for i in range(top):
                if den[i]:
                    num[k + i] -= c * den[i]
    return quot, _strip(num[:top] or [0])


def _scaled_value(poly: Sequence[int], p: int, q: int) -> int:
    """q**deg * poly(p/q) for integer coefficients (homogeneous Horner)."""
    acc, scale = poly[-1], q
    for c in reversed(poly[:-1]):
        acc = acc * p + c * scale
        scale *= q
    return acc


def _sign(v) -> int:
    return (v > 0) - (v < 0)


class NumberField:
    """Q(theta) for the root theta of the monic, irreducible integer
    polynomial poly (degree >= 2, constant term first) inside the open
    interval (lo, hi), which holds no other root.  name renders theta."""

    __slots__ = ("poly", "name", "_lo", "_hi", "_lo_sign", "_bound", "_approx")

    def __init__(self, poly: Sequence[int], lo: Rational, hi: Rational, name: str) -> None:
        self.poly = tuple(poly)
        self.name = name
        self._lo, self._hi = Fraction(lo), Fraction(hi)
        self._lo_sign = _sign(_scaled_value(self.poly, self._lo.numerator, self._lo.denominator))
        # bounds |x| for every x within 1 of theta
        self._bound = math.ceil(max(abs(self._lo), abs(self._hi))) + 1
        self._approx: dict[int, int] = {}

    def _approximation(self, k: int) -> int:
        """An integer t with |theta - t/2**k| < 2**-k."""
        if k not in self._approx:
            width = Fraction(1, 1 << k)
            while self._hi - self._lo > width:
                mid = (self._lo + self._hi) / 2
                side = _sign(_scaled_value(self.poly, mid.numerator, mid.denominator))
                if side == 0:
                    raise ArithmeticError(f"{self.poly} has the rational root {mid}")
                if side == self._lo_sign:
                    self._lo = mid
                else:
                    self._hi = mid
            # theta lies in (t - 1, t + 1) / 2**k
            self._approx[k] = math.floor(self._lo * (1 << k)) + 1
        return self._approx[k]

    def _enclose(self, ints: Sequence[int], k: int) -> tuple[int, int, int]:
        """Integers (v, scale, err) with |f(theta) - v/scale| < err/scale,
        where f has the given integer coordinates (at least two)."""
        top = len(ints) - 1
        value = _scaled_value(ints, self._approximation(k), 1 << k)
        # mean value theorem: |f'| <= slope within 1 of theta
        slope = sum(i * abs(c) * self._bound ** (i - 1) for i, c in enumerate(ints) if i)
        return value, 1 << (k * top), slope << (k * (top - 1))

    def _sign_of(self, ints: Sequence[int]) -> int:
        k = 32
        while True:  # ends: f(theta) != 0 since theta has degree > deg f
            value, _, err = self._enclose(ints, k)
            if abs(value) > err:
                return _sign(value)
            k *= 2

    def _floor_of(self, ints: Sequence[int], den: int) -> int:
        """floor(f(theta) / den) for den > 0."""
        k = 32
        while True:  # ends: f(theta) is irrational, so no integer
            value, scale, err = self._enclose(ints, k)
            scale *= den
            low, high = (value - err) // scale, (value + err) // scale
            if low == high:
                return low
            k *= 2


@lru_cache(maxsize=None)
def _sqrt_field(d: int) -> NumberField:
    """Q(sqrt(d)) for a square-free d > 1, one instance per d."""
    if square_free_decomposition(d)[0] != 1:
        raise ValueError(f"d must be square-free, got d={d}")
    root = math.isqrt(d)
    return NumberField((-d, 0, 1), root, root + 1, f"√{d}")


_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


@total_ordering
class FieldElement:
    """An exact real number: a rational, or an element of a NumberField.

    The constructor, also exported as QuadNum, builds a + b*sqrt(d) with a, b
    rational and d square-free when b != 0; arithmetic reaches every other
    element.  The value is sum(num[i] * theta**i) / den with integers num
    (no trailing zeros) and den > 0 sharing no common factor, so equal values
    have equal fields, num and den; field is None exactly for rationals.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, a: Rational = 0, b: Rational = 0, d: int = 1) -> None:
        a, b = (x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (a, b))
        if b == 0:
            self.field, coords = None, (a,)
        elif d <= 1:
            raise ValueError(f"irrational part needs a field, got d={d}")
        else:
            self.field, coords = _sqrt_field(d), (a, b)
        num, self.den = _over_common_denominator(coords)
        self.num = tuple(num)

    @classmethod
    def _make(cls, field: NumberField | None, num: list[int], den: int = 1) -> FieldElement:
        """The value num/den, reduced to the stored form; den != 0."""
        num = _strip(num)
        if den != 1:
            g = math.gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [c // g for c in num]
                den //= g
        value = object.__new__(cls)
        value.field = field if len(num) > 1 else None
        value.num, value.den = tuple(num), den
        return value

    # -- views ----------------------------------------------------------------

    @property
    def coords(self) -> tuple[Rational, ...]:
        """Coordinates in the power basis of theta, without trailing zeros:
        an int where the coordinate is integral, a Fraction otherwise."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(c // den if c % den == 0 else Fraction(c, den) for c in self.num)

    @property
    def is_rational(self) -> bool:
        return self.field is None

    @property
    def is_quadratic(self) -> bool:
        """True when the value reads a + b*sqrt(d) (the QuadNum view)."""
        return self.field is None or self.field.poly[1:] == (0, 1)

    def _require_quadratic(self) -> None:
        if not self.is_quadratic:
            raise ValueError(f"{self} is not of the form a+b√d")

    def _quadratic(self) -> tuple[Fraction, Fraction, int]:
        self._require_quadratic()
        a = Fraction(self.num[0], self.den)
        if self.field is None:
            return a, Fraction(0), 1
        return a, Fraction(self.num[1], self.den), -self.field.poly[0]

    a = property(lambda self: self._quadratic()[0])
    b = property(lambda self: self._quadratic()[1])
    d = property(lambda self: self._quadratic()[2])

    def conjugate(self) -> FieldElement:
        """a - b*sqrt(d), for values of the QuadNum view."""
        self._require_quadratic()
        num = [self.num[0], *(-c for c in self.num[1:])]
        return FieldElement._make(self.field, num, self.den)

    # -- arithmetic -----------------------------------------------------------

    def _join(self, other: FieldElement) -> NumberField | None:
        if self.field is None or other.field is None or self.field is other.field:
            return self.field or other.field
        raise FieldMismatchError(
            f"cannot combine values from Q({self.field.name}) and Q({other.field.name})"
        )

    @staticmethod
    def _coerce(other: object) -> FieldElement | None:
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, int):
            return FieldElement._make(None, [other])
        if isinstance(other, Fraction):
            return FieldElement._make(None, [other.numerator], other.denominator)
        return None

    def __add__(self, other: object) -> FieldElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        field = self._join(rhs)
        da, db = self.den, rhs.den
        num = [x * db + y * da for x, y in zip_longest(self.num, rhs.num, fillvalue=0)]
        return FieldElement._make(field, num, da * db)

    __radd__ = __add__

    def __neg__(self) -> FieldElement:
        return FieldElement._make(self.field, [-c for c in self.num], self.den)

    def __sub__(self, other: object) -> FieldElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> FieldElement:
        return (-self) + other

    def __mul__(self, other: object) -> FieldElement:
        if isinstance(other, int):  # a scalar needs no reduction
            return FieldElement._make(self.field, [c * other for c in self.num], self.den)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        field = self._join(rhs)
        product = _poly_mul(self.num, rhs.num)
        if field is not None:
            _reduce(product, field.poly)
        return FieldElement._make(field, product, self.den * rhs.den)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if not any(self.num):
            raise ZeroDivisionError("division by zero")
        if self.field is None:
            return FieldElement._make(None, [self.den], self.num[0])
        # extended Euclid over Q: r0 = s0 * f and r1 = s1 * f mod poly, where
        # f = den * self; the gcd is a non-zero constant as poly is irreducible
        r0, s0, r1, s1 = list(self.field.poly), [0], list(self.num), [1]
        while len(r1) > 1:
            quot, rem = _poly_divmod(r0, r1)
            step = _poly_mul(quot, s1)
            s0, s1 = s1, [x - y for x, y in zip_longest(s0, step, fillvalue=0)]
            r0, r1 = r1, rem
        num, den = _over_common_denominator([Fraction(c) * self.den / r1[0] for c in s1])
        return FieldElement._make(self.field, num, den)

    def __truediv__(self, other: object) -> FieldElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._join(rhs)
        return self * rhs.inverse()

    def __rtruediv__(self, other: object) -> FieldElement:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    # -- order ----------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign under the real embedding that sends theta into its interval."""
        if self.field is None:
            return _sign(self.num[0])
        return self.field._sign_of(self.num)

    def __abs__(self) -> FieldElement:
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.field is rhs.field and self.num == rhs.num and self.den == rhs.den

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() < 0

    def __hash__(self) -> int:
        if self.field is None:  # a rational hashes like the equal int or Fraction
            return hash(Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    def __floor__(self) -> int:
        """The largest integer n <= self, decided exactly (math.floor)."""
        if self.field is None:
            return self.num[0] // self.den
        return self.field._floor_of(self.num, self.den)

    def __float__(self) -> float:
        theta = 0.0 if self.field is None else self.field._approximation(64) / (1 << 64)
        value = 0.0
        for c in reversed(self.num):
            value = value * theta + c / self.den
        return value

    def __str__(self) -> str:
        coords = self.coords
        if self.field is None:
            return str(coords[0])
        parts: list[str] = []
        for i, c in enumerate(coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            power = self.field.name + (str(i).translate(_SUPERSCRIPTS) if i > 1 else "")
            sign = "-" if c < 0 else "+" if parts else ""
            c = abs(c)
            if c == 1:
                term = power
            elif c.denominator == 1:
                term = f"{c}{power}"
            else:
                term = f"({c}){power}"
            parts.append(sign + term)
        return "".join(parts)

    def __repr__(self) -> str:
        if self.is_quadratic:
            a, b, d = self._quadratic()
            return f"QuadNum({a!r}, {b!r}, {d})"
        return f"FieldElement({self} in Q({self.field.name}))"


QuadNum = FieldElement


def _integer_view(
    rows: Sequence[Sequence[FieldElement]],
) -> tuple[NumberField | None, int, list[list[tuple[int, ...]]]]:
    """Rows of values of one field as plain ints: (field, D, out).

    D is the lcm of the dens of all the values, and out[r][k] holds
    coordinate k of D * rows[r][j] for every j, for each k below the field's
    degree (1 for Q): the numerators scaled to D, zero past a value's last
    one.  So rows[r][j] = sum_k out[r][k][j] theta**k / D, integer
    combinations of the values are sums of ints, coordinate by coordinate,
    and a product is _reduce(_poly_mul(.)) over D**2.  field is None when
    every value is rational.  Raises FieldMismatchError when two fields meet.
    """
    values = [value for row in rows for value in row]
    irrational = [value for value in values if value.field is not None]
    for value in irrational[1:]:
        irrational[0]._join(value)  # raises FieldMismatchError on a second field
    field = irrational[0].field if irrational else None
    degree = 1 if field is None else len(field.poly) - 1
    den = math.lcm(*(value.den for value in values))
    return field, den, [
        [
            tuple(v.num[k] * (den // v.den) if k < len(v.num) else 0 for v in row)
            for k in range(degree)
        ]
        for row in rows
    ]


def solve_quadratic_monic(p: Rational, q: Rational) -> tuple[FieldElement, FieldElement]:
    """Both roots of x**2 = p*x + q, exactly, smaller root first.

    Rational roots come back with b == 0; irrational roots come back as a
    conjugate pair over the square-free part of the discriminant.  Raises
    NonRealRootsError when the discriminant is negative.
    """
    p, q = Fraction(p), Fraction(q)
    disc = p * p + 4 * q
    if disc < 0:
        raise NonRealRootsError(f"x^2 = {p}x + {q} has no real roots")
    # sqrt(num/den) = sqrt(num*den)/den
    m, d = square_free_decomposition(disc.numerator * disc.denominator) if disc else (0, 1)
    half = Fraction(1, 2)
    if d == 1:
        root = Fraction(m, disc.denominator) if disc else Fraction(0)
        return (QuadNum((p - root) * half), QuadNum((p + root) * half))
    coeff = Fraction(m, disc.denominator) * half
    return (QuadNum(p * half, -coeff, d), QuadNum(p * half, coeff, d))


# -- the real cyclotomic fields Q(2cos(2pi/n)) ---------------------------------


@lru_cache(maxsize=None)
def two_cos_minpoly(n: int) -> tuple[int, ...]:
    """psi_n, the minimal polynomial of 2cos(2pi/n) over Q (constant term first).

    With the Chebyshev polynomials P_0 = 2, P_1 = x, P_{m+1} = x P_m - P_{m-1},
    P_m(2cos t) = 2cos(mt), so P_{floor(n/2)+1} - P_{ceil(n/2)-1} vanishes
    exactly at the distinct values 2cos(2pi j/n), 0 <= j <= n/2, and is the
    product of psi_d over the divisors d of n (psi_1 = x - 2, psi_2 = x + 2).
    Dividing out psi_d for d < n is exact integer long division.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n <= 2:
        return (-2, 1) if n == 1 else (2, 1)
    cheb = [[2], [0, 1]]
    for _ in range(n // 2):
        step = [0] + cheb[-1]
        for i, c in enumerate(cheb[-2]):
            step[i] -= c
        cheb.append(step)
    high, low = cheb[n // 2 + 1], cheb[(n + 1) // 2 - 1]
    poly = [c - (low[i] if i < len(low) else 0) for i, c in enumerate(high)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, two_cos_minpoly(d))
            if any(rem):
                raise ArithmeticError(f"psi_{d} does not divide the product for n={n}")
    return tuple(poly)


@lru_cache(maxsize=None)
def two_cos(n: int) -> FieldElement:
    """2cos(2pi/n) exactly, n >= 3: rational, a+b√d, or the generator λ of
    Q(2cos(2pi/n)) when that field has degree 3 or more."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    poly = two_cos_minpoly(n)
    if len(poly) == 2:
        return FieldElement(-poly[0])
    if len(poly) == 3:  # the larger root of x^2 + c1 x + c0
        return solve_quadratic_monic(-poly[1], -poly[0])[1]
    # 2cos(2pi/n) is the largest root and exceeds 2 - (2pi/n)^2 > lo; the
    # Descartes rule on psi_n(x + lo) proves that no other root exceeds lo
    lo = 2 - Fraction(44, 7 * n) ** 2
    shifted = [Fraction(c) for c in poly]
    for i in range(len(shifted) - 1):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] += lo * shifted[j + 1]
    signs = [c > 0 for c in shifted if c]
    if sum(x != y for x, y in zip(signs, signs[1:])) != 1:
        raise ArithmeticError(f"({lo}, 2) does not isolate 2cos(2pi/{n})")
    return FieldElement._make(NumberField(poly, lo, 2, "λ"), [0, 1])
