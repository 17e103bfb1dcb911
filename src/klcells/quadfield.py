"""Exact arithmetic in Q and in real quadratic fields Q(sqrt(d)).

A value is a pair a + b*sqrt(d) with rational a, b and a square-free integer
d > 1; b == 0 encodes a plain rational (stored with d == 1) and is compatible
with every field.  All comparisons are exact sign computations on rationals;
floating point is available only for display and cross-checks and never enters
a decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Union

Rational = Union[int, Fraction]

__all__ = [
    "QuadNum",
    "FieldMismatchError",
    "NonRealRootsError",
    "compare",
    "solve_quadratic_monic",
    "square_free_decomposition",
]


class FieldMismatchError(ValueError):
    """Raised when combining values from distinct quadratic fields."""


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


def _is_square_free(d: int) -> bool:
    m, _ = square_free_decomposition(d)
    return m == 1


@total_ordering
@dataclass(frozen=True)
class QuadNum:
    """An exact real number a + b*sqrt(d) with a, b rational."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b == 0:
            object.__setattr__(self, "d", 1)
        elif self.d <= 1:
            raise ValueError(f"irrational part needs a field, got d={self.d}")
        elif not _is_square_free(self.d):
            raise ValueError(f"d must be square-free, got d={self.d}")

    @classmethod
    def of(cls, value: Rational | QuadNum) -> QuadNum:
        if isinstance(value, QuadNum):
            return value
        return cls(Fraction(value))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return int(self.a)

    def conjugate(self) -> QuadNum:
        return QuadNum(self.a, -self.b, self.d)

    def sign(self) -> int:
        """Exact sign under the real embedding with sqrt(d) > 0."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt(d) decided by squaring
        lead = 1 if a > 0 else -1
        diff = a * a - b * b * self.d
        if diff == 0:
            return 0
        return lead if diff > 0 else -lead

    def _join(self, other: QuadNum) -> int:
        if self.b == 0:
            return other.d
        if other.b == 0 or other.d == self.d:
            return self.d
        raise FieldMismatchError(
            f"cannot combine values from Q(√{self.d}) and Q(√{other.d})"
        )

    def _coerce(self, other: object) -> QuadNum | None:
        if isinstance(other, QuadNum):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(Fraction(other))
        return None

    def __add__(self, other: object) -> QuadNum:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = self._join(rhs)
        return QuadNum(self.a + rhs.a, self.b + rhs.b, d if self.b + rhs.b else 1)

    __radd__ = __add__

    def __neg__(self) -> QuadNum:
        return QuadNum(-self.a, -self.b, self.d)

    def __sub__(self, other: object) -> QuadNum:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> QuadNum:
        return (-self) + other

    def __mul__(self, other: object) -> QuadNum:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = self._join(rhs)
        a = self.a * rhs.a + self.b * rhs.b * d
        b = self.a * rhs.b + self.b * rhs.a
        return QuadNum(a, b, d if b else 1)

    __rmul__ = __mul__

    def inverse(self) -> QuadNum:
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("division by zero")
        norm = self.a * self.a - self.b * self.b * self.d
        # norm == 0 would force sqrt(d) rational, impossible for square-free d > 1
        return QuadNum(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other: object) -> QuadNum:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._join(rhs)
        return self * rhs.inverse()

    def __rtruediv__(self, other: object) -> QuadNum:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __abs__(self) -> QuadNum:
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.a == rhs.a and self.b == rhs.b and self.d == rhs.d

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() < 0

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __floor__(self) -> int:
        """The largest integer n <= self, decided exactly (math.floor)."""
        # b*sqrt(d) = ±sqrt(m); isqrt(floor(m)) is floor(sqrt(m)), so the
        # estimate is off by at most one and exact comparisons correct it
        m = self.b * self.b * self.d
        root = math.isqrt(math.floor(m))
        n = math.floor(self.a) + (root if self.b >= 0 else -root - 1)
        while n > self:
            n -= 1
        while n + 1 <= self:
            n += 1
        return n

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"√{self.d}"
        if self.b == 1:
            tail = root
        elif self.b == -1:
            tail = f"-{root}"
        elif self.b.denominator == 1:
            tail = f"{self.b}{root}"
        else:
            tail = f"({self.b}){root}"
        if self.a == 0:
            return tail
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{tail}"

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r}, {self.d})"


def compare(x: QuadNum | Rational, y: QuadNum | Rational) -> int:
    """Exact three-way comparison; -1, 0 or 1."""
    return (QuadNum.of(x) - QuadNum.of(y)).sign()


def solve_quadratic_monic(p: Rational, q: Rational) -> tuple[QuadNum, QuadNum]:
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
