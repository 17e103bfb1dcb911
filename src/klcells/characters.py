"""Characters of commutative positively based rings and trace decompositions.

A character is a ring homomorphism to the scalars, recorded as its value
vector over the basis.  Every table is exact.  The rings Q_n get theirs from
the closed form chi_0 = (1, 0, ..., 0) and, for j = 1 ... floor(n/2),
chi_j(kl(s(ts)^k)) = 2 sin((2k+1) j pi/n) / sin(j pi/n)
               = 2 + 2 (P_j + P_2j + ... + P_kj)(lambda),
with lambda = 2cos(2pi/n) and the Chebyshev polynomials P_m of quadfield, so
every value lies in Q(lambda); the rows are kept only after an exact
multiplicativity check against the structure constants.  Any other ring goes
through a chained quadratic solver: fixing chi(e) = 1, each remaining basis
element b satisfies the monic quadratic
chi(b)^2 = c[b][b][b] chi(b) + (known lower terms), so the solver chains
through the basis branching on exact quadratic roots.  A ring that neither
route covers (values of higher degree, or from two quadratic fields at once)
raises CharacterError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .basedring import BasedRing, rigid_generator
from .matrixmodule import MatrixModule, identity_matrix
from .quadfield import (
    FieldElement,
    FieldMismatchError,
    NonRealRootsError,
    _integer_view,
    _poly_mul,
    _reduce,
    solve_quadratic_monic,
    two_cos,
)

__all__ = [
    "CharacterTable",
    "CharacterError",
    "NonCommutativeError",
    "DecompositionError",
    "SpecialCharacterError",
    "character_table",
    "decompose",
    "special_character",
]

_ZERO = FieldElement(0)
_ONE = FieldElement(1)


class CharacterError(ValueError):
    """The character table could not be produced as specified."""


class NonCommutativeError(CharacterError):
    """Character theory here only covers commutative rings."""


class DecompositionError(ValueError):
    """A trace system had no non-negative integer solution."""


class SpecialCharacterError(CharacterError):
    """The maximal-magnitude character was not unique."""


@dataclass(frozen=True)
class CharacterTable:
    """All characters of a commutative based ring, exactly.

    rows[i] is the value vector of the i-th character over ring.labels,
    sorted ascending by the value tuple for determinism.
    """

    ring: BasedRing
    rows: tuple[tuple[FieldElement, ...], ...]

    exact = True  # every table is exact; kept for callers that ask

    @property
    def size(self) -> int:
        return len(self.rows)

    def column_names(self) -> tuple[str, ...]:
        return tuple(f"V{i + 1}" for i in range(len(self.rows)))

    @cached_property
    def _inverse(self) -> list[list[FieldElement]] | None:
        """The inverse of the square matrix (chi_i(b)), rows b and columns i,
        by Gauss-Jordan elimination; None if it is singular."""
        size = self.size
        aug = [
            [self.rows[i][b] for i in range(size)]
            + [_ONE if k == b else _ZERO for k in range(size)]
            for b in range(size)
        ]
        for col in range(size):
            pivot = next((r for r in range(col, size) if aug[r][col] != _ZERO), None)
            if pivot is None:
                return None  # character rows should prevent this
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = aug[col][col].inverse()
            aug[col] = [v * inv for v in aug[col]]
            for r in range(size):
                if r != col and aug[r][col] != _ZERO:
                    factor = aug[r][col]
                    aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
        return [row[size:] for row in aug]

    @cached_property
    def _columns(self) -> tuple:
        """The columns (chi_i(b) for every i) in quadfield's integer view."""
        return _integer_view(list(zip(*self.rows)))

    @cached_property
    def _inverse_rows(self) -> tuple | None:
        """_inverse in quadfield's integer view; None if it is singular."""
        return None if self._inverse is None else _integer_view(self._inverse)

    @cached_property
    def _row_sums(self) -> tuple[FieldElement, ...]:
        """chi_i(sum of all basis elements) for every row i."""
        return tuple(sum(row, _ZERO) for row in self.rows)

    @cached_property
    def _abs_row_sums(self) -> tuple[FieldElement, ...]:
        return tuple(map(abs, self._row_sums))

    @cached_property
    def _nonnegative_rows(self) -> tuple[int, ...]:
        """The rows i with chi_i(b) >= 0 for every basis element b."""
        return tuple(i for i, row in enumerate(self.rows) if all(v >= 0 for v in row))


def _multiplicative(ring: BasedRing, row, xs) -> bool:
    """row(x) row(y) = sum_z c[x][y][z] row(z) for every x in xs and every y.

    Checked in quadfield's integer view, row(b) = A_b / D: the identity
    reads reduce(A_x A_y) == D sum_z c[x][y][z] A_z, coordinate by
    coordinate.  A row with values in two fields raises FieldMismatchError.
    """
    field, den, (columns,) = _integer_view([row])  # columns[k][z]: coordinate k of A_z
    coords = list(zip(*columns))
    for x in xs:
        for y, coeffs in enumerate(ring.c[x]):
            product = _poly_mul(coords[x], coords[y])
            if field is not None:
                _reduce(product, field.poly)
            if product != [den * sum(map(mul, coeffs, column)) for column in columns]:
                return False
    return True


def _closed_form_rows(ring: BasedRing) -> list[tuple[FieldElement, ...]] | None:
    """The closed-form characters of Q_n, n in {2(size - 1), 2 size - 1}, when
    they verify on this ring, read with its basis e, b_0 = s, b_1 = sts, ...
    in the order the multiplication gives; None otherwise.  b_0 is the one
    element with b_0 b_0 = 2 b_0 (rigid_generator); for each choice of sts
    (in index order), b_{k+1} is the one element not yet read in sts * b_k,
    if that chain covers the basis.  Q3 has no sts and goes to the quadratic solver.

    The check is multiplicativity against the generators s and sts only.
    That suffices on such a chain: sts * b_k has a non-zero b_{k+1}
    coefficient and none above, so each b_{k+1} is a polynomial in s and
    sts, and a linear form with chi(e) = 1 that is multiplicative against a
    generating set is multiplicative against the products of its members,
    so on the whole ring.
    """
    size, e = ring.size, ring.identity
    s = rigid_generator(ring)
    if s is None:
        return None
    basis = [b for b in range(size) if b != e]
    for sts in [b for b in basis if b != s]:
        chain = [s]
        while len(chain) < len(basis):
            new = [z for z in basis if ring.c[sts][chain[-1]][z] and z not in chain]
            if len(new) != 1:
                break
            chain += new
        if len(chain) < len(basis):
            continue
        order = [e, *chain]
        for n in (2 * size - 2, 2 * size - 1):
            lam = two_cos(n)
            cheb = [FieldElement(2), lam]  # cheb[m] = P_m(lambda) = 2cos(2pi m/n)
            for _ in range(2, n):
                cheb.append(lam * cheb[-1] - cheb[-2])
            rows = [[_ONE] + [_ZERO] * (size - 1)]
            for j in range(1, n // 2 + 1):
                values = [_ONE, FieldElement(2)]
                for m in range(1, size - 1):
                    values.append(values[-1] + 2 * cheb[m * j % n])
                rows.append(values)
            rows = [tuple(row[order.index(b)] for b in range(size)) for row in rows]
            if len(set(rows)) == size and all(
                _multiplicative(ring, row, (s, sts)) for row in rows
            ):
                return rows
    return None


class _ExactlyUnsolvable(Exception):
    pass


def _exact_rows(ring: BasedRing) -> list[tuple[FieldElement, ...]]:
    size = ring.size
    e = ring.identity
    rows: list[tuple[FieldElement, ...]] = []

    def extend(values: dict[int, FieldElement]) -> None:
        if len(values) == size:
            rows.append(tuple(values[i] for i in range(size)))
            return
        target = None
        for b in range(size):
            if b in values:
                continue
            support = [z for z in range(size) if ring.c[b][b][z] != 0 and z != b]
            if all(z in values for z in support):
                target = b
                break
        if target is None:
            raise _ExactlyUnsolvable
        b = target
        q = _ZERO
        for z in range(size):
            if z != b and ring.c[b][b][z]:
                q = q + ring.c[b][b][z] * values[z]
        if not q.is_rational:
            raise _ExactlyUnsolvable
        try:
            roots = solve_quadratic_monic(Fraction(ring.c[b][b][b]), q.a)
        except NonRealRootsError:
            return  # no real character down this branch
        seen = []
        for root in roots:
            if root in seen:
                continue
            seen.append(root)
            extend({**values, b: root})

    extend({e: _ONE})
    return rows


@lru_cache(maxsize=None)
def character_table(ring: BasedRing) -> CharacterTable:
    """All characters of a commutative based ring, exactly.

    Built once per ring (rings compare by value, name included) and shared
    by every caller.  Raises NonCommutativeError for non-commutative input
    and CharacterError when neither the closed form nor the quadratic solver
    yields a verified character per basis element (a non-split or
    non-semisimple spectrum, or values beyond their reach), rather than
    returning a partial table.
    """
    if not ring.is_commutative():
        raise NonCommutativeError(
            f"ring {ring.name or ring.labels} is not commutative"
        )
    verified = _closed_form_rows(ring)
    if verified is None:
        verified = []
        try:
            for row in _exact_rows(ring):
                if _multiplicative(ring, row, range(ring.size)) and row not in verified:
                    verified.append(row)
        except (_ExactlyUnsolvable, FieldMismatchError) as exc:
            raise CharacterError(
                f"the characters of {ring.name or 'the ring'} are neither those "
                "of a Q_n nor confined to one real quadratic field"
            ) from exc
    if len(verified) != ring.size:
        raise CharacterError(
            f"found {len(verified)} characters for a basis of size {ring.size}; "
            "the ring is not split semisimple over a real quadratic field"
        )
    order = [i for i in range(ring.size) if i != ring.identity]
    verified.sort(key=lambda row: tuple(row[i] for i in order))
    return CharacterTable(ring, tuple(verified))


def decompose(table: CharacterTable, module: MatrixModule) -> tuple[int, ...]:
    """Solve sum_i m_i chi_i(b) = trace(M_b) for non-negative integers m_i,
    the multiplicities of the characters by row index.

    The system is square (characters x basis elements) and the character rows
    are linearly independent, so the solution is unique when it exists; a
    non-integral or negative solution marks the module invalid.
    """
    ring = table.ring
    size = ring.size
    if module.rank < 1 or len(module.labels) != size:
        raise DecompositionError("module shape does not match the ring")
    if module.mats[ring.identity] != identity_matrix(module.rank):
        raise DecompositionError("identity basis element must act as the identity")
    return _trace_multiplicities(table, [module.trace(b) for b in range(size)])


def _trace_multiplicities(table: CharacterTable, traces: list[int]) -> tuple[int, ...]:
    """The non-negative integers m_i with sum_i m_i chi_i(b) = traces[b] for
    every basis element b; DecompositionError when there are none.

    m_i = sum_b inverse[i][b] traces[b] is summed on the ints of the table's
    inverse over one denominator D (_inverse_rows): m_i is an integer
    exactly when every irrational coordinate of D m_i is 0 and D divides
    the rational one.  Field elements are built only to render the error.
    """
    view = table._inverse_rows
    if view is None:
        raise DecompositionError("trace system is inconsistent for this module")
    field, den, rows = view
    solution = [[sum(map(mul, coords, traces)) for coords in row] for row in rows]
    if any(v[0] < 0 or v[0] % den or any(v[1:]) for v in solution):
        values = [str(FieldElement._make(field, v, den)) for v in solution]
        raise DecompositionError(
            f"trace system solution {values} is not a non-negative integer vector"
        )
    return tuple(v[0] // den for v in solution)


def special_character(table: CharacterTable) -> int:
    """Index of the unique character maximizing |chi(sum of all basis elements)|.

    This is the Perron-Frobenius distinguished constituent; a tie would mean
    the ring is outside the supported setting and raises.
    """
    sums = table._abs_row_sums
    best = 0
    for i in range(1, len(sums)):
        if sums[i] > sums[best]:
            best = i
    ties = [i for i in range(len(sums)) if i != best and sums[i] == sums[best]]
    if ties:
        raise SpecialCharacterError(
            f"maximal magnitude {sums[best]} attained by rows {[best] + ties}"
        )
    return best
