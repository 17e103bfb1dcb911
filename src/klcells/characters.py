"""Characters of commutative positively based rings and trace decompositions.

A character is a ring homomorphism to the scalars, recorded as its value
vector over the basis.  For the rings treated here every character is found
exactly: fixing chi(e) = 1, each remaining basis element b satisfies the monic
quadratic chi(b)^2 = c[b][b][b] chi(b) + (known lower terms), so the solver
chains through the basis branching on exact quadratic roots.  Rings whose
characters would need a higher-degree extension, or values from two different
quadratic fields, fall back to floating-point eigenvalue extraction and are
flagged inexact; nothing downstream that decides anything accepts an inexact
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basedring import BasedRing
from .matrixmodule import MatrixModule, identity_matrix
from .quadfield import (
    FieldMismatchError,
    NonRealRootsError,
    QuadNum,
    solve_quadratic_monic,
)

__all__ = [
    "CharacterTable",
    "ModuleDecomposition",
    "CharacterError",
    "NonCommutativeError",
    "DecompositionError",
    "SpecialCharacterError",
    "character_table",
    "decompose",
    "special_character",
]

_ZERO = QuadNum(Fraction(0))
_ONE = QuadNum(Fraction(1))


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
    """All characters of a commutative based ring.

    rows[i] is the value vector of the i-th character over ring.labels,
    sorted ascending by the value tuple for determinism.  exact is False only
    when the numeric fallback produced the rows (values are then floats).
    """

    ring: BasedRing
    rows: tuple[tuple, ...]
    exact: bool

    @property
    def size(self) -> int:
        return len(self.rows)

    def column_names(self) -> tuple[str, ...]:
        return tuple(f"V{i + 1}" for i in range(len(self.rows)))


@dataclass(frozen=True)
class ModuleDecomposition:
    """Multiplicities of the characters inside a matrix module, by row index."""

    multiplicities: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(self.multiplicities)


class _ExactlyUnsolvable(Exception):
    pass


def _exact_rows(ring: BasedRing) -> list[tuple[QuadNum, ...]]:
    size = ring.size
    e = ring.identity
    rows: list[tuple[QuadNum, ...]] = []

    def extend(values: dict[int, QuadNum]) -> None:
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


def _satisfies_exact(ring: BasedRing, row: tuple[QuadNum, ...]) -> bool:
    size = ring.size
    for x in range(size):
        for y in range(size):
            total = _ZERO
            for z in range(size):
                if ring.c[x][y][z]:
                    total = total + ring.c[x][y][z] * row[z]
            if row[x] * row[y] != total:
                return False
    return True


def _numeric_rows(ring: BasedRing) -> list[tuple[float, ...]]:
    """Characters via simultaneous diagonalization of the regular representation."""
    size = ring.size
    regs = []
    for b in range(size):
        mat = np.zeros((size, size))
        for x in range(size):
            for z in range(size):
                mat[z, x] = ring.c[b][x][z]
        regs.append(mat)
    # a fixed generic combination separates the common eigenvectors
    weights = [np.cos(1.7 * (i + 1)) + 2.0 for i in range(size)]
    mix = sum(w * m for w, m in zip(weights, regs))
    eigenvalues, vectors = np.linalg.eig(mix)
    if np.max(np.abs(eigenvalues.imag)) > 1e-9:
        raise CharacterError("non-real spectrum; no real character table")
    rows = []
    for j in range(size):
        v = vectors[:, j].real
        pivot = int(np.argmax(np.abs(v)))
        row = tuple(float((m @ v)[pivot] / v[pivot]) for m in regs)
        rows.append(row)
    return rows


def _satisfies_numeric(ring: BasedRing, row: tuple[float, ...], tol: float) -> bool:
    size = ring.size
    for x in range(size):
        for y in range(size):
            total = sum(ring.c[x][y][z] * row[z] for z in range(size))
            if abs(row[x] * row[y] - total) > tol:
                return False
    return True


def character_table(ring: BasedRing) -> CharacterTable:
    """All characters of a commutative based ring, exactly where possible.

    Raises NonCommutativeError for non-commutative input and CharacterError
    when the number of verified characters is not the basis size (non-split
    or non-semisimple spectrum), rather than returning a partial table.
    """
    if not ring.is_commutative():
        raise NonCommutativeError(
            f"ring {ring.name or ring.labels} is not commutative"
        )
    try:
        verified = []
        for row in _exact_rows(ring):
            if _satisfies_exact(ring, row) and row not in verified:
                verified.append(row)
    except (_ExactlyUnsolvable, FieldMismatchError):
        # the values leave a single real quadratic field
        return _numeric_table(ring)
    if len(verified) != ring.size:
        raise CharacterError(
            f"found {len(verified)} characters for a basis of size {ring.size}; "
            "the ring is not split semisimple over a real quadratic field"
        )
    order = [i for i in range(ring.size) if i != ring.identity]
    verified.sort(key=lambda row: tuple(row[i] for i in order))
    return CharacterTable(ring, tuple(verified), exact=True)


def _numeric_table(ring: BasedRing) -> CharacterTable:
    rows = _numeric_rows(ring)
    verified = [row for row in rows if _satisfies_numeric(ring, row, 1e-6)]
    if len(verified) != ring.size:
        raise CharacterError(
            f"numeric fallback verified {len(verified)} of {ring.size} characters"
        )
    order = [i for i in range(ring.size) if i != ring.identity]
    verified.sort(key=lambda row: tuple(round(row[i], 9) for i in order))
    return CharacterTable(ring, tuple(verified), exact=False)


def decompose(table: CharacterTable, module: MatrixModule) -> ModuleDecomposition:
    """Solve sum_i m_i chi_i(b) = trace(M_b) for non-negative integers m_i.

    The system is square (characters x basis elements) and the character rows
    are linearly independent, so the solution is unique when it exists; a
    missing, non-integral or negative solution marks the module invalid.
    """
    if not table.exact:
        raise DecompositionError("decomposition requires an exact character table")
    ring = table.ring
    size = ring.size
    if module.rank < 1 or len(module.labels) != size:
        raise DecompositionError("module shape does not match the ring")
    if module.mats[ring.identity] != identity_matrix(module.rank):
        raise DecompositionError("identity basis element must act as the identity")
    return ModuleDecomposition(
        _trace_multiplicities(table, [module.trace(b) for b in range(size)])
    )


def _trace_multiplicities(table: CharacterTable, traces: list[int]) -> tuple[int, ...]:
    """The non-negative integers m_i with sum_i m_i chi_i(b) = traces[b] for
    every basis element b, over an exact table; DecompositionError when there
    are none."""
    size = table.size
    # augmented system: rows indexed by basis element, columns by character
    aug = [
        [QuadNum.of(table.rows[i][b]) for i in range(size)]
        + [QuadNum(Fraction(traces[b]))]
        for b in range(size)
    ]
    solution = _solve_exact_linear(aug, size)
    if solution is None:
        raise DecompositionError("trace system is inconsistent for this module")
    mults = []
    for value in solution:
        if not value.is_integer or value.a < 0:
            raise DecompositionError(
                f"trace system solution {[str(v) for v in solution]} is not a "
                "non-negative integer vector"
            )
        mults.append(value.as_integer())
    return tuple(mults)


def _solve_exact_linear(aug: list[list[QuadNum]], size: int) -> list[QuadNum] | None:
    rows = len(aug)
    pivot_rows: list[int] = []
    row_used = [False] * rows
    for col in range(size):
        pivot = next(
            (r for r in range(rows) if not row_used[r] and aug[r][col] != _ZERO),
            None,
        )
        if pivot is None:
            return None  # singular: character rows should prevent this
        row_used[pivot] = True
        pivot_rows.append(pivot)
        inv = aug[pivot][col].inverse()
        aug[pivot] = [v * inv for v in aug[pivot]]
        for r in range(rows):
            if r != pivot and aug[r][col] != _ZERO:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[pivot])]
    for r in range(rows):
        if not row_used[r] and aug[r][size] != _ZERO:
            return None  # inconsistent
    return [aug[pivot_rows[col]][size] for col in range(size)]


def special_character(table: CharacterTable) -> int:
    """Index of the unique character maximizing |chi(sum of all basis elements)|.

    This is the Perron-Frobenius distinguished constituent; a tie would mean
    the ring is outside the supported setting and raises.
    """
    if not table.exact:
        raise SpecialCharacterError("special character needs an exact table")
    sums = []
    for row in table.rows:
        total = _ZERO
        for value in row:
            total = total + value
        sums.append(abs(total))
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
