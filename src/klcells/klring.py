"""The integral group ring of D_2n in its Kazhdan-Lusztig basis.

For dihedral groups the basis element attached to w is the plain Bruhat sum
kl(w) = sum of all v <= w with coefficient 1, and the structure constants
kl(x) * kl(y) = sum_z c[x][y][z] kl(z) are non-negative integers.  This module
builds that table from the dihedral multiplication rule for kl(g) * kl(w),
without expanding anything in the group ring, one whole plane c[x] at a time
as a single packed int, and computes the left/right/two-sided cell
partitions any such table induces.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Sequence

from .dihedral import GENERATORS, DihedralElement, DihedralGroup

__all__ = [
    "KLStructureConstants",
    "CellPartition",
    "PositivityError",
    "structure_constants",
    "compute_cells",
]

# memoryview format of an unsigned digit of each width; lower case reads it signed
_FORMATS = {16: "H", 32: "I", 64: "Q"}
# memoryview.cast reads native byte order: a big-endian buffer lists the top digit first
_DIGIT_ORDER = 1 if sys.byteorder == "little" else -1


class PositivityError(ArithmeticError):
    """A structure constant came out negative or above its proven bound;
    indicates an implementation bug."""


@dataclass(frozen=True)
class KLStructureConstants:
    """Structure constants of ZD_2n in the KL basis: kl(x)kl(y) = sum c[x][y][z] kl(z)."""

    n: int
    labels: tuple[str, ...]
    elements: tuple[DihedralElement, ...]
    c: tuple[tuple[tuple[int, ...], ...], ...]
    identity_index: int = 0

    def index(self, label: str) -> int:
        return self.labels.index(label)


@lru_cache(maxsize=None)
def structure_constants(n: int) -> KLStructureConstants:
    """Compute (and cache) the full KL structure constant table for D_2n.

    Rows come from the dihedral left-multiplication rule at v = 1 (Lusztig,
    Hecke algebras with unequal parameters, dihedral chapter): for a generator
    g, kl(g)kl(w) = 2 kl(w) if g is a left descent of w, and otherwise
    kl(gw) + kl(hw), where h is the first letter of w and the second term
    drops when l(w) < 2.  A word x = g x' of length k then gives
    kl(x) = kl(g)kl(x') - kl(h x') (the second term only for k >= 3), so the
    rows follow one another in length order; w0 is taken as the word
    starting with s.

    Each plane is one int: c[x][y][z] is the digit at position y*size + z,
    W bits a digit.  kl(g) * (-) maps kl(z) to terms kl(z + d) with a
    coefficient b; grouping the terms by (d, b) gives one digit mask per
    group, repeated in every row slot, so the whole product is a few
    mask-shift-multiply-adds and no term leaves its row.  With A that
    product on c[x'] and D the plane c[h x'], the subtraction is
    ((A | G) - D) ^ G with G the top bit of every digit: a digit whose
    difference is negative borrows only its own guard bit, so every digit
    ends as its W-bit two's complement and a set guard bit marks a negative
    coefficient.

    The width is proven.  The augmentation epsilon(w) = 1 is a ring map,
    and epsilon(kl w) = #{v <= w} lies between 1 and 2n.  Applying it to
    kl(x)kl(y) gives sum_z c[x][y][z] epsilon(kl z) = epsilon(kl x)
    epsilon(kl y), so every entry is at most 4n^2; every coefficient of
    kl(g)kl(x')kl(y) is likewise at most 2 * 2(n - 1) * 2n < 8n^2, since
    l(x') < n.  W = (8n^2).bit_length() + 1, rounded up to 16, 32 or 64,
    keeps every digit of A and D below 2^(W-1): the sum forming A never
    carries and the guard bits start clear.  One more guard test checks
    every entry of the new plane against 4n^2, so an entry out of that range
    raises instead of wrapping; the plane is then read back into rows in C.
    Only the planes of the last two lengths are kept packed.
    """
    group = DihedralGroup(n)
    elements = group.elements()
    labels = tuple(group.label(el) for el in elements)
    index = {el: i for i, el in enumerate(elements)}
    size = len(elements)
    bound = 4 * n * n
    width, guard = _digit_layout(n, size * size)
    fmt, digit = _FORMATS[width], (1 << width) - 1
    # digit by digit, v + limit sets the guard bit exactly when v > bound
    limit = _repeat((1 << (width - 1)) - bound - 1, width, size * size)
    diagonal = _repeat(1, width * (size + 1), size)
    gens = {g: group.element(g) for g in GENERATORS}
    # left[g]: kl(g) * (-) on a plane, as (bit shift, coefficient, mask) per group
    left = {}
    for g in GENERATORS:
        groups: dict[tuple[int, int], int] = {}
        for z, w in enumerate(elements):
            for target, b in _left_terms(group, g, w, index):
                key = (width * (target - z), b)
                groups[key] = groups.get(key, 0) | digit << width * z
        left[g] = [
            (shift, b, _repeat(mask, width * size, size))
            for (shift, b), mask in groups.items()
        ]
    planes = {0: diagonal}
    table = [_rows(diagonal, size, width, fmt)]
    for i, x in enumerate(elements[1:], 1):
        g = x.start or "s"
        shorter = group.multiply(gens[g], x)
        base = planes[index[shorter]]
        drop = 0
        if x.length >= 3:
            drop = planes[index[group.multiply(gens[shorter.start], shorter)]]
        plane = 0
        for shift, b, mask in left[g]:
            part = base & mask
            plane += b * (part << shift if shift >= 0 else part >> -shift)
        plane = ((plane | guard) - drop) ^ guard
        if plane & guard:
            rows = _rows(plane, size, width, fmt.lower())
            j = next(j for j, row in enumerate(rows) if min(row) < 0)
            raise PositivityError(
                f"negative coefficient in kl({labels[i]})*kl({labels[j]}): {list(rows[j])}"
            )
        rows = _rows(plane, size, width, fmt)
        if (plane + limit) & guard:
            j = next(j for j, row in enumerate(rows) if max(row) > bound)
            raise PositivityError(
                f"coefficient above 4n^2 = {bound} in kl({labels[i]})*kl({labels[j]}): "
                f"{list(rows[j])}"
            )
        table.append(rows)
        planes[i] = plane
        # elements run by length, two of each: no later plane reads plane i - 4
        planes.pop(i - 4, None)
    constants = KLStructureConstants(n, labels, elements, tuple(table))
    _check_identity_axioms(constants)
    return constants


def _digit_layout(n: int, count: int) -> tuple[int, int]:
    """Digit width W for ZD_2n, and the mask of the top bit of `count` digits."""
    width = next(w for w in _FORMATS if w > (8 * n * n).bit_length())
    return width, _repeat(1 << (width - 1), width, count)


def _repeat(value: int, bits: int, count: int) -> int:
    """`count` copies of a `bits`-bit value side by side (bits a multiple of 8)."""
    return int.from_bytes(value.to_bytes(bits // 8, "little") * count, "little")


def _rows(plane: int, size: int, width: int, fmt: str) -> tuple[tuple[int, ...], ...]:
    """The size x size digits of a packed plane as rows, read in C."""
    data = plane.to_bytes(width // 8 * size * size, sys.byteorder)
    digits = memoryview(data).cast(fmt)[::_DIGIT_ORDER]
    return tuple(zip(*[iter(digits)] * size))


def _left_terms(
    group: DihedralGroup, g: str, w: DihedralElement, index: dict[DihedralElement, int]
) -> tuple[tuple[int, int], ...]:
    """kl(g) * kl(w) in the KL basis, as (index, coefficient) pairs, read off
    w's first letter and length l: g is a left descent of w exactly when w
    is w0 or starts with g; otherwise gw is the word of length l + 1 that
    starts with g (w0 at length n), and hw, h = w's first letter, the word
    of length l - 1 that starts with g."""
    length = w.length
    if length and w.start in (g, None):
        return ((index[w], 2),)
    up = DihedralElement(g if length + 1 < group.n else None, length + 1)
    if length < 2:
        return ((index[up], 1),)
    return ((index[up], 1), (index[DihedralElement(g, length - 1)], 1))


def _check_identity_axioms(constants: KLStructureConstants) -> None:
    e = constants.identity_index
    size = len(constants.labels)
    for j in range(size):
        unit = (0,) * j + (1,) + (0,) * (size - 1 - j)
        if constants.c[e][j] != unit or constants.c[j][e] != unit:
            raise PositivityError(f"identity axiom fails at index {j}")


@dataclass(frozen=True)
class CellPartition:
    """Cells of a positively based multiplication table and their orders.

    Cells are tuples of labels; cell lists are ordered by the first basis
    position they touch.  The order relations are reflexive-transitively
    closed sets of index pairs (i, j) meaning cells[i] <= cells[j].
    """

    labels: tuple[str, ...]
    left: tuple[tuple[str, ...], ...]
    right: tuple[tuple[str, ...], ...]
    two_sided: tuple[tuple[str, ...], ...]
    left_leq: frozenset[tuple[int, int]]
    right_leq: frozenset[tuple[int, int]]
    two_sided_leq: frozenset[tuple[int, int]]

    def cell_of(self, kind: str, label: str) -> int:
        for i, cell in enumerate(getattr(self, kind)):
            if label in cell:
                return i
        raise KeyError(label)


def _closure(rows: list[int]) -> list[int]:
    """Reflexive-transitive closure of a relation given by bit-mask rows.

    Bit j of rows[i] says i <= j.  Warshall's algorithm on the masks: once
    every row that reaches k has absorbed row k, paths through 0..k are
    closed, so O(size^2) int operations close the relation.
    """
    reach = [row | 1 << i for i, row in enumerate(rows)]
    for k in range(len(reach)):
        row, bit = reach[k], 1 << k
        reach = [r | row if r & bit else r for r in reach]
    return reach


def _cells_from_reach(
    labels: Sequence[str], reach: list[int]
) -> tuple[tuple[tuple[str, ...], ...], frozenset[tuple[int, int]]]:
    size = len(labels)
    cell_index = [-1] * size
    cells: list[list[int]] = []
    for i in range(size):
        if cell_index[i] >= 0:
            continue
        members = [j for j in range(size) if reach[i] >> j & 1 and reach[j] >> i & 1]
        for j in members:
            cell_index[j] = len(cells)
        cells.append(members)
    cell_labels = tuple(tuple(labels[j] for j in cell) for cell in cells)
    leq = frozenset(
        (a, b)
        for a, ca in enumerate(cells)
        for b, cb in enumerate(cells)
        if reach[ca[0]] >> cb[0] & 1
    )
    return cell_labels, leq


def compute_cells(
    labels: Sequence[str],
    c: Sequence[Sequence[Sequence[int]]],
    identity_index: int = 0,
) -> CellPartition:
    """Cell partition of a positively based table.

    The left preorder is generated by y <= z whenever kl(z) appears in some
    product kl(x)kl(y) (left multiplication moves up), the right preorder by
    x <= z whenever kl(z) appears in some kl(x)kl(y), and the two-sided
    preorder by their union; cells are the mutual-comparability classes.
    With these directions the identity cell is the minimum, matching the
    linear order {e} <= (middle) <= {w0} of the dihedral KL ring.

    Each relation is held as one int per basis element, bit z set when the
    element is <= z: the left row of y is the union over x of the positive
    support of kl(x)kl(y), the right row of x the union over y.
    identity_index is accepted and not read, because perfbench/worker.py
    passes it; the preorders need no distinguished element.
    """
    # support[x][y]: bit z set when kl(z) has a positive coefficient in kl(x)kl(y)
    support = [
        [sum(1 << z for z, a in enumerate(row) if a > 0) for row in plane]
        for plane in c
    ]
    left_rows = [reduce(or_, column, 0) for column in zip(*support)]
    right_rows = [reduce(or_, plane, 0) for plane in support]
    left_reach = _closure(left_rows)
    right_reach = _closure(right_rows)
    two_reach = _closure([a | b for a, b in zip(left_rows, right_rows)])
    left, left_leq = _cells_from_reach(labels, left_reach)
    right, right_leq = _cells_from_reach(labels, right_reach)
    two, two_leq = _cells_from_reach(labels, two_reach)
    return CellPartition(tuple(labels), left, right, two, left_leq, right_leq, two_leq)
