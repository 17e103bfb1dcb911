"""The integral group ring of D_2n in its Kazhdan-Lusztig basis.

For dihedral groups the basis element attached to w is the plain Bruhat sum
kl(w) = sum of all v <= w with coefficient 1, and the structure constants
kl(x) * kl(y) = sum_z c[x][y][z] kl(z) are non-negative integers.  This module
computes those constants, the change of basis, and the left/right/two-sided
cell partitions any such table induces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .dihedral import DihedralElement, DihedralGroup

# A group algebra element is a finitely supported integer coefficient vector,
# kept as a mapping from group elements to (arbitrary-precision) ints.
GroupAlgebraElement = dict[DihedralElement, int]

__all__ = [
    "GroupAlgebraElement",
    "KLStructureConstants",
    "CellPartition",
    "PositivityError",
    "algebra_product",
    "kl_basis_element",
    "to_kl_coords",
    "structure_constants",
    "compute_cells",
]


class PositivityError(ArithmeticError):
    """A structure constant came out negative; indicates an implementation bug."""


def algebra_product(
    group: DihedralGroup,
    x: Mapping[DihedralElement, int],
    y: Mapping[DihedralElement, int],
) -> GroupAlgebraElement:
    """Convolution product in the integral group ring."""
    out: GroupAlgebraElement = {}
    for u, cu in x.items():
        if cu == 0:
            continue
        for v, cv in y.items():
            if cv == 0:
                continue
            w = group.multiply(u, v)
            out[w] = out.get(w, 0) + cu * cv
    return {w: c for w, c in out.items() if c != 0}


def kl_basis_element(group: DihedralGroup, w: DihedralElement) -> GroupAlgebraElement:
    """kl(w) = sum of all v <= w in Bruhat order, each with coefficient 1."""
    return {v: 1 for v in group.elements() if group.bruhat_leq(v, w)}


def to_kl_coords(
    group: DihedralGroup, x: Mapping[DihedralElement, int]
) -> tuple[int, ...]:
    """Coordinates of x in the KL basis, aligned with group.elements().

    The change of basis is unitriangular with respect to length, so a single
    back-substitution sweep in length-decreasing order is exact over Z.
    """
    elements = group.elements()
    remaining = dict(x)
    coords = [0] * len(elements)
    for i in range(len(elements) - 1, -1, -1):
        el = elements[i]
        a = remaining.get(el, 0)
        if a == 0:
            continue
        coords[i] = a
        for v in kl_basis_element(group, el):
            b = remaining.get(v, 0) - a
            if b == 0:
                remaining.pop(v, None)
            else:
                remaining[v] = b
    if remaining:
        raise PositivityError(f"back-substitution left a remainder: {remaining}")
    return tuple(coords)


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
    """Compute (and cache) the full KL structure constant table for D_2n."""
    group = DihedralGroup(n)
    elements = group.elements()
    labels = tuple(group.label(el) for el in elements)
    basis = [kl_basis_element(group, el) for el in elements]
    size = len(elements)
    table = []
    for i in range(size):
        row = []
        for j in range(size):
            coords = to_kl_coords(group, algebra_product(group, basis[i], basis[j]))
            if any(a < 0 for a in coords):
                raise PositivityError(
                    f"negative coefficient in kl({labels[i]})*kl({labels[j]}): {coords}"
                )
            row.append(coords)
        table.append(tuple(row))
    constants = KLStructureConstants(n, labels, elements, tuple(table))
    _check_identity_axioms(constants)
    return constants


def _check_identity_axioms(constants: KLStructureConstants) -> None:
    e = constants.identity_index
    size = len(constants.labels)
    for j in range(size):
        for z in range(size):
            want = 1 if z == j else 0
            if constants.c[e][j][z] != want or constants.c[j][e][z] != want:
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


def _closure(size: int, edges: set[tuple[int, int]]) -> list[list[bool]]:
    reach = [[i == j for j in range(size)] for i in range(size)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(size):
        rk = reach[k]
        for i in range(size):
            if reach[i][k]:
                ri = reach[i]
                for j in range(size):
                    if rk[j]:
                        ri[j] = True
    return reach


def _cells_from_reach(
    labels: Sequence[str], reach: list[list[bool]]
) -> tuple[tuple[tuple[str, ...], ...], frozenset[tuple[int, int]]]:
    size = len(labels)
    cell_index = [-1] * size
    cells: list[list[int]] = []
    for i in range(size):
        if cell_index[i] >= 0:
            continue
        members = [j for j in range(size) if reach[i][j] and reach[j][i]]
        for j in members:
            cell_index[j] = len(cells)
        cells.append(members)
    cell_labels = tuple(tuple(labels[j] for j in cell) for cell in cells)
    leq = frozenset(
        (a, b)
        for a, ca in enumerate(cells)
        for b, cb in enumerate(cells)
        if reach[ca[0]][cb[0]]
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
    """
    size = len(labels)
    left_edges: set[tuple[int, int]] = set()
    right_edges: set[tuple[int, int]] = set()
    for x in range(size):
        for y in range(size):
            row = c[x][y]
            for z in range(size):
                if row[z] > 0:
                    left_edges.add((y, z))
                    right_edges.add((x, z))
    left_reach = _closure(size, left_edges)
    right_reach = _closure(size, right_edges)
    two_reach = _closure(size, left_edges | right_edges)
    left, left_leq = _cells_from_reach(labels, left_reach)
    right, right_leq = _cells_from_reach(labels, right_reach)
    two, two_leq = _cells_from_reach(labels, two_reach)
    return CellPartition(tuple(labels), left, right, two, left_leq, right_leq, two_leq)
