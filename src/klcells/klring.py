"""The integral group ring of D_2n in its Kazhdan-Lusztig basis.

For dihedral groups the basis element attached to w is the plain Bruhat sum
kl(w) = sum of all v <= w with coefficient 1, and the structure constants
kl(x) * kl(y) = sum_z c[x][y][z] kl(z) are non-negative integers.  This module
writes that table down in closed form, twice a truncated Clebsch-Gordan rule
read off Lusztig's dihedral multiplication rule, without expanding anything
in the group ring or multiplying group elements, and computes the
left/right/two-sided cell partitions any such table induces.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import NamedTuple, Sequence

from .dihedral import DihedralElement, DihedralGroup

__all__ = [
    "KLStructureConstants",
    "CellPartition",
    "PositivityError",
    "structure_constants",
    "compute_cells",
]

# bytes.translate table: the zero byte to the digit "0", every other byte to "1"
_BINARY_DIGITS = b"0" + b"1" * 255


class PositivityError(ArithmeticError):
    """A structure constant came out negative or not an integer, or the
    identity axiom failed; indicates an implementation bug."""


class KLStructureConstants(NamedTuple):
    """Structure constants of ZD_2n in the KL basis: kl(x)kl(y) = sum c[x][y][z] kl(z).

    A named tuple; index(label) looks up a basis label, not a field value.
    """

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

    Notation: a_l is the alternating word of length l starting with the
    letter a, a_0 = e and a_n = w0.  The augmentation (every w to 1) is a
    ring map, and eps(kl w) = #{v <= w} is 1, 2l or 2n for e, a_l or w0.
    For 0 < i < n and 0 <= j <= n, the band B(i, j) is the lengths
    |i - j| + 1, |i - j| + 3, ... below min(i + j, 2n - i - j): there are
    k = (min(i + j, 2n - i - j) - |i - j|) / 2 >= 0 of them, summing to
    k(|i - j| + k), and B(i, 0) and B(i, n) are empty.

    Lusztig's rule at v = 1 (Hecke algebras with unequal parameters,
    dihedral chapter), for a generator g and w != e: kl(g)kl(w) = 2 kl(w)
    when w starts with g or is w0, and kl(g)kl(b_l) = kl(g_{l+1}) +
    kl(g_{l-1}) for b != g, the second term only for l >= 2.  Inversion
    keeps the Bruhat order, so it reverses products of the kl(w), and
    kl(a_l)kl(g) = 2 kl(a_l) when a_l ends in g, kl(a_{l+1}) + kl(a_{l-1})
    otherwise.  As v kl(w0) = kl(w0) = kl(w0) v for every v,
    kl(x)kl(w0) = kl(w0)kl(x) = eps(kl x) kl(w0), and e is the unit: these
    are the rows and columns of e and w0.

    Claim: let x = a_i, 0 < i < n, end in the letter m, let b != m and
    0 < j < n.  Away from w0, kl(x)kl(m_j) is (S) 2 kl(a_l) summed over
    B(i, j), and kl(x)kl(b_j) is (O) kl(a_l) summed over B(i, j + 1) and
    over B(i, j - 1).  Each product is thus the sum over two bands, and its
    kl(w0) coefficient is forced, as eps(kl w0) = 2n: it is
    (eps(kl x) eps(kl y) - sum_{z != w0} c_z eps(kl z)) / 2n, with each
    band's part an arithmetic series.  PositivityError is raised unless it
    is a non-negative integer.

    (S), by induction on j.  At j = 1, kl(x)kl(m) = 2 kl(x) and
    B(i, 1) = {i}.  From j to j + 1 < n, with g the letter m_j does not end
    in: kl(m_{j+1}) = kl(m_j)kl(g) - kl(m_{j-1}), with no last term at
    j = 1, where B(i, 0) is empty.  Each l in B(i, j) = {L, ..., U} is
    i + j + 1 mod 2, so a_l ends like m_j, not in g, and kl(a_l)kl(g) =
    kl(a_{l+1}) + kl(a_{l-1}); kl(w0)kl(g) = 2 kl(w0).  Away from w0,
    kl(x)kl(m_j)kl(g) is then 2 kl(a_l) over L - 1 and U + 1 once and over
    L + 1, ..., U - 1 twice, dropping 0 (the rule's l >= 2) and n (w0).
    Two bands of one parity that start at p and p' and end at q and q' (an
    empty one ends 2 below its start) together cover a length as often as
    p, p' lie at or below it less q, q' below it.
    B(i, j - 1) and B(i, j + 1) start at L - 1 and L + 1 in some order, or
    both at L + 1 = 2 when i = j, where 0 is dropped; they end at U - 1 and
    U + 1 in some order, or both at U - 1 when i + j = n, where U + 1 = n.
    So subtracting B(i, j - 1) leaves B(i, j + 1).  (S) on the words s_l of
    odd length, with kl(w0) deleted, is the table of Q_n (subquotient_qn).

    (O).  m does not start b_j, so kl(m)kl(b_j) = kl(m_{j+1}) +
    kl(m_{j-1}), the second term only for j >= 2, and kl(x)kl(m) =
    2 kl(x).  So 2 kl(x)kl(b_j) is (S) at j + 1 plus (S) at j - 1, where
    kl(x)kl(w0) at j + 1 = n has nothing away from w0 and B(i, n) is empty,
    and the term at j - 1 = 0 is absent and B(i, 0) is empty.

    Both rules are symmetric in i and j: B(i, j) = B(j, i), and the two
    bands of (O) start at |i - j - 1| + 1 and |i - j + 1| + 1 and end where
    i + j alone fixes, so by the count above they cover what those of (j, i)
    cover; the rows of (i, j) and (j, i) are built once.  Swapping s and t
    keeps lengths, so sigma(kl w) = kl(sigma w) and c[sigma x][sigma y]
    [sigma z] = c[x][y][z]: the planes of the words starting with s follow
    the rule, and those starting with t are their images.  A row is its two
    bands laid out at the indices of the a_l, one slice of a zero-padded
    template, followed by its kl(w0) coefficient.
    """
    group = DihedralGroup(n)
    elements = group.elements()
    labels = tuple(group.label(el) for el in elements)
    size = 2 * n  # index 2l - 1 is s_l, 2l is t_l, and size - 1 is w0
    zero = (0,) * size
    unit = tuple(zero[:z] + (1,) + zero[z + 1 :] for z in range(size))
    eps = tuple(2 * el.length or 1 for el in elements)
    swap = itemgetter(0, *(z + 1 if z % 2 else z - 1 for z in range(1, size - 1)), size - 1)
    templates: dict[tuple[int, int, int, int], tuple[int, ...]] = {}

    def row(x: int, y: int, bands: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
        """kl(x)kl(y) from its two bands, each (first length, count)."""
        (first, k), (second, m) = bands
        left = eps[x] * eps[y] - 2 * (k * (first + k - 1) + m * (second + m - 1))
        c, rest = divmod(left, size)
        if rest or c < 0:
            raise PositivityError(
                f"kl(w0) coefficient {left}/{size} in kl({labels[x]})*kl({labels[y]}) "
                "is not a non-negative integer"
            )
        low = min(first, second)
        key = (first - low, k, second - low, m)
        if key not in templates:
            # the word of length low + d sits at index size - 1 + 2d
            body = [0] * (3 * size)
            for d, count in ((first - low, k), (second - low, m)):
                at = slice(size - 1 + 2 * d, size - 1 + 2 * d + 4 * count, 4)
                body[at] = [a + 1 for a in body[at]]
            templates[key] = tuple(body)
        return templates[key][size - 2 * low : 2 * size - 1 - 2 * low] + (c,)

    rows = {}
    for i in range(1, n):
        for j in range(i, n):
            same, other = _bands(n, i, j)
            # m_j is s_j (index 2j - 1) when i is odd, t_j (index 2j) when even
            rows[i, j] = rows[j, i] = (
                row(2 * i - 1, 2 * j - i % 2, same),
                row(2 * i - 1, 2 * j - 1 + i % 2, other),
            )
    table = [unit]
    for i in range(1, n):
        plane = [unit[2 * i - 1]]
        for j in range(1, n):
            same, other = rows[i, j]
            plane += (same, other) if i % 2 else (other, same)
        plane = (*plane, zero[:-1] + (eps[2 * i - 1],))
        table += [plane, tuple(map(swap, swap(plane)))]
    table.append(tuple(zero[:-1] + (e,) for e in eps))
    constants = KLStructureConstants(n, labels, elements, tuple(table))
    _check_identity_axioms(constants)
    return constants


def _bands(n: int, i: int, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The two bands, each (first length, count), of kl(a_i)kl(m_j) and of
    kl(a_i)kl(b_j), 0 < i, j < n, m the last letter of a_i and b the other:
    B(i, j) twice, and B(i, j + 1) and B(i, j - 1)."""
    down, same, up = (
        (abs(i - k) + 1, (min(i + k, 2 * n - i - k) - abs(i - k)) // 2)
        for k in (j - 1, j, j + 1)
    )
    return (same, same), (up, down)


def _check_identity_axioms(constants: KLStructureConstants) -> None:
    e = constants.identity_index
    size = len(constants.labels)
    for j in range(size):
        unit = (0,) * j + (1,) + (0,) * (size - 1 - j)
        if constants.c[e][j] != unit or constants.c[j][e] != unit:
            raise PositivityError(f"identity axiom fails at index {j}")


class CellPartition(NamedTuple):
    """Cells of a positively based multiplication table and their orders, as
    a named tuple.

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

    The supports are read in C, byte-packed: for a row whose entries all lie
    in range(256), bytes(row) succeeds and int.from_bytes packs entry z as
    byte z.  In that range an entry is positive exactly when it is non-zero,
    and OR-ing such ints acts byte by byte, never carrying, so byte z of the
    union over many rows is non-zero exactly when one of them has a positive
    entry z.  The unions are taken packed, one plane at a time, and turned
    into bit masks once per basis element, by one translate of the bytes to
    the digits "0" and "1".  A row that bytes() refuses (a negative or
    non-int entry, or one above 255, as in ZD_2n for n >= 128, where
    kl(w0)kl(w0) = 2n kl(w0)) is read entry by entry with a > 0, for that
    row only, into bytes 0 and 1.
    """
    left_bytes, right_rows = [0] * len(labels), []
    for plane in c:
        # support[y]: byte z non-zero when kl(z) has a positive coefficient in kl(x)kl(y)
        support = list(map(_byte_support, plane))
        left_bytes = list(map(or_, left_bytes, support))
        right_rows.append(_bit_mask(reduce(or_, support, 0)))
    left_rows = list(map(_bit_mask, left_bytes))
    left_reach = _closure(left_rows)
    right_reach = _closure(right_rows)
    two_reach = _closure([a | b for a, b in zip(left_rows, right_rows)])
    left, left_leq = _cells_from_reach(labels, left_reach)
    right, right_leq = _cells_from_reach(labels, right_reach)
    two, two_leq = _cells_from_reach(labels, two_reach)
    return CellPartition(tuple(labels), left, right, two, left_leq, right_leq, two_leq)


def _byte_support(row: Sequence[int]) -> int:
    """One row's support, byte-packed: byte z is non-zero exactly when row[z] > 0."""
    try:
        data = bytes(row)
    except (TypeError, ValueError):  # an entry that is not a byte
        data = bytes(a > 0 for a in row)
    return int.from_bytes(data, "little")


def _bit_mask(packed: int) -> int:
    """Bit z set for each non-zero byte z of packed."""
    digits = packed.to_bytes(max(1, (packed.bit_length() + 7) // 8), "big")
    return int(digits.translate(_BINARY_DIGITS), 2)
