"""The plain loops that the integer kernels replaced, kept as test oracles.

Each is the straightforward version: matrix products as nested sums, traces
and trace decompositions as FieldElement sums, characters checked by
FieldElement products, and kl(g)kl(w) read off the group's left descents and
products.  The tests compare the library with them value by value.
"""

from klcells.dihedral import DihedralElement, DihedralGroup
from klcells.matrixmodule import identity_matrix
from klcells.quadfield import FieldElement

_ZERO = FieldElement(0)


def mat_mul(x, y):
    rank = len(x)
    return tuple(
        tuple(sum(x[i][p] * y[p][j] for p in range(rank)) for j in range(rank))
        for i in range(rank)
    )


def satisfies_ring_relations(ring, module) -> bool:
    """M_x M_y == sum_z c[x][y][z] M_z entry by entry, e acting as I, no
    negative entry."""
    rank = module.rank
    if module.mats[ring.identity] != identity_matrix(rank):
        return False
    if any(v < 0 for mat in module.mats for row in mat for v in row):
        return False
    for x in range(ring.size):
        for y in range(ring.size):
            product = mat_mul(module.mats[x], module.mats[y])
            want = [[0] * rank for _ in range(rank)]
            for z in range(ring.size):
                coeff = ring.c[x][y][z]
                if coeff:
                    mz = module.mats[z]
                    for i in range(rank):
                        for j in range(rank):
                            want[i][j] += coeff * mz[i][j]
            if product != tuple(tuple(row) for row in want):
                return False
    return True


def exact_trace(table, profile, b) -> FieldElement:
    """sum_i profile[i] chi_i(b) as a field element."""
    total = _ZERO
    for i in range(table.size):
        if profile[i]:
            total = total + profile[i] * table.rows[i][b]
    return total


def trace_multiplicities(table, traces):
    """(multiplicities, None) or (None, the DecompositionError message)."""
    inverse = table._inverse
    if inverse is None:
        return None, "trace system is inconsistent for this module"
    solution = []
    for row in inverse:
        value = _ZERO
        for entry, trace in zip(row, traces):
            if trace:
                value = value + trace * entry
        solution.append(value)
    if any(not value.is_integer or value.a < 0 for value in solution):
        return None, (
            f"trace system solution {[str(v) for v in solution]} is not a "
            "non-negative integer vector"
        )
    return tuple(value.as_integer() for value in solution), None


def multiplicative(ring, row, xs) -> bool:
    """row(x) row(y) = sum_z c[x][y][z] row(z) for every x in xs and every y."""
    for x in xs:
        for y in range(ring.size):
            total = _ZERO
            for z, c in enumerate(ring.c[x][y]):
                if c:
                    total = total + c * row[z]
            if row[x] * row[y] != total:
                return False
    return True


def left_terms(group: DihedralGroup, g: str, w: DihedralElement, index):
    """kl(g) * kl(w) from the left descents of w and the group product."""
    if g in group.left_descents(w):
        return ((index[w], 2),)
    terms = ((index[group.multiply(group.element(g), w)], 1),)
    if w.length >= 2:
        terms += ((index[group.multiply(group.element(w.start), w)], 1),)
    return terms
