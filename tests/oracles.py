"""The plain loops that the integer kernels replaced, kept as test oracles.

Each is the straightforward version: matrix products as nested sums, traces
and trace decompositions as FieldElement sums, characters checked by
FieldElement products, kl(g)kl(w) read off the group's left descents and
products, and the naive module enumerator trying every value of every
entry.  The tests compare the library with them value by value.
"""

from klcells import classifier
from klcells.dihedral import DihedralElement, DihedralGroup
from klcells.matrixmodule import (
    canonical_module,
    identity_matrix,
    is_transitive,
    module_from_mats,
)
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
    if any(
        not value.is_rational or value.den != 1 or value.a < 0 for value in solution
    ):
        return None, (
            f"trace system solution {[str(v) for v in solution]} is not a "
            "non-negative integer vector"
        )
    return tuple(value.num[0] for value in solution), None


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


def bruteforce_matrix_modules(ring, rank, bound, filters=()):
    """classifier.bruteforce_matrix_modules with every value of an entry's
    domain tested against each equation attached to it, linear ones too."""
    classifier._check_range(rank, bound)
    names = classifier._resolve_filters(filters)
    rigid = None
    if "s-rigidity" in names:
        rigid = classifier._required_rigid_generator(ring)
    order = classifier._search_order(ring, rigid)
    cells = [(b, i, j) for b in order for i in range(rank) for j in range(rank)]
    index = {cell: k for k, cell in enumerate(cells)}
    domains = [
        ((0, 2) if i == j else (0,)) if b == rigid else range(bound + 1)
        for b, i, j in cells
    ]
    values = [0] * len(cells) + [1]
    checks = [[] for _ in cells]
    for terms in classifier._oracle_equations(ring, rank, index).values():
        last = max(k for _, u, v in terms for k in (u, v) if k < len(cells))
        checks[last].append(terms)
    results = {}

    def assign(k):
        if k == len(cells):
            mats = {
                b: tuple(
                    tuple(values[index[(b, i, j)]] for j in range(rank))
                    for i in range(rank)
                )
                for b in order
            }
            module = module_from_mats(ring, rank, mats)
            if is_transitive(module) and classifier._passes(ring, module, names):
                canon = canonical_module(module)
                results.setdefault(canon.key(), canon)
            return
        for value in domains[k]:
            values[k] = value
            if all(sum(c * values[u] * values[v] for c, u, v in terms) == 0
                   for terms in checks[k]):
                assign(k + 1)

    assign(0)
    return tuple(sorted(results.values(), key=lambda m: m.key()))
