"""The plain loops that the integer kernels replaced, kept as test oracles.

Each is the straightforward version: matrix products as nested sums, traces
and trace decompositions as FieldElement sums, characters checked by
FieldElement products, kl(g)kl(w) read off the group's left descents and
products, the KL table restricted to a span entry by entry, and the naive
module enumerator trying every value of every entry.  The tests compare the
library with them value by value.
"""

from klcells import classifier, klring
from klcells.basedring import BasedRing
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


def restricted_kl_ring(n, span, name):
    """The KL table of ZD_2n on the basis elements labelled span (e first),
    the kl(w0) coefficient deleted; asserts that every product of the span
    has support in span + {w0}.  Reads the uncached table, so a sweep over n
    holds one table at a time."""
    constants = klring.structure_constants.__wrapped__(n)
    keep = [constants.index(label) for label in span]
    allowed = {*keep, len(constants.labels) - 1}
    table = []
    for x in keep:
        plane = []
        for y in keep:
            row = constants.c[x][y]
            outside = [constants.labels[z] for z, a in enumerate(row) if a and z not in allowed]
            assert not outside, f"{constants.labels[x]}*{constants.labels[y]} reaches {outside}"
            plane.append(tuple(row[z] for z in keep))
        table.append(tuple(plane))
    return BasedRing(tuple(span), tuple(table), name=name)


def subquotient_by_restriction(n):
    """Q_n as ZD_2n restricted to e and the s-words of odd length below n."""
    group = DihedralGroup(n)
    span = ["e"] + [
        group.label(el)
        for el in group.elements()
        if el.start == "s" and el.length % 2 == 1 and el.length < n
    ]
    return restricted_kl_ring(n, span, f"Q{n}")


def bruteforce_matrix_modules(ring, rank, bound, *, rigid=False):
    """classifier.bruteforce_matrix_modules with every value of an entry's
    domain tested against each equation attached to it, linear ones too,
    and its own s-rigidity check on the leaves."""
    classifier._check_range(rank, bound)
    g = classifier._required_rigid_generator(ring) if rigid else None
    order = classifier._search_order(ring, g)
    cells = [(b, i, j) for b in order for i in range(rank) for j in range(rank)]
    index = {cell: k for k, cell in enumerate(cells)}
    domains = [
        ((0, 2) if i == j else (0,)) if b == g else range(bound + 1)
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
            # s-rigid: g acts diagonally with entries 0 or 2
            s_rigid = not rigid or all(
                v in ((0, 2) if i == j else (0,))
                for i, row in enumerate(mats[g]) for j, v in enumerate(row)
            )
            if is_transitive(module) and s_rigid:
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
