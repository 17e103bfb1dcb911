"""Tuples of square non-negative-integer matrices acting like a based ring.

A MatrixModule records one rank x rank matrix per basis label (the identity
label always acts as the identity matrix).  Candidate modules produced by the
search are canonicalized by simultaneous row/column permutation so that each
equivalence class has a single representative.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .basedring import BasedRing, _relation_mismatches

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "Matrix",
    "MatrixModule",
    "identity_matrix",
    "zero_matrix",
    "trivial_module",
    "module_from_mats",
    "satisfies_ring_relations",
    "is_transitive",
    "canonical_module",
]


def identity_matrix(rank: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def zero_matrix(rank: int) -> Matrix:
    return tuple((0,) * rank for _ in range(rank))


class MatrixModule(NamedTuple):
    """A candidate transitive based module: one matrix per basis label, as a
    named tuple (immutable, compared and hashed by value).

    Each matrix counts direct-sum multiplicities of the action of its basis
    element.  The companion matrices counting composition multiplicities are
    the transposes taken at the involuted labels; the rings built here have
    identity involution (all basis words are palindromes), so that companion
    data adds no extra constraint and is not stored.
    """

    labels: tuple[str, ...]
    identity: int
    rank: int
    mats: tuple[Matrix, ...]

    def mat(self, label: str) -> Matrix:
        return self.mats[self.labels.index(label)]

    def trace(self, b: int | str) -> int:
        i = b if isinstance(b, int) else self.labels.index(b)
        return sum(self.mats[i][j][j] for j in range(self.rank))

    def flat(self) -> tuple[tuple[int, ...], ...]:
        """Row-major entries of every non-identity matrix, in label order."""
        return tuple(
            tuple(v for row in mat for v in row)
            for i, mat in enumerate(self.mats)
            if i != self.identity
        )

    def key(self) -> tuple:
        """Dedup/sort key: (rank, flattened non-identity matrices)."""
        return (self.rank, self.flat())


def module_from_mats(ring: BasedRing, rank: int, mats: dict[int, Matrix]) -> MatrixModule:
    """The module with mats[b] for every basis element b off the identity."""
    full = tuple(
        identity_matrix(rank) if i == ring.identity else mats[i] for i in range(ring.size)
    )
    return MatrixModule(ring.labels, ring.identity, rank, full)


def trivial_module(ring: BasedRing) -> MatrixModule:
    """Rank one, every non-identity basis element acting by zero."""
    mats = {i: zero_matrix(1) for i in range(ring.size) if i != ring.identity}
    return module_from_mats(ring, 1, mats)


def satisfies_ring_relations(ring: BasedRing, module: MatrixModule) -> bool:
    """Full re-verification M_x M_y == sum_z c[x][y][z] M_z by matrix
    multiplication, independent of any search pruning.

    Both sides of every relation are compared as packed ints by the kernel
    that basedring.verify runs on the left regular module, which also holds
    the argument that the comparison is exact; the first mismatch decides.
    Every relation is checked: the ring need not have passed verify.  A
    matrix entry that is not a non-negative int fails.
    """
    rank, mats = module.rank, module.mats
    if mats[ring.identity] != identity_matrix(rank):
        return False
    if any(type(v) is not int or v < 0 for mat in mats for row in mat for v in row):
        return False
    columns = [tuple(zip(*mat)) for mat in mats]
    return next(_relation_mismatches(ring.c, columns), None) is None


def is_transitive(module: MatrixModule) -> bool:
    """Every position (i, j) is hit by a strictly positive entry of some M_b."""
    rank = module.rank
    for i in range(rank):
        for j in range(rank):
            if not any(mat[i][j] > 0 for mat in module.mats):
                return False
    return True


def canonical_module(module: MatrixModule) -> MatrixModule:
    """Lexicographically smallest simultaneous row/column permutation.

    Each permutation is compared by its flattened non-identity entries alone,
    the first minimum wins, and only the winner's matrices are built.
    """
    others = [mat for i, mat in enumerate(module.mats) if i != module.identity]
    best = min(
        permutations(range(module.rank)),
        key=lambda perm: tuple(mat[i][j] for mat in others for i in perm for j in perm),
    )
    mats = tuple(tuple(tuple(mat[i][j] for j in best) for i in best) for mat in module.mats)
    return MatrixModule(module.labels, module.identity, module.rank, mats)
