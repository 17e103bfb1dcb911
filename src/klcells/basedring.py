"""Positively based rings with an identity basis element.

Houses the generic container (labels, non-negative integer structure
constants, an anti-involution permuting the basis), its one axiom checker
verify, and the constructors used throughout: the full KL ring ZD_2n with
inversion as its involution, and the subquotient ring Q_n spanned by e and
the KL elements that start and end with s (with the longest-element
coefficient deleted from products).

It also holds the one kernel that checks ring relations
M_x M_y = sum_z c[x][y][z] M_z on packed ints, _relation_mismatches: verify
runs it on the left regular module, whose relations are associativity,
first for the relations of a generating set alone (Light's test), and
matrixmodule.satisfies_ring_relations on each module the search keeps.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, lshift, mul
from typing import Iterator, NamedTuple, Sequence

from . import klring
from .dihedral import DihedralGroup

__all__ = [
    "BasedRing",
    "RingError",
    "TruncationError",
    "RingFormatError",
    "RingViolation",
    "RingReport",
    "restrict_constants",
    "full_kl_ring",
    "subquotient_qn",
    "verify",
    "rigid_generator",
    "ring_products",
    "ring_to_text",
    "ring_from_text",
]


class RingError(ValueError):
    """A based-ring axiom failed."""


class TruncationError(RingError):
    """A product left the expected span before truncation."""


class RingFormatError(ValueError):
    """A serialized ring file could not be parsed."""


class _RingFields(NamedTuple):
    labels: tuple[str, ...]
    c: tuple[tuple[tuple[int, ...], ...], ...]
    identity: int
    involution: tuple[int, ...]
    name: str


class BasedRing(_RingFields):
    """A ring with a distinguished basis and non-negative structure constants.

    c[x][y][z] is the coefficient of basis element z in the product x * y.
    The involution is a permutation of basis indices acting as an
    anti-automorphism; it defaults to the identity permutation, which is
    right for Q_n, whose basis words are palindromes.

    A named tuple of its five fields: rings compare and hash by every field,
    name included.
    """

    __slots__ = ()

    def __new__(cls, labels, c, identity=0, involution=(), name=""):
        involution = involution or tuple(range(len(labels)))
        return super().__new__(cls, labels, c, identity, involution, name)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis element labeled {label!r}") from None

    def product(self, x: int | str, y: int | str) -> tuple[int, ...]:
        i = x if isinstance(x, int) else self.index(x)
        j = y if isinstance(y, int) else self.index(y)
        return self.c[i][j]

    def is_commutative(self) -> bool:
        return all(
            self.c[i][j] == self.c[j][i]
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )


class RingViolation(NamedTuple):
    axiom: str
    witness: tuple
    message: str


class RingReport(NamedTuple):
    """The outcome of verify, a named tuple: ok and every violation found."""

    ok: bool
    violations: tuple[RingViolation, ...]

    def summary(self) -> str:
        if self.ok:
            return "all based-ring axioms hold"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {v.axiom} at {v.witness}: {v.message}" for v in self.violations]
        return "\n".join(lines)


def verify(ring: BasedRing) -> RingReport:
    """Re-check every based-ring axiom; returns a report with witnesses.

    The report lists every violation, check by check (involution, labels,
    shape and positivity, identity, associativity, anti-involution) and, in
    each check, in index order; a constant that is not an int ends it, as a
    shape error does.  Every check compares whole rows first and spells out
    coordinates only for a row that fails.  Associativity is checked as the
    relations of the left regular module, whose matrix M_x has the product
    row c[x][z] as column z: _relation_mismatches compares (xy)z and x(yz)
    for every z at once as two packed ints, exactly for entries of any
    sign, and only a pair (x, y) whose sides differ is unpacked to name its
    failing (z, v).

    When both identity axioms hold, the pairs (x, g) with g in
    _generators(c, e) are checked first, and all pairs only if one fails, so
    the report is the same (Light's test; Clifford & Preston, vol. 1).  Over
    Q, N = {a : (xa)y = x(ay) for all x, y} is a subspace that holds e, and
    for a, b in N, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), so
    N is a subalgebra.  Passed pairs put the generators in N, hence every
    element the walk reaches, and N is the whole ring.

    With no identity or associativity violation, the anti-involution is
    likewise checked first on the pairs (x, y) with y = e or a generator.
    For phi the linear map of inv, Y = {y : phi(xy) = phi(y)phi(x) for all
    x} is a subspace that holds e iff inv[e] = e, and for a, b in Y,
    phi(x(ab)) = phi((xa)b) = phi(b)phi(a)phi(x) = phi(ab)phi(x), the last
    step by b in Y at x = a.  So Y is the whole ring once it holds e and
    the generators.
    """
    out: list[RingViolation] = []
    size = ring.size
    c = ring.c
    if sorted(ring.involution) != list(range(size)):
        out.append(RingViolation("involution", (), "not a permutation of the basis"))
        return RingReport(False, tuple(out))
    if len(set(ring.labels)) != size:
        out.append(RingViolation("labels", (), "labels are not distinct"))
    if len(c) != size or any(len(plane) != size for plane in c):
        out.append(RingViolation("shape", (), "not one plane of size rows per label"))
        return RingReport(False, tuple(out))
    for i in range(size):
        for j in range(size):
            row = c[i][j]
            if len(row) != size:
                out.append(RingViolation("shape", (i, j), "row of wrong length"))
                return RingReport(False, tuple(out))
            if {*map(type, row)} != {int}:
                z, a = next((z, a) for z, a in enumerate(row) if type(a) is not int)
                out.append(RingViolation("shape", (i, j, z), f"coefficient {a!r} is not an int"))
                return RingReport(False, tuple(out))
            if min(row) < 0:
                out.extend(
                    RingViolation("positivity", (i, j, z), f"coefficient {a} < 0")
                    for z, a in enumerate(row)
                    if a < 0
                )
    e = ring.identity
    before = len(out)
    generators = _generators(c, e) if 0 <= e < size else []
    if not 0 <= e < size:
        out.append(RingViolation("identity", (e,), "identity index out of range"))
    else:
        for j in range(size):
            unit = tuple(int(z == j) for z in range(size))
            if tuple(c[e][j]) != unit or tuple(c[j][e]) != unit:
                for z in range(size):
                    if c[e][j][z] != unit[z]:
                        out.append(RingViolation("left-identity", (j, z), "e*y != y"))
                    if c[j][e][z] != unit[z]:
                        out.append(RingViolation("right-identity", (j, z), "x*e != x"))
    # column z of M_x is the product row c[x][z], so the matrices are c
    # itself; entry (v, z) of M_x M_y is coordinate v of x(yz), and that of
    # sum_w c[x][y][w] M_w is coordinate v of (xy)z
    if len(out) > before or any(_relation_mismatches(c, c, generators)):
        for x, y, x_yz, xy_z, width in _relation_mismatches(c, c):
            left = _unpack(xy_z, width, size * size)
            right = _unpack(x_yz, width, size * size)
            out.extend(
                RingViolation("associativity", (x, y, *divmod(k, size)), f"{a} != {b}")
                for k, (a, b) in enumerate(zip(left, right))
                if a != b
            )
    inv = ring.involution
    if len(out) > before or any(_involution_mismatches(c, inv, [e, *generators])):
        for x, y in _involution_mismatches(c, inv, range(size)):
            row, image = c[x][y], c[inv[y]][inv[x]]
            out.extend(
                RingViolation("anti-involution", (x, y, z), f"{row[z]} != {image[inv[z]]}")
                for z in range(size)
                if row[z] != image[inv[z]]
            )
    return RingReport(not out, tuple(out))


def _involution_mismatches(
    c: Sequence[Sequence[Sequence[int]]], inv: Sequence[int], ys: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """Every (x, y) with y in ys whose row x*y, read through inv, is not
    inv(y)*inv(x), lazily, in index order."""
    for x in range(len(c)):
        for y in ys:
            if tuple(c[x][y]) != tuple(map(c[inv[y]][inv[x]].__getitem__, inv)):
                yield x, y


def _relation_mismatches(
    c: Sequence[Sequence[Sequence[int]]],
    columns: Sequence[Sequence[Sequence[int]]],
    ys: Sequence[int] | None = None,
) -> Iterator[tuple[int, int, int, int, int]]:
    """Every (x, y) with M_x M_y != sum_z c[x][y][z] M_z, lazily, in index order.

    Each matrix M_b is given by its columns: columns[b][j][i] is entry
    (i, j).  Yields (x, y, product, combination, width): both sides of the
    relation packed whole, entry (i, j) at digit j*rank + i of base
    2^width, so _unpack(side, width, rank * rank) reads them back column by
    column.  M_x M_y is sum_u col_u(M_x) * row_u(M_y), with column u packed
    at digits i and row u at digits j*rank, one big-int product per u; the
    combination is sum_z c[x][y][z] times M_z packed whole.  Only y in ys
    (default: all) are checked, and only their rows packed.

    Soundness, with no sign assumption: let A be the largest |entry| of a
    matrix, C the largest column sum of |entries| of a matrix and S the
    largest sum_z |c[x][y][z]|.  Entry (i, j) of M_x M_y has absolute value
    at most sum_u |M_x[i][u]| |M_y[u][j]| <= A*C, and entry (i, j) of the
    combination at most S*A, so every digit of either side is below
    2^(W-1) in absolute value for W = (A*max(C, S)).bit_length() + 1.  An
    int sum_k d_k 2^(W k) with every |d_k| < 2^(W-1) determines its digits
    d_k (two such sums that differ first at digit k differ there by less
    than 2^W and not by 0, so not by a multiple of 2^W), so the two packed
    sides are equal exactly when they agree in every entry, negative
    entries included.
    """
    rank = len(columns[0]) if columns else 0
    top = max((abs(v) for cols in columns for col in cols for v in col), default=0)
    column_sum = max((sum(map(abs, col)) for cols in columns for col in cols), default=0)
    spread = max((sum(map(abs, row)) for plane in c for row in plane), default=0)
    width = (top * max(column_sum, spread)).bit_length() + 1
    at_i = [width * i for i in range(rank)]
    at_j = [width * rank * j for j in range(rank)]
    ys = range(len(columns)) if ys is None else ys
    packed = [[sum(map(lshift, col, at_i)) for col in cols] for cols in columns]
    rows = {y: [sum(map(lshift, row, at_j)) for row in zip(*columns[y])] for y in ys}
    whole = [sum(map(lshift, cols, at_j)) for cols in packed]
    for x, plane in enumerate(c):
        column_of_x = packed[x]
        for y in ys:
            product = sum(map(mul, column_of_x, rows[y]))
            combination = sum(map(mul, plane[y], whole))
            if product != combination:
                yield x, y, product, combination, width


def _generators(c: Sequence[Sequence[Sequence[int]]], e: int) -> list[int]:
    """A generating set read off the table c with identity e, in index
    order, b being one unless it is the last coordinate off e of a row a*g
    with a = e or a < b and g an earlier generator: every other term of that
    row is e or earlier, so b is a rational combination of products of
    generators.  {s, t} for ZD_2n and {s, sts} for Q_n."""
    generators, reached, tops = [], [e], set()
    for b in range(len(c)):
        if b == e:
            continue
        rows = [c[b][g] for g in generators]
        if b not in tops:
            generators.append(b)
            rows += [c[a][b] for a in reached] + [c[b][b]]
        reached.append(b)
        tops.update(max((z for z, v in enumerate(row) if v and z != e), default=-1)
                    for row in rows)
    return generators


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The balanced base-2^width digits of packed, lowest first.

    Inverts the packing sum_k d_k 2^(width k) whenever every d_k lies
    strictly between -2^(width-1) and 2^(width-1).
    """
    mask, half = (1 << width) - 1, 1 << width - 1
    digits = []
    for _ in range(count):
        digit = packed & mask
        if digit >= half:
            digit -= 1 << width
        digits.append(digit)
        packed = (packed - digit) >> width
    return digits


def _checked(ring: BasedRing) -> BasedRing:
    report = verify(ring)
    if not report.ok:
        raise RingError(report.summary())
    return ring


def restrict_constants(
    constants: klring.KLStructureConstants,
    keep: Sequence[int],
    deletable: Sequence[int] = (),
    name: str = "",
) -> BasedRing:
    """Restrict a structure-constant table to a span, deleting coefficients at
    the deletable indices; raises if any product leaves span + deletable.

    Each kept row is read in C: one itemgetter projects it onto the span,
    and one any() over the entries at the positions outside span +
    deletable tests it, which is the per-entry test a != 0 at those
    positions.  Labels are spelled out only for a row that fails.
    """
    allowed = set(keep) | set(deletable)
    outside = _picker([z for z in range(len(constants.labels)) if z not in allowed])
    project = _picker(keep)
    labels = tuple(constants.labels[i] for i in keep)
    table = []
    for i in keep:
        row = []
        for j in keep:
            full = constants.c[i][j]
            if any(outside(full)):
                names = [
                    constants.labels[z] for z, a in enumerate(full) if a != 0 and z not in allowed
                ]
                raise TruncationError(
                    f"product {constants.labels[i]}*{constants.labels[j]} has "
                    f"support outside the span: {names}"
                )
            row.append(project(full))
        table.append(tuple(row))
    return _checked(BasedRing(labels, tuple(table), keep.index(0) if 0 in keep else 0, name=name))


def _picker(indices: Sequence[int]):
    """A callable taking a row to the tuple of its entries at indices:
    itemgetter, except that itemgetter of one index returns a bare entry."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices) if indices else lambda row: ()


def full_kl_ring(n: int) -> BasedRing:
    """The KL ring ZD_2n as a based ring whose involution is inversion.

    It is not passed through verify here: associativity takes seconds at
    n = 64, even on a generating set.  structure_constants already refuses
    a w0 coefficient that is not a non-negative integer, and a failing
    identity.
    """
    constants = klring.structure_constants(n)
    group = DihedralGroup(n)
    index = {el: i for i, el in enumerate(constants.elements)}
    involution = tuple(index[group.inverse(el)] for el in constants.elements)
    return BasedRing(
        constants.labels,
        constants.c,
        constants.identity_index,
        involution,
        name=f"ZD{2 * n}",
    )


@lru_cache(maxsize=None)
def subquotient_qn(n: int) -> BasedRing:
    """The based ring Q_n on {e} + {alternating s...s words of odd length < n}.

    Structure constants are the KL constants of ZD_2n restricted to that span,
    with the w0 coefficient deleted.  Any product whose support leaves
    span + {w0} would contradict the cell-theoretic closure and raises.
    """
    if n < 3:
        raise ValueError(f"subquotient ring needs n >= 3, got {n}")
    constants = klring.structure_constants(n)
    keep = [0] + [
        i
        for i, el in enumerate(constants.elements)
        if el.start == "s" and el.length % 2 == 1 and el.length < n
    ]
    w0 = len(constants.elements) - 1
    return restrict_constants(constants, keep, deletable=[w0], name=f"Q{n}")


def rigid_generator(ring: BasedRing) -> int | None:
    """The unique non-identity basis element g with g*g = 2g, if any.

    Over the subring spanned by e and g, a transitive action makes each basis
    line carry g as (0) or (2); that dichotomy is what the s-rigidity filter
    and the faithful rank screen lean on.  In Q_n, g is s, where the closed
    form of the characters starts.
    """
    hits = [
        b
        for b in range(ring.size)
        if b != ring.identity
        and all(ring.c[b][b][z] == 2 * (z == b) for z in range(ring.size))
    ]
    return hits[0] if len(hits) == 1 else None


# -- serialization ------------------------------------------------------------

_FORMAT_HEADER = "basedring v1"


def ring_to_text(ring: BasedRing) -> str:
    """Serialize to the line-oriented exchange format.

    Layout: a header, the ordered labels, the identity label, the involution
    images in basis order, then one "c x y z value" line per non-zero
    structure constant, in basis order.  Raises RingFormatError for a label
    that would not read back: an empty one, or one holding whitespace or #.
    """
    for label in ring.labels:
        if label.split() != [label] or "#" in label:
            raise RingFormatError(f"label {label!r} is empty or holds whitespace or '#'")
    lines = [
        f"# {_FORMAT_HEADER}",
        "labels " + " ".join(ring.labels),
        f"identity {ring.labels[ring.identity]}",
        "involution " + " ".join(ring.labels[i] for i in ring.involution),
    ]
    lines += [f"c {lx} {ly} {lz} {value}" for lx, ly, lz, value in ring_products(ring)]
    return "\n".join(lines) + "\n"


def ring_products(ring: BasedRing) -> Iterator[tuple[str, str, str, int]]:
    """Every non-zero structure constant as (x label, y label, z label,
    value), the coefficient of z in x * y, in basis order."""
    labels = ring.labels
    for x, lx in enumerate(labels):
        for y, ly in enumerate(labels):
            for z, value in enumerate(ring.c[x][y]):
                if value:
                    yield lx, ly, labels[z], value


def ring_from_text(text: str, name: str = "custom") -> BasedRing:
    """Parse the exchange format and validate every ring axiom.

    Each directive, and each constant (x, y, z), may be given once only.
    """
    labels: tuple[str, ...] | None = None
    identity_label: str | None = None
    involution_labels: Sequence[str] | None = None
    quadruples: list[tuple[str, str, str, int]] = []
    first_line: dict[tuple[str, ...], int] = {}  # directive or "c x y z" -> line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        once = tuple(parts[:4]) if key == "c" else (key,)
        if once in first_line:
            raise RingFormatError(
                f"line {lineno}: {' '.join(once)!r} already given on line "
                f"{first_line[once]}"
            )
        first_line[once] = lineno
        if key == "labels":
            labels = tuple(args)
        elif key == "identity":
            if len(args) != 1:
                raise RingFormatError(f"line {lineno}: identity takes one label")
            identity_label = args[0]
        elif key == "involution":
            involution_labels = args
        elif key == "c":
            if len(args) != 4:
                raise RingFormatError(f"line {lineno}: expected 'c x y z value'")
            try:
                value = int(args[3])
            except ValueError:
                raise RingFormatError(
                    f"line {lineno}: coefficient {args[3]!r} is not an integer"
                ) from None
            quadruples.append((args[0], args[1], args[2], value))
        else:
            raise RingFormatError(f"line {lineno}: unknown directive {key!r}")
    if labels is None or identity_label is None:
        raise RingFormatError("file must declare 'labels' and 'identity'")
    if len(set(labels)) != len(labels):
        raise RingFormatError("labels are not distinct")
    index = {label: i for i, label in enumerate(labels)}
    if identity_label not in index:
        raise RingFormatError(f"identity {identity_label!r} is not a label")
    if involution_labels is None:
        involution = tuple(range(len(labels)))
    else:
        try:
            involution = tuple(index[label] for label in involution_labels)
        except KeyError as exc:
            raise RingFormatError(f"involution uses unknown label {exc}") from None
        if len(involution) != len(labels):
            raise RingFormatError("involution must list an image for every label")
    size = len(labels)
    table = [[[0] * size for _ in range(size)] for _ in range(size)]
    for lx, ly, lz, value in quadruples:
        try:
            x, y, z = index[lx], index[ly], index[lz]
        except KeyError as exc:
            raise RingFormatError(f"constant uses unknown label {exc}") from None
        table[x][y][z] = value
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in table)
    return _checked(
        BasedRing(labels, frozen, index[identity_label], involution, name=name)
    )

