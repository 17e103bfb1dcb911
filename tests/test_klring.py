import hashlib
import itertools
import json
from fractions import Fraction
from functools import lru_cache
from operator import mul

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcells import klring
from klcells.dihedral import GENERATORS, DihedralGroup
from klcells.klring import PositivityError, compute_cells, structure_constants

from conftest import cell_of

# uncached, so that the large tables built here do not stay alive all session
_uncached = structure_constants.__wrapped__


def _oracle_kl(group, w):
    """Independent KL element: enumerate subsequences of the reduced word."""
    word = group.word(w).replace("e", "")
    lower = set()
    for mask in itertools.product((0, 1), repeat=len(word)):
        sub = "".join(letter for letter, keep in zip(word, mask) if keep)
        lower.add(group.element(sub))
    return {v: 1 for v in lower}


def _bruhat_sum(group, w):
    """kl(w) as the library's Bruhat order gives it: every v <= w, once."""
    return {v: 1 for v in group.elements() if group.bruhat_leq(v, w)}


class _GroupRing:
    """ZD_2n on coefficient vectors indexed like group.elements().

    kl(w) is the sum of the v below w in the subword Bruhat order; products
    are convolved through DihedralGroup.multiply, and kl_coords solves a
    vector back into the KL basis by a triangular sweep, most complex
    element first.  Nothing here uses the library's multiplication rule.
    """

    def __init__(self, n):
        group = DihedralGroup(n)
        self.group = group
        self.elements = group.elements()
        self.labels = [group.label(el) for el in self.elements]
        self.index = {el: i for i, el in enumerate(self.elements)}
        self.times = [
            [self.index[group.multiply(u, v)] for v in self.elements]
            for u in self.elements
        ]
        self.kl = [
            [self.index[v] for v in self.elements if group.bruhat_leq_subword(v, w)]
            for w in self.elements
        ]
        self.by_length = sorted(
            range(len(self.elements)), key=lambda i: -self.elements[i].length
        )

    def vector(self, terms):
        """The group-ring element sum a * word for the (word, a) in terms."""
        out = [0] * len(self.elements)
        for word, a in terms.items():
            out[self.index[self.group.element(word)]] += a
        return out

    def kl_product(self, x, y):
        """kl(x) * kl(y) in the group ring, for indices x and y."""
        out = [0] * len(self.elements)
        for u in self.kl[x]:
            for v in self.kl[y]:
                out[self.times[u][v]] += 1
        return out

    def expand(self, coords):
        """sum_z coords[z] kl(z) in the group ring."""
        out = [0] * len(self.elements)
        for z, a in enumerate(coords):
            for v in self.kl[z]:
                out[v] += a
        return out

    def kl_coords(self, vector):
        remaining = list(vector)
        coords = [0] * len(self.elements)
        for i in self.by_length:
            a = remaining[i]
            if a:
                coords[i] = a
                for v in self.kl[i]:
                    remaining[v] -= a
        assert not any(remaining)
        return tuple(coords)

    def named(self, coords):
        return {self.labels[z]: a for z, a in enumerate(coords) if a}


@lru_cache(maxsize=None)
def _oracle_table(n):
    """The KL table by group-ring convolution, independent of the library's rule."""
    ring = _GroupRing(n)
    size = len(ring.elements)
    return tuple(
        tuple(ring.kl_coords(ring.kl_product(x, y)) for y in range(size))
        for x in range(size)
    )


def _row_recurrence(n):
    """The KL table one entry at a time: kl(x) = kl(g)kl(x') - kl(h x') with
    kl(g) * (-) applied to every row of c[x'] through oracles.left_terms (the
    group's left descents and products), one Python step per (x, y, z).
    Raises PositivityError at the first row with a negative coefficient."""
    group = DihedralGroup(n)
    elements = group.elements()
    labels = [group.label(el) for el in elements]
    index = {el: i for i, el in enumerate(elements)}
    size = len(elements)
    gens = {g: group.element(g) for g in GENERATORS}
    left = {
        g: [oracles.left_terms(group, g, w, index) for w in elements]
        for g in GENERATORS
    }
    table = [tuple(tuple(int(z == y) for z in range(size)) for y in range(size))]
    for i, x in enumerate(elements[1:], 1):
        g = x.start or "s"
        shorter = group.multiply(gens[g], x)
        base = table[index[shorter]]
        drop = None
        if x.length >= 3:
            drop = table[index[group.multiply(gens[shorter.start], shorter)]]
        row = []
        for j in range(size):
            coords = [-a for a in drop[j]] if drop else [0] * size
            for z, a in enumerate(base[j]):
                if a:
                    for w, b in left[g][z]:
                        coords[w] += a * b
            if min(coords) < 0:
                raise PositivityError(
                    f"negative coefficient in kl({labels[i]})*kl({labels[j]}): {coords}"
                )
            row.append(tuple(coords))
        table.append(tuple(row))
    return tuple(table)


def test_kl_basis_examples():
    g4 = DihedralGroup(4)
    assert _bruhat_sum(g4, g4.element("")) == {g4.element(""): 1}
    assert _bruhat_sum(g4, g4.element("s")) == {
        g4.element(""): 1,
        g4.element("s"): 1,
    }
    sts = g4.element("sts")
    want = {g4.element(w): 1 for w in ("", "s", "t", "st", "ts", "sts")}
    assert _bruhat_sum(g4, sts) == want


@pytest.mark.parametrize("n", range(2, 8))
def test_kl_basis_matches_oracle(n):
    # the library's Bruhat order and the subword order the convolution
    # oracle builds kl(w) from both give the subsequences of a reduced word
    ring = _GroupRing(n)
    for i, w in enumerate(ring.elements):
        oracle = _oracle_kl(ring.group, w)
        assert _bruhat_sum(ring.group, w) == oracle
        assert {ring.elements[v]: 1 for v in ring.kl[i]} == oracle


def test_to_kl_coords_examples():
    ring = _GroupRing(4)
    assert ring.named(ring.kl_coords(ring.vector({"": 1}))) == {"e": 1}
    assert ring.named(ring.kl_coords(ring.vector({"": 2, "s": 2}))) == {"s": 2}
    # kl(s) * kl(sts) expands to exactly 2 kl(sts) when n = 4
    s, sts = ring.labels.index("s"), ring.labels.index("sts")
    coords = ring.kl_coords(ring.kl_product(s, sts))
    assert ring.named(coords) == {"sts": 2}
    assert structure_constants(4).c[s][sts] == coords


@pytest.mark.parametrize("n", range(2, 7))
def test_to_kl_coords_matches_oracle_on_products(n):
    # each row of the table, expanded back into the group ring, is the
    # convolution itself: the direction the triangular solve does not check
    ring = _GroupRing(n)
    table = structure_constants(n).c
    for x in range(len(ring.elements)):
        for y in range(len(ring.elements)):
            assert ring.expand(table[x][y]) == ring.kl_product(x, y)


@pytest.mark.parametrize("n", range(2, 17))
def test_structure_constants_match_group_ring_convolution(n):
    assert structure_constants(n).c == _oracle_table(n)


# n = 17..24 continue the convolution oracle's range.  63 and 64 were chosen
# for a step from 16- to 32-bit digits that the closed form no longer has;
# they stay as the largest cases the recurrence runs in a few seconds
@pytest.mark.parametrize("n", [*range(17, 25), 32, 48, 63, 64])
def test_packed_planes_match_the_row_recurrence(n):
    assert _uncached(n).c == _row_recurrence(n)


@pytest.mark.parametrize("n", range(2, 17))
def test_swapping_s_and_t_is_an_automorphism_of_the_convolution_table(n):
    # the premise of building the planes of words starting with t from those
    # starting with s, checked on the oracle's table, not the library's
    ring = _GroupRing(n)
    sigma = [
        ring.index[ring.group.element(ring.group.word(el).translate(str.maketrans("st", "ts")))]
        for el in ring.elements
    ]
    assert sorted(sigma) == list(range(len(sigma))) and sigma != list(range(len(sigma)))
    table = _oracle_table(n)
    for x, plane in enumerate(table):
        for y, row in enumerate(plane):
            assert [table[sigma[x]][sigma[y]][sigma[z]] for z in range(len(row))] == list(row)


@pytest.mark.parametrize("n", range(2, 65))
def test_augmentation_is_multiplicative(n):
    # epsilon(w) = 1 is a ring map and epsilon(kl w) = #{v <= w}, counted by
    # the length rule: sum_z c[x][y][z] epsilon(kl z) = epsilon(kl x) epsilon(kl y)
    elements = DihedralGroup(n).elements()
    eps = [sum(v == w or v.length < w.length for v in elements) for w in elements]
    for x, plane in enumerate(_uncached(n).c):
        for y, row in enumerate(plane):
            assert sum(map(mul, row, eps)) == eps[x] * eps[y], (x, y)


@pytest.mark.parametrize(
    "n, digest",
    [
        (32, "788b33c778722b3e1dfe34d75b350cf653bf2557b107fe4d77738c07375040c3"),
        (48, "0dff0959d150d9de46215953aa539fc93ab24c139fe9a322761bab73745499b3"),
        (64, "8aa41051ed25cc4fe9d1bc2df7217e09d99715339b0f4c08535ff58869c3a092"),
        # past every oracle's reach; recorded from the packed-plane kernel
        # that the closed form replaced
        (100, "74ba3b4a9cf130183b1e34695dcb3184cda61081aa7fa066fe68335185cf4319"),
        (129, "3fd0a893e493b956c561e932e80e8b649520cd59e2caac07671b2385da182804"),
    ],
)
def test_large_tables_keep_their_pinned_digests(n, digest):
    # sha256 of the compact JSON of c, as the benchmark pins its tables
    text = json.dumps(_uncached(n).c, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "pair, corrupt, message",
    [
        # B(1, 1) = {1} read as {1, 3} in one copy: kl(s)kl(s) would hold kl(sts)
        ((1, 1), lambda same, other: (((1, 2), same[1]), other), "-6/10 in kl(s)*kl(s)"),
        # B(1, 1) dropped from kl(s)kl(ts) = kl(sts) + kl(s)
        ((1, 2), lambda same, other: (same, (other[0], (1, 0))), "2/10 in kl(s)*kl(ts)"),
    ],
    ids=["widened", "dropped"],
)
def test_a_corrupted_band_raises_the_positivity_message(monkeypatch, pair, corrupt, message):
    # the augmentation leaves a kl(w0) coefficient that is negative or not an integer
    real = klring._bands

    def corrupted(n, i, j):
        bands = real(n, i, j)
        return corrupt(*bands) if (i, j) == pair else bands

    monkeypatch.setattr(klring, "_bands", corrupted)
    with pytest.raises(PositivityError) as got:
        _uncached(5)
    assert str(got.value) == f"kl(w0) coefficient {message} is not a non-negative integer"


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_broken_identity_row_is_refused(side):
    constants = structure_constants(4)
    c = [list(plane) for plane in constants.c]
    e, j = constants.identity_index, constants.index("st")
    if side == "left":
        c[e][j] = constants.c[e][j + 1]
    else:
        c[j][e] = constants.c[j + 1][e]
    broken = constants._replace(c=tuple(map(tuple, c)))
    with pytest.raises(PositivityError, match=f"identity axiom fails at index {j}$"):
        klring._check_identity_axioms(broken)


def test_structure_constants_examples():
    for n in (3, 4, 5, 6):
        constants = structure_constants(n)
        s = constants.index("s")
        row = constants.c[s][s]
        assert {constants.labels[z]: v for z, v in enumerate(row) if v} == {"s": 2}
        e = constants.index("e")
        for j in range(len(constants.labels)):
            assert constants.c[e][j][j] == 1 and sum(constants.c[e][j]) == 1
    # s is a left descent of w0 = stst, so kl(s) * kl(w0) = 2 kl(w0) when n = 4
    constants = structure_constants(4)
    got = constants.c[constants.index("s")][constants.index("w0")]
    assert {constants.labels[z]: v for z, v in enumerate(got) if v} == {"w0": 2}
    # frozen n = 5 middle product, verified against the in-test oracle above:
    # kl(sts) * kl(sts) = 2 kl(s) + 2 kl(sts) + 2 kl(w0)
    constants = structure_constants(5)
    sts = constants.index("sts")
    got = {
        constants.labels[z]: v for z, v in enumerate(constants.c[sts][sts]) if v
    }
    assert got == {"s": 2, "sts": 2, "w0": 2}


@pytest.mark.parametrize("n", range(2, 8))
def test_structure_constants_nonnegative(n):
    constants = structure_constants(n)
    assert all(
        v >= 0 for plane in constants.c for row in plane for v in row
    )


def test_cells_full_ring():
    constants = structure_constants(5)
    cells = compute_cells(constants.labels, constants.c)
    as_sets = {frozenset(cell) for cell in cells.two_sided}
    assert frozenset({"e"}) in as_sets
    assert frozenset({"w0"}) in as_sets
    middle = frozenset(
        {"s", "t", "st", "ts", "sts", "tst", "stst", "tsts"}
    )
    assert middle in as_sets
    e_cell = cell_of(cells, "two_sided", "e")
    w0_cell = cell_of(cells, "two_sided", "w0")
    mid_cell = cell_of(cells, "two_sided", "s")
    assert (e_cell, mid_cell) in cells.two_sided_leq
    assert (mid_cell, w0_cell) in cells.two_sided_leq
    assert (w0_cell, mid_cell) not in cells.two_sided_leq
    # four left cells: {e}, {w0}, words ending in s, words ending in t
    left_sets = {frozenset(cell) for cell in cells.left}
    assert frozenset({"s", "ts", "sts", "tsts"}) in left_sets
    assert frozenset({"t", "st", "tst", "stst"}) in left_sets
    ls = cell_of(cells, "left", "s")
    lt = cell_of(cells, "left", "t")
    assert (ls, lt) not in cells.left_leq and (lt, ls) not in cells.left_leq
    # right cells are indexed by first letters instead
    right_sets = {frozenset(cell) for cell in cells.right}
    assert frozenset({"s", "st", "sts", "stst"}) in right_sets


def test_cells_n3_follow_the_descent_description():
    # the middle left cells are the right-descent classes {s, ts} and {t, st},
    # same closed form as for every larger n (kl(s)kl(ts) = kl(s) + kl(w0)
    # puts s and ts in one mutual-comparability class)
    constants = structure_constants(3)
    cells = compute_cells(constants.labels, constants.c)
    left_sets = {frozenset(cell) for cell in cells.left}
    assert frozenset({"s", "ts"}) in left_sets
    assert frozenset({"t", "st"}) in left_sets


def _oracle_closure(size, edges):
    """Reflexive-transitive closure on lists of bools: Warshall, entry by entry."""
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


def _oracle_cells_from_reach(labels, reach):
    size = len(labels)
    cell_index = [-1] * size
    cells = []
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


def _oracle_cells(labels, c):
    """Left, right and two-sided cells and their orders, from explicit edge
    sets: y <= z (left) and x <= z (right) whenever c[x][y][z] > 0."""
    size = len(labels)
    left_edges, right_edges = set(), set()
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if c[x][y][z] > 0:
                    left_edges.add((y, z))
                    right_edges.add((x, z))
    left, left_leq = _oracle_cells_from_reach(labels, _oracle_closure(size, left_edges))
    right, right_leq = _oracle_cells_from_reach(labels, _oracle_closure(size, right_edges))
    two, two_leq = _oracle_cells_from_reach(
        labels, _oracle_closure(size, left_edges | right_edges)
    )
    return left, right, two, left_leq, right_leq, two_leq


def _partition(cells):
    return (
        cells.left,
        cells.right,
        cells.two_sided,
        cells.left_leq,
        cells.right_leq,
        cells.two_sided_leq,
    )


@st.composite
def _sparse_tables(draw, values=st.integers(min_value=1, max_value=2)):
    """A table of size 1-12 with at most 3 * size non-zero entries, drawn
    from values, sparse enough that the preorders have several cells."""
    size = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=size - 1)
    entries = draw(st.lists(st.tuples(index, index, index, values), max_size=3 * size))
    table = [[[0] * size for _ in range(size)] for _ in range(size)]
    for x, y, z, value in entries:
        table[x][y][z] = value
    labels = tuple(f"b{i}" for i in range(size))
    return labels, tuple(tuple(tuple(row) for row in plane) for plane in table)


@given(_sparse_tables())
@settings(max_examples=150, deadline=None)
def test_cells_match_the_edge_set_oracle(labelled_table):
    labels, c = labelled_table
    assert _partition(compute_cells(labels, c)) == _oracle_cells(labels, c)


@pytest.mark.parametrize("n", [3, 8, 24])
def test_cells_of_the_kl_table_match_the_edge_set_oracle(n):
    constants = structure_constants(n)
    cells = compute_cells(constants.labels, constants.c)
    assert _partition(cells) == _oracle_cells(constants.labels, constants.c)


# rows that bytes() packs next to rows it refuses: entries of 256 and more,
# and negative ones
@given(_sparse_tables(st.sampled_from([1, 2, 255, 256, 300, 2**40, -1, -7, -256])))
@settings(max_examples=150, deadline=None)
def test_cells_match_the_edge_set_oracle_with_rows_outside_the_byte_range(labelled_table):
    labels, c = labelled_table
    assert _partition(compute_cells(labels, c)) == _oracle_cells(labels, c)


def test_cells_read_rows_outside_the_byte_range_entry_by_entry():
    # one row of each kind in one plane: bytes() refuses -3, 256 and the
    # Fraction, and a negative entry is no edge
    labels = ("e", "a", "b", "w")
    size = len(labels)
    table = [[[0] * size for _ in range(size)] for _ in range(size)]
    for i in range(size):
        table[0][i][i] = table[i][0][i] = 1
    table[1][1] = [0, 1, -3, 0]
    table[1][2] = [0, 0, 256, 0]
    table[2][1] = [0, 0, Fraction(1, 2), 0]
    table[2][2] = [0, 0, 0, 2**40]
    table[3][3] = [0, 0, 0, 255]
    c = tuple(tuple(tuple(row) for row in plane) for plane in table)
    cells = compute_cells(labels, c)
    assert _partition(cells) == _oracle_cells(labels, c)
    assert cells.two_sided == (("e",), ("a",), ("b",), ("w",))
