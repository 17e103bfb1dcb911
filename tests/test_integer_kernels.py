"""The integer kernels around the module search against the plain loops they
replaced (tests/oracles.py): the packed ring-relation re-check, the trace
screen over Galois orbits and trace decompositions on the integer view of a
character table, the multiplicativity check of candidate characters, and
the planes kl(s)kl(w) and kl(t)kl(w) of the KL table against the descent
rule."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

import oracles
import pytest

from klcells import klring
from klcells.basedring import (
    BasedRing,
    full_kl_ring,
    ring_from_text,
    ring_to_text,
    subquotient_qn,
    verify,
)
from klcells.characters import (
    DecompositionError,
    _multiplicative,
    _trace_multiplicities,
    character_table,
    decompose,
    special_character,
)
from klcells.classifier import (
    ClassifierError,
    _perron_limits,
    classify,
    feasible_rank_profiles,
    profile_traces,
    rigid_generator,
    solve_matrix_modules,
)
from klcells.dihedral import GENERATORS, DihedralGroup
from klcells.matrixmodule import MatrixModule, module_from_mats, satisfies_ring_relations
from klcells.quadfield import FieldElement, FieldMismatchError, QuadNum, _integer_view, two_cos

def _a4():
    """The paper's A_4: the span of e and s in the rank-4 dihedral KL ring,
    closed without truncation.  Its table is Q3's, reached by restriction
    rather than by the subquotient construction."""
    return oracles.restricted_kl_ring(4, ["e", "s"], "A4")


FIBONACCI = "labels e t\nidentity e\nc e e e 1\nc e t t 1\nc t e t 1\nc t t e 1\nc t t t 1\n"

RINGS = {
    **{f"Q{n}": (lambda n=n: subquotient_qn(n)) for n in range(3, 9)},
    "A4": _a4,
    "Fib": lambda: ring_from_text(FIBONACCI),
}


@lru_cache(maxsize=None)
def _table(name):
    return character_table(RINGS[name]())


@lru_cache(maxsize=None)
def _emitted(name):
    """The modules that the searches emit: every candidate of the default
    classification, and every transitive module of rank 1 and 2 without
    s-rigidity, kept once per key."""
    ring = RINGS[name]()
    modules = [candidate.module for candidate in classify(name).candidates]
    for rank in (1, 2):
        modules += solve_matrix_modules(ring, rank).modules
    return ring, list({module.key(): module for module in modules}.values())


def _with_entry(module, b, i, j, value):
    mats = list(module.mats)
    rows = [list(row) for row in mats[b]]
    rows[i][j] = value
    mats[b] = tuple(map(tuple, rows))
    return MatrixModule(module.labels, module.identity, module.rank, tuple(mats))


def _perturbations(module):
    """Every single-entry change by +1 and -1, and to -1, in every matrix;
    at e each of them is a non-identity matrix."""
    for b, mat in enumerate(module.mats):
        for i, row in enumerate(mat):
            for j, value in enumerate(row):
                for new in sorted({value + 1, value - 1, -1}):
                    yield _with_entry(module, b, i, j, new)


# -- kl(g) kl(w) -------------------------------------------------------------------


def test_left_terms_read_off_the_first_letter_match_the_descent_rule():
    # the planes of s and t are kl(g)kl(w) for every w; with the identity and
    # associativity they determine the whole table, for n past the O(n^3) oracles
    for n in range(2, 65):
        group = DihedralGroup(n)
        elements = group.elements()
        index = {el: i for i, el in enumerate(elements)}
        planes = klring.structure_constants.__wrapped__(n).c
        for g in GENERATORS:
            for y, w in enumerate(elements):
                want = [0] * len(elements)
                for z, b in oracles.left_terms(group, g, w, index):
                    want[z] += b
                assert planes[index[group.element(g)]][y] == tuple(want), (n, g, w)


@pytest.mark.parametrize("n", [25, 37, 47, 59])
def test_full_kl_rings_past_the_recurrence_cases_verify(n):
    # identity and associativity, checked by basedring.verify; the test above
    # checks the generator planes at the same n
    assert verify(full_kl_ring(n)).ok


# -- the packed ring-relation re-check ------------------------------------------


@pytest.mark.parametrize("name", ["Q3", "Q4", "Q5", "Q6"])
def test_ring_relations_equal_the_oracle_on_emitted_modules_and_perturbations(name):
    ring, modules = _emitted(name)
    assert modules
    for module in modules:
        assert satisfies_ring_relations(ring, module)
        assert oracles.satisfies_ring_relations(ring, module)
        for changed in _perturbations(module):
            want = oracles.satisfies_ring_relations(ring, changed)
            assert satisfies_ring_relations(ring, changed) == want, changed


@pytest.mark.parametrize("value", [2.0, 1.5, Fraction(2), None, "2"], ids=repr)
def test_ring_relations_fail_on_an_entry_that_is_not_an_int(value):
    # Q3 acts on rank one with s as 2: the same module with s as 2.0 or
    # Fraction(2) is no integer module, and None or "2" no number at all
    ring = subquotient_qn(3)
    assert satisfies_ring_relations(ring, module_from_mats(ring, 1, {1: ((2,),)}))
    assert not satisfies_ring_relations(ring, module_from_mats(ring, 1, {1: ((value,),)}))


def _packed_case(c, mats):
    ring = BasedRing(tuple("exy"[: len(c)]), c)
    rank = len(mats[1])
    return ring, module_from_mats(ring, rank, mats)


def test_a_product_digit_at_the_top_of_the_width_is_read_exactly():
    # J = all-ones 3x3: J*J = 3J, so A*C = S*A = 3, W = 3 and every
    # digit of both sides is 3 = 2^(W-1) - 1
    jay = ((1, 1, 1),) * 3
    ring, module = _packed_case((((1, 0), (0, 1)), ((0, 1), (0, 3))), {1: jay})
    assert satisfies_ring_relations(ring, module)
    for k in (2, 4):
        wrong, _ = _packed_case((((1, 0), (0, 1)), ((0, 1), (0, k))), {1: jay})
        assert not satisfies_ring_relations(wrong, module)
        assert not oracles.satisfies_ring_relations(wrong, module)
    for changed in _perturbations(module):
        assert satisfies_ring_relations(ring, changed) == oracles.satisfies_ring_relations(
            ring, changed
        )


def test_one_bit_less_than_the_width_would_carry():
    # M_x = [[2, 0], [0, 0]], M_y = [[0, 0], [1, 0]]: A = 2, every column
    # sum is at most C = 2, and x*x = -6x + y gives S = 7, so A*max(C, S) =
    # 14 and W = 4 + 1.  Entry (i, j) sits at digit 2j + i: in w-bit digits
    # M_x M_x packs to 4 and -6 M_x + M_y to -12 + 2^w, which for w = 4 is 4
    # as well, so the negative digit borrows from its neighbour and only
    # the fifth bit tells the sides apart.  Every other relation holds exactly
    # (x*x = 2x, x*y = y*y = 0, y*x = 2y).
    mats = {1: ((2, 0), (0, 0)), 2: ((0, 0), (1, 0))}
    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    honest = (e, ((0, 1, 0), (0, 2, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 2), (0, 0, 0)))
    ring, module = _packed_case(honest, mats)
    assert satisfies_ring_relations(ring, module)
    skewed = (e, ((0, 1, 0), (0, -6, 1), (0, 0, 0)), honest[2])
    ring, module = _packed_case(skewed, mats)
    assert not oracles.satisfies_ring_relations(ring, module)
    assert not satisfies_ring_relations(ring, module)


def test_a_column_sum_above_every_coefficient_sum_widens_the_digits():
    # rank 6, U = {2, 3, 4, 5}: M_x = sum_u E_0u, M_y = sum_u E_u1 and
    # M_w = E_11, so x*y is 4 E_01, a column sum C = 4 of M_y, while every
    # other product is 0, y (y*w) or w (w*w).  With every coefficient sum
    # S = 1, a width from A*S alone would be 2 bits, and there 4 E_01 (4 at
    # digit 6) packs like E_11 (1 at digit 7), so the false x*y = w would
    # pass; A*max(C, S) = 4 gives W = 4.
    def unit(i, j):
        return tuple(tuple(int((a, b) == (i, j)) for b in range(6)) for a in range(6))

    def add(*mats):
        return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*mats))

    U = (2, 3, 4, 5)
    mats = {1: add(*(unit(0, u) for u in U)), 2: add(*(unit(u, 1) for u in U)), 3: unit(1, 1)}
    zero = (0, 0, 0, 0)
    c = (
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((0, 1, 0, 0), zero, (0, 0, 0, 1), zero),  # x*y = w is false
        ((0, 0, 1, 0), zero, zero, (0, 0, 1, 0)),
        ((0, 0, 0, 1), zero, zero, (0, 0, 0, 1)),
    )
    ring = BasedRing(("e", "x", "y", "w"), c)
    module = module_from_mats(ring, 6, mats)
    assert not oracles.satisfies_ring_relations(ring, module)
    assert not satisfies_ring_relations(ring, module)
    M = module.mats
    assert oracles.mat_mul(M[1], M[2]) == tuple(tuple(4 * v for v in row) for row in unit(0, 1))
    for x, y in product(range(4), repeat=2):  # every other relation holds exactly
        want = add(*(tuple(tuple(k * v for v in row) for row in M[z]) for z, k in enumerate(c[x][y])))
        assert (oracles.mat_mul(M[x], M[y]) == want) == ((x, y) != (1, 2))


# -- the trace screen --------------------------------------------------------------


def _oracle_screen(table, faithful, max_rank, traces_of):
    """feasible_rank_profiles' loop with the oracle's field-element traces."""
    ring = table.ring
    special = special_character(table) if faithful else None
    rigid = rigid_generator(ring)
    profiles = []
    for rank in range(1, max_rank + 1):
        for picks in combinations_with_replacement(range(table.size), rank):
            m = tuple(picks.count(i) for i in range(table.size))
            traces = traces_of[m]
            if special is not None and m[special] != 1:
                continue
            if faithful and rigid is not None and traces[rigid] != 2 * rank:
                continue
            if not all(v.is_rational and v.den == 1 and v >= 0 for v in traces):
                continue
            if faithful and all(traces[b] == 0 for b in range(ring.size) if b != ring.identity):
                continue
            profiles.append(m)
    profiles.sort(key=lambda m: (sum(m), m))
    return tuple(profiles)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_exact_traces_and_the_screen_equal_the_oracle_up_to_the_rank_cap(name):
    table = _table(name)
    doubled = rigid_generator(table.ring) is not None
    caps = {True: _perron_limits(table, 1, None, doubled)[0]}
    caps[False] = _perron_limits(table, 1, None, False)[0]
    traces_of = {}
    for rank in range(1, max(caps.values()) + 1):
        for picks in combinations_with_replacement(range(table.size), rank):
            m = tuple(picks.count(i) for i in range(table.size))
            traces_of[m] = [oracles.exact_trace(table, m, b) for b in range(table.size)]
    for faithful, cap in caps.items():
        assert feasible_rank_profiles(table, faithful) == _oracle_screen(
            table, faithful, cap, traces_of
        )


@pytest.mark.parametrize("name", sorted(RINGS))
def test_a_lower_rank_limit_keeps_the_profiles_up_to_it(name):
    table = _table(name)
    for faithful in (True, False):
        full = feasible_rank_profiles(table, faithful)
        cap = _perron_limits(table, 1, None, faithful and rigid_generator(table.ring) is not None)[0]
        for max_rank in range(cap + 1):
            want = tuple(m for m in full if sum(m) <= max_rank)
            assert feasible_rank_profiles(table, faithful, max_rank) == want, max_rank


def _ring_file(n):
    """Q_n read back from its ring file, as classify --ring-file reads it."""
    return ring_from_text(ring_to_text(subquotient_qn(n)))


def _assert_traces_equal_the_oracle(table, profiles):
    for profile in profiles:
        traces = profile_traces(table, profile)
        assert list(traces) == list(table.ring.labels)
        assert list(traces.values()) == [
            oracles.exact_trace(table, profile, b) for b in range(table.size)
        ], profile


# the faithful screens past the oracle's reach, as the per-multiset loop gave
# them; that loop takes seconds at Q11, too slow for a test
PINNED_FAITHFUL_PROFILES = [
    (lambda: subquotient_qn(9), (
        (0, 1, 0, 1, 1), (0, 1, 1, 1, 1), (0, 1, 2, 1, 1), (0, 1, 3, 1, 1),
    )),
    (lambda: subquotient_qn(10), (
        (0, 0, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1), (0, 0, 1, 1, 1, 1), (0, 2, 0, 1, 0, 1),
        (0, 1, 1, 1, 1, 1), (0, 3, 0, 1, 0, 1), (0, 2, 1, 1, 1, 1),
    )),
    (lambda: subquotient_qn(11), ((0, 1, 1, 1, 1, 1),)),
    (lambda: _ring_file(7), ((0, 1, 1, 1),)),
    (lambda: _ring_file(8), (
        (0, 0, 1, 0, 1), (0, 0, 1, 1, 1), (0, 1, 1, 0, 1), (0, 0, 1, 2, 1),
        (0, 1, 1, 1, 1), (0, 2, 1, 0, 1),
    )),
]


@pytest.mark.parametrize(
    "ring_of, want", PINNED_FAITHFUL_PROFILES, ids=["Q9", "Q10", "Q11", "Q7-file", "Q8-file"]
)
def test_the_faithful_screen_keeps_the_pinned_profiles(ring_of, want):
    table = character_table(ring_of())
    assert feasible_rank_profiles(table, faithful=True) == want
    _assert_traces_equal_the_oracle(table, want)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_profile_traces_equal_the_oracle_on_every_screened_profile(name):
    table = _table(name)
    for faithful in (True, False):
        _assert_traces_equal_the_oracle(table, feasible_rank_profiles(table, faithful))


def _gcd_classes(table, n):
    """The Galois orbits of Q_n's rows as the classes of equal gcd(j, n), with
    chi_0 alone, each row's j read off floats of its values: chi_0(s) = 0
    and, for j >= 1, chi_j(s) = 2 and chi_j(sts) = 2 + 2 * 2cos(2 pi j / n).
    Both values are matched, since chi_0 and chi_{n/3} both read 0 at sts."""
    labels = table.ring.labels
    s, sts = labels.index("s"), labels.index("sts")
    points = {0: (0.0, 0.0)}
    for j in range(1, n // 2 + 1):
        points[j] = (2.0, 2 + 4 * math.cos(2 * math.pi * j / n))
    classes = {}
    for i, row in enumerate(table.rows):
        got = (float(row[s]), float(row[sts]))
        (j,) = [j for j, p in points.items() if math.dist(p, got) < 1e-9]
        classes.setdefault(math.gcd(j, n) if j else 0, set()).add(i)
    assert sum(map(len, classes.values())) == table.size == n // 2 + 1
    return {frozenset(members) for members in classes.values()}


@pytest.mark.parametrize("n", range(4, 19))
def test_orbits_are_the_classes_of_equal_gcd(n):
    table = character_table(subquotient_qn(n))
    orbits = table._orbits
    assert {frozenset(members) for members, _ in orbits} == _gcd_classes(table, n)
    assert [members[0] for members, _ in orbits] == sorted(m[0] for m, _ in orbits)
    for members, traces in orbits:
        indicator = [int(i in members) for i in range(table.size)]
        assert list(traces) == [
            oracles.exact_trace(table, indicator, b) for b in range(table.size)
        ]


def test_orbits_of_the_rings_that_are_not_a_q_n():
    assert [members for members, _ in _table("A4")._orbits] == [(0,), (1,)]
    assert [members for members, _ in _table("Fib")._orbits] == [(0, 1)]


def test_profile_traces_refuse_a_profile_that_is_not_constant_on_an_orbit():
    with pytest.raises(ClassifierError, match="not constant on the Galois orbit"):
        profile_traces(_table("Q5"), (0, 1, 0))


# -- trace decompositions -----------------------------------------------------------


@pytest.mark.parametrize("name", ["Q3", "Q4", "Q5", "Q6"])
def test_decompose_equals_the_oracle_on_every_candidate(name):
    table = _table(name)
    for candidate in classify(name).candidates:
        module = candidate.module
        traces = [module.trace(b) for b in range(table.size)]
        want, _ = oracles.trace_multiplicities(table, traces)
        assert decompose(table, module) == want == candidate.multiplicities


@pytest.mark.parametrize(
    "name, failures",
    [
        ("Q4", {"negative", "non-integral"}),
        ("Q5", {"irrational", "negative", "non-integral"}),
        ("Q6", {"negative", "non-integral"}),
        ("Q7", {"irrational", "negative", "non-integral"}),
        ("Q3", {"negative", "non-integral"}),
        ("Fib", {"irrational"}),
    ],
)
def test_failing_trace_vectors_raise_the_oracle_message(name, failures):
    """Every trace vector with entries -1...3: the multiplicities, or the
    error with the oracle's message, whichever kind of solution fails."""
    table = _table(name)
    kinds = set()
    for traces in product(range(-1, 4), repeat=table.size):
        want, message = oracles.trace_multiplicities(table, list(traces))
        if want is not None:
            assert _trace_multiplicities(table, list(traces)) == want
            kinds.add("integral")
            continue
        with pytest.raises(DecompositionError) as got:
            _trace_multiplicities(table, list(traces))
        assert str(got.value) == message
        for value in message.split("[", 1)[1].split("]", 1)[0].split(", "):
            value = value.strip("'")
            if any(c in value for c in "√λ"):
                kinds.add("irrational")
            elif "/" in value:
                kinds.add("non-integral")
            elif value.startswith("-"):
                kinds.add("negative")
    assert kinds == {"integral"} | failures


@pytest.mark.parametrize(
    "traces, solution",
    [
        ((3, 2, 1), "['2', '1/2', '1/2']"),
        ((2, 0, -3), "['2', '(3/10)√5', '-(3/10)√5']"),
        ((1, -4, -2), "['3', '-1', '-1']"),
        ((1, 1, 1), "['1/2', '1/4-(1/20)√5', '1/4+(1/20)√5']"),
    ],
)
def test_decomposition_messages_render_the_failing_solution(traces, solution):
    # Q5's rows are (1, 0, 0), (1, 2, 1-√5) and (1, 2, 1+√5): a non-integral,
    # an irrational and a negative solution
    with pytest.raises(DecompositionError) as got:
        _trace_multiplicities(_table("Q5"), list(traces))
    assert str(got.value) == (
        f"trace system solution {solution} is not a non-negative integer vector"
    )


# -- multiplicativity of candidate characters -----------------------------------------


@pytest.mark.parametrize("name", sorted(RINGS))
def test_multiplicative_equals_the_oracle_on_rows_and_shifted_rows(name):
    table = _table(name)
    ring = table.ring
    everything = range(ring.size)
    for row in table.rows:
        assert _multiplicative(ring, row, everything)
        for b in everything:
            for shift in (FieldElement(1), FieldElement(Fraction(-1, 2)), row[b]):
                changed = tuple(v + shift if z == b else v for z, v in enumerate(row))
                want = oracles.multiplicative(ring, changed, everything)
                assert _multiplicative(ring, changed, everything) == want


def test_multiplicative_refuses_a_row_from_two_fields():
    ring = ring_from_text(FIBONACCI)
    with pytest.raises(FieldMismatchError):
        _multiplicative(ring, (QuadNum(0, 1, 2), QuadNum(0, 1, 3)), range(2))


# -- quadfield's integer view ----------------------------------------------------------


def test_integer_view_scales_to_the_lcm_of_the_denominators():
    half, third = FieldElement(Fraction(1, 2)), QuadNum(Fraction(1, 3), 1, 5)
    field, den, out = _integer_view([[half, third], [FieldElement(2)]])
    assert field is third.field and den == 6
    assert out == [[(3, 2), (0, 6)], [(12,), (0,)]]
    field, den, out = _integer_view([[FieldElement(Fraction(3, 4)), FieldElement(Fraction(1, 6))]])
    assert field is None and den == 12 and out == [[(9, 2)]]
    lam = two_cos(7)  # degree 3: rationals pad to three coordinates
    field, den, out = _integer_view([[half, lam * lam / 3]])
    assert den == 6 and out == [[(3, 0), (0, 0), (0, 2)]]
    assert _integer_view([]) == (None, 1, [])


def test_integer_view_refuses_two_fields():
    with pytest.raises(FieldMismatchError):
        _integer_view([[QuadNum(0, 1, 2), FieldElement(1)], [QuadNum(0, 1, 3)]])
