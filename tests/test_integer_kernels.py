"""The integer kernels around the module search against the plain loops they
replaced (tests/oracles.py): the packed ring-relation re-check, the trace
screen and trace decompositions on the integer view of a character table,
the multiplicativity check of candidate characters, and kl(g)kl(w) read off
a word's first letter and length."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

import oracles
import pytest

from klcells import klring
from klcells.basedring import BasedRing, ring_from_text, subquotient_qn, subring_an
from klcells.characters import (
    DecompositionError,
    _multiplicative,
    _trace_multiplicities,
    character_table,
    decompose,
    special_character,
)
from klcells.classifier import (
    _exact_trace,
    _perron_limits,
    classify,
    feasible_rank_profiles,
    rigid_generator,
    solve_matrix_modules,
)
from klcells.dihedral import GENERATORS, DihedralGroup
from klcells.matrixmodule import MatrixModule, module_from_mats, satisfies_ring_relations
from klcells.quadfield import FieldElement, FieldMismatchError, QuadNum, _integer_view, two_cos

FIBONACCI = "labels e t\nidentity e\nc e e e 1\nc e t t 1\nc t e t 1\nc t t e 1\nc t t t 1\n"

RINGS = {
    **{f"Q{n}": (lambda n=n: subquotient_qn(n)) for n in range(3, 9)},
    "A4": lambda: subring_an(4),
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
    for n in range(2, 65):
        group = DihedralGroup(n)
        elements = group.elements()
        index = {el: i for i, el in enumerate(elements)}
        for g in GENERATORS:
            for w in elements:
                got = klring._left_terms(group, g, w, index)
                assert got == oracles.left_terms(group, g, w, index), (n, g, w)


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


def _packed_case(c, mats):
    ring = BasedRing(tuple("exy"[: len(c)]), c)
    rank = len(mats[1])
    return ring, module_from_mats(ring, rank, mats)


def test_a_product_digit_at_the_top_of_the_width_is_read_exactly():
    # J = all-ones 3x3: J*J = 3J, so rank*A^2 = S*A = 3, W = 3 and every
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
    # M_x = [[2, 0], [0, 0]], M_y = [[0, 1], [0, 0]]: A = 2, rank*A^2 = 8,
    # and x*x = -6x + y gives S = 7, S*A = 14, W = 4 + 1.  Row 0 of M_x M_x
    # is (4, 0) and row 0 of -6 M_x + M_y is (-12, 1): in 4-bit digits both
    # pack to 4 (-12 + 1*16), so the right side's negative digit borrows
    # from its neighbour and only the fifth bit tells them apart.  Every
    # other relation holds exactly (x*y = 2y, y*x = y*y = 0).
    mats = {1: ((2, 0), (0, 0)), 2: ((0, 1), (0, 0))}
    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    honest = (e, ((0, 1, 0), (0, 2, 0), (0, 0, 2)), ((0, 0, 1), (0, 0, 0), (0, 0, 0)))
    ring, module = _packed_case(honest, mats)
    assert satisfies_ring_relations(ring, module)
    skewed = (e, ((0, 1, 0), (0, -6, 1), (0, 0, 2)), honest[2])
    ring, module = _packed_case(skewed, mats)
    assert not oracles.satisfies_ring_relations(ring, module)
    assert not satisfies_ring_relations(ring, module)


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
            for b, value in enumerate(traces_of[m]):
                want = value.num[0] if value.is_rational and value.den == 1 else None
                assert _exact_trace(table, m, b) == want, (m, b)
    for faithful, cap in caps.items():
        assert feasible_rank_profiles(table, faithful) == _oracle_screen(
            table, faithful, cap, traces_of
        )


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
        ("A4", {"negative", "non-integral"}),
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
