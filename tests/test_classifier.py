import itertools
import random

import pytest

from klcells.basedring import ring_from_text, subquotient_qn, subring_an
from klcells.characters import character_table, decompose, special_character
from klcells.classifier import (
    EXPECTED_CANDIDATES,
    ClassifierError,
    _oracle_equations,
    _perron_limits,
    _rigidity_holds,
    _Search,
    bruteforce_matrix_modules,
    classify,
    feasible_rank_profiles,
    named_filters,
    profile_traces,
    rigid_generator,
    solve_matrix_modules,
)
from klcells.matrixmodule import (
    MatrixModule,
    canonical_module,
    is_transitive,
    module_from_mats,
    satisfies_ring_relations,
    trivial_module,
)

I2 = ((2, 0), (0, 2))


def flats(outcome):
    return [m.flat() for m in outcome.modules]


# -- rank screening ------------------------------------------------------------


def test_profiles_q5_faithful():
    table = character_table(subquotient_qn(5))
    assert feasible_rank_profiles(table, faithful=True) == ((0, 1, 1),)


def test_profiles_q4_faithful():
    table = character_table(subquotient_qn(4))
    assert feasible_rank_profiles(table, faithful=True) == ((0, 0, 1), (0, 1, 1))


def test_profiles_non_faithful_include_trivial_stacks():
    table = character_table(subquotient_qn(4))
    relaxed = feasible_rank_profiles(table, faithful=False, max_rank=6)
    for k in range(1, 7):
        assert (k, 0, 0) in relaxed
    # every profile has exact non-negative integer traces
    for profile in relaxed:
        for label, value in profile_traces(table, profile).items():
            assert value >= 0


def test_profiles_q5_non_faithful_requires_conjugate_balance():
    # the irrational traces cancel only when both golden characters appear
    # with equal multiplicity
    table = character_table(subquotient_qn(5))
    for profile in feasible_rank_profiles(table, faithful=False, max_rank=5):
        assert profile[1] == profile[2]


def test_rigid_generator_detection():
    assert rigid_generator(subquotient_qn(5)) == 1
    assert rigid_generator(subquotient_qn(6)) == 1
    assert rigid_generator(subring_an(3)) == 1


# -- the bounded search ---------------------------------------------------------


def test_lemma_14_candidate_set():
    outcome = solve_matrix_modules(subquotient_qn(5), 2, ["s-rigidity"])
    i2 = (2, 0, 0, 2)
    assert flats(outcome) == [
        (i2, (0, 1, 4, 2)),
        (i2, (0, 2, 2, 2)),
        (i2, (0, 4, 1, 2)),
        (i2, (1, 1, 5, 1)),
    ]
    assert not outcome.bound_exhausted


def test_lemma_14_raw_solution_structure():
    # with the generator pinned, the raw (undeduped) solutions are exactly
    # a = d = 1 with bc = 5, or {a, d} = {0, 2} with bc = 4
    outcome = solve_matrix_modules(
        subquotient_qn(5), 2, ["s-rigidity"], dedupe=False
    )
    got = {m.flat()[1] for m in outcome.modules if m.flat()[0] == (2, 0, 0, 2)}
    want = {(1, b, 5 // b, 1) for b in (1, 5)}
    want |= {(a, b, 4 // b, 2 - a) for a in (0, 2) for b in (1, 2, 4)}
    assert got == want


def test_lemma_23_candidate_set():
    outcome = solve_matrix_modules(subquotient_qn(4), 2, ["s-rigidity"])
    assert flats(outcome) == [
        ((2, 0, 0, 2), (0, 1, 4, 0)),
        ((2, 0, 0, 2), (0, 2, 2, 0)),
    ]
    # the second class is the canonical form of the swapped pair ((0,4),(1,0))
    swapped = module_from_mats(
        subquotient_qn(4), 2, {1: I2, 2: ((0, 4), (1, 0))}
    )
    assert canonical_module(swapped).flat() == ((2, 0, 0, 2), (0, 1, 4, 0))


def test_q5_rank_one_faithful_is_empty():
    outcome = solve_matrix_modules(subquotient_qn(5), 1, ["s-rigidity", "faithful"])
    assert outcome.modules == ()


def test_q4_rank_one_candidates():
    outcome = solve_matrix_modules(subquotient_qn(4), 1, ["s-rigidity"])
    assert flats(outcome) == [((0,), (0,)), ((2,), (2,))]


def test_an_rank_one_dichotomy():
    outcome = solve_matrix_modules(subring_an(5), 1, ["s-rigidity"])
    assert flats(outcome) == [((0,),), ((2,),)]


def test_every_emitted_module_passes_independent_reverification():
    for n, rank in ((4, 1), (4, 2), (5, 2), (6, 2)):
        ring = subquotient_qn(n)
        for module in solve_matrix_modules(ring, rank).modules:
            assert satisfies_ring_relations(ring, module)
            assert is_transitive(module)


def test_traces_pin_the_search():
    ring = subquotient_qn(5)
    table = character_table(ring)
    traces = profile_traces(table, (0, 1, 1))
    assert traces == {"e": 2, "s": 4, "sts": 2}
    outcome = solve_matrix_modules(ring, 2, ["s-rigidity"], traces=traces)
    for module in outcome.modules:
        assert module.trace("s") == 4 and module.trace("sts") == 2


def test_bound_override_can_lose_solutions_and_flags_nothing_below():
    ring = subquotient_qn(5)
    narrow = solve_matrix_modules(ring, 2, ["s-rigidity"], bound=3)
    assert ((2, 0, 0, 2), (0, 2, 2, 2)) in flats(narrow)
    assert len(narrow.modules) < 4  # entries 4 and 5 are out of reach


# -- proven entry caps ------------------------------------------------------------


# (n, profile, {label: (diagonal cap, off-diagonal cap)})
CAP_CASES = [
    (4, (0, 1, 1), {"sts": (2, 4)}),
    (5, (0, 1, 1), {"sts": (3, 10)}),
    (6, (0, 0, 1, 1), {"sts": (4, 24), "ststs": (2, 12)}),
    (6, (0, 1, 1, 1), {"sts": (4, 20), "ststs": (2, 10)}),
    (6, (0, 2, 1, 1), {"sts": (4, 16), "ststs": (2, 8)}),
    (6, (0, 2, 2, 1), {"sts": (4, 12), "ststs": (2, 6)}),
]


@pytest.mark.parametrize(
    "n, profile, want",
    CAP_CASES,
    ids=[f"Q{n}-r{sum(p)}" for n, p, _ in CAP_CASES],
)
def test_proven_caps_values(n, profile, want):
    ring = subquotient_qn(n)
    table = character_table(ring)
    traces = profile_traces(table, profile)
    caps = _perron_limits(table, sum(profile), traces, True)[1]
    rigid = rigid_generator(ring)
    assert {ring.labels[b]: cap for b, cap in caps.items() if b != rigid} == want


# raw rank-2 caps: no pinned traces, so mu is any non-negative row and d = 1
RAW_CAP_CASES = [
    (4, {"s": (2, 8), "sts": (2, 8)}),
    (5, {"s": (2, 10), "sts": (3, 16)}),
    (6, {"s": (2, 16), "sts": (4, 32), "ststs": (2, 16)}),
]


@pytest.mark.parametrize("n, want", RAW_CAP_CASES, ids=[f"Q{n}" for n, _ in RAW_CAP_CASES])
def test_raw_caps_values(n, want):
    ring = subquotient_qn(n)
    caps = _perron_limits(character_table(ring), 2, None, False)[1]
    assert {ring.labels[b]: cap for b, cap in caps.items()} == want
    # the search reports the largest of them as its bound, and touches none
    outcome = solve_matrix_modules(ring, 2)
    assert outcome.bound == max(off for _, off in want.values())
    assert outcome.complete and not outcome.bound_exhausted


@pytest.mark.parametrize(
    "n, want", [(3, 1), (4, 3), (5, 4), (6, 7), (7, 9), (8, 12)]
)
def test_rank_cap_values(n, want):
    # floor(sigma) - 3 + 1 for faithful s-rigid profiles
    table = character_table(subquotient_qn(n))
    assert _perron_limits(table, 1, None, True)[0] == want
    profiles = feasible_rank_profiles(table, faithful=True)
    assert profiles == feasible_rank_profiles(table, faithful=True, max_rank=want)
    assert max(sum(p) for p in profiles) <= want


def test_q4_excluded_candidate_sits_on_its_cap():
    ring = subquotient_qn(4)
    traces = profile_traces(character_table(ring), (0, 1, 1))
    outcome = solve_matrix_modules(ring, 2, ["s-rigidity"], traces=traces)
    assert outcome.bound == 4
    assert ((2, 0, 0, 2), (0, 1, 4, 0)) in flats(outcome)
    assert not outcome.bound_exhausted  # reaching a proven cap is not flagged
    assert outcome.complete
    # one below the cap loses it, and the outcome says it is not complete
    narrow = solve_matrix_modules(ring, 2, ["s-rigidity"], bound=3, traces=traces)
    assert ((2, 0, 0, 2), (0, 1, 4, 0)) not in flats(narrow)
    assert narrow.bound == 3
    assert not narrow.complete and not narrow.bound_exhausted
    # a bound at or above every cap lowers none
    assert solve_matrix_modules(
        ring, 2, ["s-rigidity"], bound=4, traces=traces
    ).complete
    # reaching an explicit bound below a cap is flagged
    narrower = solve_matrix_modules(ring, 2, ["s-rigidity"], bound=2, traces=traces)
    assert narrower.bound_exhausted


def test_caps_need_their_hypotheses():
    ring = subquotient_qn(4)
    table = character_table(ring)
    traces = profile_traces(table, (0, 1, 1))

    def sts_caps(rank, pinned, doubled):
        return _perron_limits(table, rank, pinned, doubled)[1][2]

    assert sts_caps(2, traces, True) == (2, 4)  # chi_s and d = 3
    assert sts_caps(2, None, True) == (2, 4)  # any non-negative row, d = 3
    assert sts_caps(2, traces, False) == (2, 8)  # chi_s, d = 1
    assert sts_caps(2, None, False) == (2, 8)
    # a partial trace pin leaves mu free
    assert sts_caps(2, {"e": 2, "s": 4}, True) == (2, 4)
    # the traces of the character (1, 2, -2) alone: it is negative on sts,
    # so no Perron character is left and no transitive module exists
    assert _perron_limits(table, 1, {"e": 1, "s": 2, "sts": -2}, False)[1] == {
        1: (0, 0), 2: (0, 0)
    }
    # no integral decomposition
    assert sts_caps(1, {"e": 1, "s": 2, "sts": 1}, False) == (0, 0)
    # R < 1: past the rank cap 3 (d = 3) or 5 (d = 1) no mu survives
    assert sts_caps(3, None, True) == (2, 2) and sts_caps(4, None, True) == (0, 0)
    assert sts_caps(5, None, False) == (2, 2) and sts_caps(6, None, False) == (0, 0)
    # Q7's exact table over Q(2cos(2pi/7)): these traces have no integral
    # decomposition there (the m_i have irrational parts)
    q7 = subquotient_qn(7)
    q7_traces = {label: 2 if label == "s" else 1 for label in q7.labels}
    caps = _perron_limits(character_table(q7), 1, q7_traces, False)[1]
    assert set(caps.values()) == {(0, 0)}
    # the trace pin alone sets d = 3, with or without the s-rigidity filter
    for outcome in (
        solve_matrix_modules(ring, 2, traces=traces),
        solve_matrix_modules(ring, 2, ["s-rigidity"], traces=traces),
    ):
        assert outcome.bound == 4 and outcome.complete
    # unpinned: d = 1, and s gets caps when it is not constrained
    assert solve_matrix_modules(ring, 2, ["s-rigidity"]).bound == 8
    # a ring without an exact character table has no caps and needs a bound
    nilpotent = ring_from_text("labels e x\nidentity e\nc e e e 1\nc e x x 1\nc x e x 1\n")
    with pytest.raises(ClassifierError):
        solve_matrix_modules(nilpotent, 1)
    outcome = solve_matrix_modules(nilpotent, 1, bound=2)
    assert outcome.bound == 2 and not outcome.complete
    assert flats(outcome) == [((0,),)]


# every faithful profile of rank 2, the oracle run past the proven caps
ABOVE_CAP_CASES = [
    (4, (0, 1, 1), 5),
    (5, (0, 1, 1), 11),
    (6, (0, 0, 1, 1), 25),
    (6, (0, 1, 0, 1), 25),
]


@pytest.mark.parametrize(
    "n, profile, bound",
    ABOVE_CAP_CASES,
    ids=[f"Q{n}-{''.join(map(str, p))}" for n, p, _ in ABOVE_CAP_CASES],
)
def test_capped_search_equals_bruteforce_above_the_caps(n, profile, bound):
    ring = subquotient_qn(n)
    traces = profile_traces(character_table(ring), profile)
    rank = sum(profile)
    fast = solve_matrix_modules(ring, rank, ["s-rigidity"], traces=traces)
    assert fast.complete and fast.bound == bound - 1  # the largest cap
    assert not fast.bound_exhausted
    slow = [
        m
        for m in bruteforce_matrix_modules(ring, rank, bound, ["s-rigidity"])
        if all(m.trace(label) == t for label, t in traces.items())
    ]
    assert [m.key() for m in fast.modules] == [m.key() for m in slow]


# rank 2 without pinned traces, the oracle run one past the largest proven cap
UNPINNED_ABOVE_CAP_CASES = [
    ("A4", (), 4),
    ("A4", ("s-rigidity",), 0),  # s-rigidity fixes every entry
    ("Q4", (), 8),
    ("Q4", ("s-rigidity",), 8),
    ("Q5", (), 16),
    ("Q5", ("s-rigidity",), 16),
    ("Q6", ("s-rigidity",), 32),
]


@pytest.mark.parametrize(
    "name, filters, cap",
    UNPINNED_ABOVE_CAP_CASES,
    ids=[f"{name}-{'rigid' if f else 'raw'}" for name, f, _ in UNPINNED_ABOVE_CAP_CASES],
)
def test_unpinned_search_equals_bruteforce_above_the_caps(name, filters, cap):
    ring = SMALL_RINGS[name]()
    fast = solve_matrix_modules(ring, 2, filters)
    assert fast.complete and not fast.bound_exhausted
    assert fast.bound == cap
    slow = bruteforce_matrix_modules(ring, 2, cap + 1, filters)
    assert [m.key() for m in fast.modules] == [m.key() for m in slow]


# -- filters ---------------------------------------------------------------------


def test_named_filters_registry():
    registry = named_filters()
    assert set(registry) == {"transitive", "s-rigidity", "faithful", "special-mult-one"}
    for description in registry.values():
        assert isinstance(description, str) and description


def test_unknown_filter_rejected():
    ring = subquotient_qn(4)
    # filters are names only: objects are refused like unknown names
    for bad in ("bogus", object(), ("s-rigidity",)):
        with pytest.raises(ClassifierError, match="unknown filter"):
            solve_matrix_modules(ring, 1, [bad])
        with pytest.raises(ClassifierError, match="unknown filter"):
            bruteforce_matrix_modules(ring, 1, 2, [bad])
        with pytest.raises(ClassifierError, match="unknown filter"):
            classify("Q4", filters=[bad])


def test_rigidity_needs_a_doubling_generator():
    from klcells.basedring import ring_from_text

    text = (
        "labels e u v\nidentity e\n"
        "c e e e 1\nc e u u 1\nc e v v 1\nc u e u 1\nc v e v 1\n"
        "c u u u 1\nc v v v 1\n"
    )
    with pytest.raises(ClassifierError):
        solve_matrix_modules(ring_from_text(text), 1, ["s-rigidity"])


def test_raw_search_returns_strictly_more_than_rigidity():
    ring = subquotient_qn(4)
    raw = solve_matrix_modules(ring, 2)
    rigid = solve_matrix_modules(ring, 2, ["s-rigidity"])
    raw_keys = {m.key() for m in raw.modules}
    rigid_keys = {m.key() for m in rigid.modules}
    assert rigid_keys < raw_keys
    assert ((1, 1, 1, 1), (1, 1, 1, 1)) in {m.flat() for m in raw.modules}


def test_special_mult_one_filter():
    ring = subquotient_qn(4)
    outcome = solve_matrix_modules(ring, 2, ["special-mult-one"])
    table = character_table(ring)
    for module in outcome.modules:
        mults = decompose(table, module)
        assert mults[2] == 1


def test_faithful_filter_drops_the_zero_module():
    ring = subquotient_qn(4)
    everything = solve_matrix_modules(ring, 1)
    faithful = solve_matrix_modules(ring, 1, ["faithful"])
    zero_key = trivial_module(ring).key()
    assert zero_key in {m.key() for m in everything.modules}
    assert zero_key not in {m.key() for m in faithful.modules}


# -- canonicalization -------------------------------------------------------------


def test_canonicalization_idempotent_and_permutation_invariant():
    ring = subquotient_qn(5)
    module = module_from_mats(ring, 2, {1: I2, 2: ((0, 4), (1, 2))})
    canon = canonical_module(module)
    assert canonical_module(canon) == canon
    swapped = module_from_mats(ring, 2, {1: I2, 2: ((2, 1), (4, 0))})
    assert canonical_module(swapped) == canon


def test_canonicalization_is_lex_minimal_over_all_permutations():
    ring = subquotient_qn(6)
    mats = {
        1: ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        2: ((0, 1, 2), (3, 0, 0), (1, 1, 0)),
        3: ((0, 0, 2), (0, 2, 0), (2, 0, 0)),
    }
    module = module_from_mats(ring, 3, mats)
    canon = canonical_module(module)
    seen = []
    for perm in itertools.permutations(range(3)):
        permuted = module_from_mats(
            ring,
            3,
            {
                b: tuple(
                    tuple(mats[b][perm[i]][perm[j]] for j in range(3))
                    for i in range(3)
                )
                for b in (1, 2, 3)
            },
        )
        assert canonical_module(permuted) == canon
        seen.append(permuted.flat())
    assert canon.flat() == min(seen)


# -- oracle equivalence ------------------------------------------------------------


@pytest.mark.parametrize(
    "make_ring, rank",
    [
        (lambda: subring_an(4), 1),
        (lambda: subring_an(4), 2),
        (lambda: subquotient_qn(4), 1),
        (lambda: subquotient_qn(5), 1),
        (lambda: subquotient_qn(6), 1),
        (lambda: subquotient_qn(4), 2),
        (lambda: subquotient_qn(5), 2),
        (lambda: subquotient_qn(6), 2),
    ],
)
def test_pruned_search_equals_bruteforce(make_ring, rank):
    ring = make_ring()
    fast = solve_matrix_modules(ring, rank, bound=8)
    slow = bruteforce_matrix_modules(ring, rank, 8)
    assert [m.key() for m in fast.modules] == [m.key() for m in slow]


def test_pruned_search_equals_bruteforce_with_rigidity():
    for n in (4, 5, 6):
        ring = subquotient_qn(n)
        fast = solve_matrix_modules(ring, 2, ["s-rigidity"], bound=8)
        slow = bruteforce_matrix_modules(ring, 2, 8, ["s-rigidity"])
        assert [m.key() for m in fast.modules] == [m.key() for m in slow], n


def _residuals(ring, rank, mats):
    """Entry (i, j) of M_x M_y - sum_z c[x][y][z] M_z for every x, y, by
    direct multiplication."""
    out = {}
    for x, y, i, j in itertools.product(
        range(ring.size), range(ring.size), range(rank), range(rank)
    ):
        value = sum(mats[x][i][p] * mats[y][p][j] for p in range(rank))
        value -= sum(c * mats[z][i][j] for z, c in enumerate(ring.c[x][y]))
        out[(x, y, i, j)] = value
    return out


# the Fibonacci ring, t*t = e + t: unlike A_n and Q_n, a product of
# non-identity basis elements reaches the identity
FIBONACCI_TEXT = "labels e t\nidentity e\nc e e e 1\nc e t t 1\nc t e t 1\nc t t e 1\nc t t t 1\n"


def _compiler_ring(name):
    return ring_from_text(FIBONACCI_TEXT) if name == "Fib" else SMALL_RINGS[name]()


def _assignments(ring, name, rank):
    """Every assignment with entries <= 1 (A4, Q4 and Q5 at rank 2, the
    Fibonacci ring at ranks 2 and 3); seeded random ones with entries <= 8
    for Q6 at ranks 2 and 3."""
    others = [b for b in range(ring.size) if b != ring.identity]
    cells = rank * rank * len(others)
    if name == "Q6":
        rng = random.Random(rank)
        grid = [[rng.randint(0, 8) for _ in range(cells)] for _ in range(300)]
    else:
        grid = itertools.product(range(2), repeat=cells)
    for flat in grid:
        mats = {ring.identity: tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))}
        for n, b in enumerate(others):
            block = flat[n * rank * rank:(n + 1) * rank * rank]
            mats[b] = tuple(tuple(block[i * rank:(i + 1) * rank]) for i in range(rank))
        yield mats


@pytest.mark.parametrize(
    "name, rank",
    [("A4", 2), ("Q4", 2), ("Q5", 2), ("Q6", 2), ("Q6", 3), ("Fib", 2), ("Fib", 3)],
)
def test_compiled_equations_equal_direct_multiplication(name, rank):
    ring = _compiler_ring(name)
    e = ring.identity
    search = _Search(ring, rank, 1, None, None, None)
    search_eqs = {}
    for products, rhs, const in search._compile_equations():
        # the first product term is entry (i, 0) of M_x times (0, j) of M_y
        x, i, _ = search.vars[products[0][0]]
        y, _, j = search.vars[products[0][1]]
        search_eqs[(x, y, i, j)] = (products, rhs, const)
    cells = sorted(search.var_index)
    index = {cell: k for k, cell in enumerate(cells)}
    oracle_eqs = _oracle_equations(ring, rank, index)
    # both compile every entry of every relation with x, y != e, once
    off_identity = {
        (x, y, i, j)
        for x, y, i, j in itertools.product(
            range(ring.size), range(ring.size), range(rank), range(rank)
        )
        if e not in (x, y)
    }
    assert len(search_eqs) == len(search._compile_equations())
    assert set(search_eqs) == set(oracle_eqs) == off_identity
    checked = 0
    for mats in _assignments(ring, name, rank):
        direct = _residuals(ring, rank, mats)
        values = [mats[b][i][j] for b, i, j in cells] + [1]
        search_values = [mats[b][i][j] for b, i, j in search.vars]
        for key, value in direct.items():
            if e in key[:2]:
                # M_e M_y - M_y and M_y M_e - M_y: what the compilers leave out
                assert value == 0, key
                continue
            products, rhs, const = search_eqs[key]
            compiled = const + sum(search_values[a] * search_values[b] for a, b in products)
            compiled -= sum(c * search_values[k] for c, k in rhs)
            assert compiled == value, ("search", key)
            oracle = sum(c * values[u] * values[v] for c, u, v in oracle_eqs[key])
            assert oracle == value, ("oracle", key)
        checked += 1
    assert checked >= 16


# trace-pinned s-rigid searches and how many of their equations the fold
# drops: the root pass fixes M_g = 2I, and most relations that read it
# become 0 = 0 (13 of 18 equations at Q5, 46 of 84 and 82 of 147 at Q6)
FOLD_CASES = [(5, (0, 1, 1), 13), (6, (0, 1, 1, 1), 46), (6, (0, 2, 1, 1), 82)]


@pytest.mark.parametrize(
    "n, profile, drops",
    FOLD_CASES,
    ids=[f"Q{n}-{''.join(map(str, p))}" for n, p, _ in FOLD_CASES],
)
def test_folded_equations_equal_direct_multiplication(n, profile, drops):
    ring = subquotient_qn(n)
    table = character_table(ring)
    rank = sum(profile)
    traces = profile_traces(table, profile)
    g = rigid_generator(ring)
    caps = _perron_limits(table, rank, traces, True)[1]
    search = _Search(ring, rank, None, caps, traces, g, symmetry_break=True)
    # the source of each compiled equation: a relation entry (x, y, i, j),
    # read off its first product term, or the basis element of a trace
    sources = []
    for products, rhs, _ in search.equations:
        if products:
            x, i, _ = search.vars[products[0][0]]
            y, _, j = search.vars[products[0][1]]
            sources.append((x, y, i, j))
        else:
            sources.append(search.vars[rhs[0][1]][0])
    # run(), one step at a time
    assert search._propagate(range(len(search.equations)))
    assert search._fold()
    search._assign(0)
    assert search.solutions
    fixed = {
        k: lo for k, (lo, hi) in enumerate(zip(search.lower, search.upper)) if lo == hi
    }
    for i, j in itertools.product(range(rank), repeat=2):
        assert fixed[search.var_index[(g, i, j)]] == 2 * (i == j)
    # the found modules and seeded assignments that keep the root-fixed entries
    rng = random.Random(rank)
    assignments = [[m.mats[b][i][j] for b, i, j in search.vars] for m in search.solutions]
    for _ in range(100):
        assignments.append([fixed.get(k, rng.randint(0, 8)) for k in range(len(search.vars))])

    def residuals(values):
        """Every relation entry by direct multiplication, and every trace
        minus its pin, keyed like sources."""
        mats = {ring.identity: tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))}
        for b in range(ring.size):
            if b != ring.identity:
                mats[b] = tuple(
                    tuple(values[search.var_index[(b, i, j)]] for j in range(rank))
                    for i in range(rank)
                )
        out = _residuals(ring, rank, mats)
        for label, target in traces.items():
            b = ring.index(label)
            out[b] = sum(mats[b][k][k] for k in range(rank)) - target
        return out

    direct = [residuals(values) for values in assignments]

    def folded(equation, values):
        products, rhs, const = equation
        value = const + sum(values[a] * values[b] for a, b in products)
        return value - sum(c * values[k] for c, k in rhs)

    # the fold keeps the equations in order: each source is either identically
    # zero on every assignment (dropped) or the next kept equation
    kept = iter(search.equations)
    dropped = 0
    for source in sources:
        want = [values[source] for values in direct]
        if not any(want):
            dropped += 1
            continue
        equation = next(kept)
        assert [folded(equation, values) for values in assignments] == want, source
        products, rhs, _ = equation
        read = {k for pair in products for k in pair} | {k for _, k in rhs}
        assert all(search.vars[k][0] != g for k in read), source
    assert next(kept, None) is None
    assert dropped == len(sources) - len(search.equations) == drops


SMALL_RINGS = {
    "A4": lambda: subring_an(4),
    "Q4": lambda: subquotient_qn(4),
    "Q5": lambda: subquotient_qn(5),
    "Q6": lambda: subquotient_qn(6),
}


@pytest.mark.parametrize("name, count", [("A4", 0), ("Q4", 2), ("Q5", 4), ("Q6", 7)])
def test_pruned_search_equals_bruteforce_at_rank_three(name, count):
    ring = SMALL_RINGS[name]()
    fast = solve_matrix_modules(ring, 3, bound=3)
    slow = bruteforce_matrix_modules(ring, 3, 3)
    assert [m.key() for m in fast.modules] == [m.key() for m in slow]
    assert len(slow) == count


@pytest.mark.parametrize("name", ["A4", "Q4", "Q5"])
def test_bruteforce_equals_plain_enumeration(name):
    # every tuple of rank-2 matrices with entries <= 2, tested whole
    ring = SMALL_RINGS[name]()
    rank, bound = 2, 2
    others = [b for b in range(ring.size) if b != ring.identity]
    grid = [
        ((a, b), (c, d))
        for a, b, c, d in itertools.product(range(bound + 1), repeat=4)
    ]
    want = set()
    for mats in itertools.product(grid, repeat=len(others)):
        module = module_from_mats(ring, rank, dict(zip(others, mats)))
        if satisfies_ring_relations(ring, module) and is_transitive(module):
            want.add(canonical_module(module).key())
    got = bruteforce_matrix_modules(ring, rank, bound)
    assert [m.key() for m in got] == sorted(want)
    assert got


def _faithful_cases(max_rank):
    for n in (4, 5, 6):
        table = character_table(subquotient_qn(n))
        for profile in feasible_rank_profiles(table, faithful=True, max_rank=max_rank):
            yield f"Q{n}", profile, None


# every faithful profile of Q4-Q6 up to rank 4 (s-rigidity, pinned traces),
# and raw searches (no filter, no traces): Q4 and Q5 at rank 3, and the
# Fibonacci ring at rank 2, whose one searched matrix has no doubling
# diagonal to settle every transposition at its first pair
SYMMETRY_CASES = [*_faithful_cases(4)] + [
    (name, 3, bound) for name in ("Q4", "Q5") for bound in (2, 3)
] + [("Fib", 2, 3)]


@pytest.mark.parametrize(
    "name, shape, bound",
    SYMMETRY_CASES,
    ids=[
        f"{name}-raw-r{shape}-b{bound}" if bound else f"{name}-{''.join(map(str, shape))}"
        for name, shape, bound in SYMMETRY_CASES
    ],
)
def test_symmetry_break_keeps_one_module_of_every_orbit(name, shape, bound):
    # the lex-leader break against the unbroken search, canonicalized
    ring = _compiler_ring(name)
    if bound is None:
        args = (ring, sum(shape), ["s-rigidity"])
        kwargs = {"traces": profile_traces(character_table(ring), shape)}
    else:
        args, kwargs = (ring, shape), {"bound": bound}
    broken = solve_matrix_modules(*args, **kwargs)
    full = solve_matrix_modules(*args, dedupe=False, **kwargs)
    assert [m.key() for m in broken.modules] == sorted(
        {canonical_module(m).key() for m in full.modules}
    )
    assert broken.modules


@pytest.mark.parametrize("bound", [3, 5])
def test_symmetry_break_drops_the_flag_of_dead_end_branches(bound):
    # Q4 has no s-rigid module of rank 3; only branches that lead nowhere
    # reach the bound, and the break cuts the ones that are not lex-leaders
    # (the bounds lie below the proven rank-3 cap 6, which is never flagged)
    ring = subquotient_qn(4)
    broken = solve_matrix_modules(ring, 3, ["s-rigidity"], bound=bound)
    full = solve_matrix_modules(ring, 3, ["s-rigidity"], bound=bound, dedupe=False)
    assert broken.modules == full.modules == ()
    assert not broken.bound_exhausted
    assert full.bound_exhausted


# every faithful profile of rank <= 2 for Q4, Q5 and Q6
SMALL_FAITHFUL_PROFILES = [
    (4, (0, 0, 1)),
    (4, (0, 1, 1)),
    (5, (0, 1, 1)),
    (6, (0, 0, 0, 1)),
    (6, (0, 0, 1, 1)),
    (6, (0, 1, 0, 1)),
]


@pytest.mark.parametrize(
    "n, profile",
    SMALL_FAITHFUL_PROFILES,
    ids=[f"Q{n}-{''.join(map(str, p))}" for n, p in SMALL_FAITHFUL_PROFILES],
)
def test_trace_pinned_search_equals_bruteforce(n, profile):
    ring = subquotient_qn(n)
    table = character_table(ring)
    traces = profile_traces(table, profile)
    rank = sum(profile)
    fast = solve_matrix_modules(ring, rank, ["s-rigidity"], bound=8, traces=traces)
    slow = [
        m
        for m in bruteforce_matrix_modules(ring, rank, 8, ["s-rigidity"])
        if all(m.trace(label) == t for label, t in traces.items())
    ]
    assert [m.key() for m in fast.modules] == [m.key() for m in slow]


@pytest.mark.parametrize("profile", [(0, 1, 1, 1), (0, 2, 0, 1)])
def test_trace_pinned_search_equals_bruteforce_at_rank_three(profile):
    # lower bounds and the root fold are pruning the rank-two cases above
    # barely reach
    ring = subquotient_qn(6)
    traces = profile_traces(character_table(ring), profile)
    fast = solve_matrix_modules(ring, 3, ["s-rigidity"], bound=3, traces=traces)
    slow = [
        m
        for m in bruteforce_matrix_modules(ring, 3, 3, ["s-rigidity"])
        if all(m.trace(label) == t for label, t in traces.items())
    ]
    assert [m.key() for m in fast.modules] == [m.key() for m in slow]
    assert slow


# -- classification ----------------------------------------------------------------


def test_classify_q5_theorem_counts():
    report = classify("Q5")
    assert len(report.realized) == 2
    assert report.matches_expected is True
    assert not report.bound_exhausted
    statuses = {c.module.flat(): c.status for c in report.candidates}
    assert statuses[((0,), (0,))] == "realized-cell"
    assert statuses[((2, 0, 0, 2), (0, 2, 2, 2))] == "realized-cell"
    for flat in (((2, 0, 0, 2), (1, 1, 5, 1)), ((2, 0, 0, 2), (0, 4, 1, 2)),
                 ((2, 0, 0, 2), (0, 1, 4, 2))):
        assert statuses[flat] == "excluded"


def test_classify_q4_theorem_counts():
    report = classify("Q4")
    assert len(report.realized) == 3
    assert report.matches_expected is True
    statuses = {c.module.flat(): c.status for c in report.candidates}
    assert statuses[((2,), (2,))] == "realized-extra"
    assert statuses[((2, 0, 0, 2), (0, 2, 2, 0))] == "realized-cell"
    assert statuses[((2, 0, 0, 2), (0, 1, 4, 0))] == "excluded"
    extra = next(c for c in report.candidates if c.status == "realized-extra")
    assert extra.module.rank == 1
    assert extra.multiplicities == (0, 0, 1)


@pytest.mark.parametrize("ring_id", ["Q4", "Q5"])
def test_special_mult_one_applies_to_every_candidate(ring_id):
    # the zero module decomposes as 1*V1, with the special character at 0
    report = classify(ring_id, filters=["s-rigidity", "special-mult-one"])
    special = special_character(character_table(report.ring))
    assert report.candidates
    assert all(c.multiplicities[special] == 1 for c in report.candidates)
    default = classify(ring_id)
    assert [c.module.key() for c in report.candidates] == [
        c.module.key()
        for c in default.candidates
        if c.multiplicities and c.multiplicities[special] == 1
    ]
    assert "special-mult-one" in report.filters


@pytest.mark.parametrize("ring_id", ["Q4", "Q5"])
def test_faithful_filter_drops_only_the_zero_module(ring_id):
    report = classify(ring_id, filters=["s-rigidity", "faithful"])
    zero = canonical_module(trivial_module(report.ring)).key()
    default = [c.module.key() for c in classify(ring_id).candidates]
    assert zero in default
    assert [c.module.key() for c in report.candidates] == [
        key for key in default if key != zero
    ]


def test_classify_q3():
    report = classify("Q3")
    assert len(report.realized) == 2
    assert [c.module.flat() for c in report.candidates] == [((0,),), ((2,),)]
    assert all(c.status == "realized-cell" for c in report.candidates)


def test_classify_q6_small_rank_is_unresolved():
    report = classify("Q6", max_rank=2)
    statuses = {c.module.flat(): c.status for c in report.candidates}
    assert statuses[((0,), (0,), (0,))] == "realized-cell"
    others = [s for f, s in statuses.items() if f != ((0,), (0,), (0,))]
    assert others and all(s == "unresolved" for s in others)
    assert report.matches_expected is None


Q6_MAX_RANK_4_KEYS = (
    (1, ((0,), (0,), (0,))),
    (1, ((2,), (4,), (2,))),
    (2, ((2, 0, 0, 2), (0, 1, 8, 2), (2, 0, 0, 2))),
    (2, ((2, 0, 0, 2), (0, 2, 4, 2), (2, 0, 0, 2))),
    (2, ((2, 0, 0, 2), (0, 4, 2, 2), (2, 0, 0, 2))),
    (2, ((2, 0, 0, 2), (0, 8, 1, 2), (2, 0, 0, 2))),
    (2, ((2, 0, 0, 2), (1, 1, 9, 1), (2, 0, 0, 2))),
    (2, ((2, 0, 0, 2), (1, 3, 3, 1), (2, 0, 0, 2))),
    (2, ((2, 0, 0, 2), (2, 1, 4, 2), (0, 1, 4, 0))),
    (2, ((2, 0, 0, 2), (2, 2, 2, 2), (0, 2, 2, 0))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 0, 1, 0, 0, 1, 4, 4, 2), (0, 2, 0, 2, 0, 0, 0, 0, 2))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 0, 1, 0, 0, 2, 4, 2, 2), (0, 1, 0, 4, 0, 0, 0, 0, 2))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 0, 2, 0, 0, 2, 2, 2, 2), (0, 2, 0, 2, 0, 0, 0, 0, 2))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 0, 2, 0, 0, 4, 2, 1, 2), (0, 1, 0, 4, 0, 0, 0, 0, 2))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 0, 4, 0, 0, 4, 1, 1, 2), (0, 2, 0, 2, 0, 0, 0, 0, 2))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 1, 1, 4, 0, 2, 4, 2, 0), (2, 0, 0, 0, 2, 0, 0, 0, 2))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 1, 1, 4, 1, 1, 4, 1, 1), (2, 0, 0, 0, 0, 2, 0, 2, 0))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 1, 2, 4, 0, 4, 2, 1, 0), (2, 0, 0, 0, 2, 0, 0, 0, 2))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 2, 2, 2, 0, 2, 2, 2, 0), (2, 0, 0, 0, 2, 0, 0, 0, 2))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 2, 2, 2, 1, 1, 2, 1, 1), (2, 0, 0, 0, 0, 2, 0, 2, 0))),
    (3, ((2, 0, 0, 0, 2, 0, 0, 0, 2), (0, 4, 4, 1, 1, 1, 1, 1, 1), (2, 0, 0, 0, 0, 2, 0, 2, 0))),
    (4, ((2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2),
         (0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 0, 2, 2, 2, 2, 0),
         (0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2))),
    (4, ((2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2),
         (0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1),
         (0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0))),
    (4, ((2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2),
         (0, 0, 1, 1, 0, 0, 2, 2, 2, 1, 0, 2, 2, 1, 2, 0),
         (0, 1, 0, 0, 4, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2))),
    (4, ((2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2),
         (0, 0, 1, 1, 0, 0, 2, 2, 2, 1, 1, 1, 2, 1, 1, 1),
         (0, 1, 0, 0, 4, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0))),
    (4, ((2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2),
         (0, 0, 1, 2, 0, 0, 1, 2, 2, 2, 0, 4, 1, 1, 1, 0),
         (0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2))),
    (4, ((2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2),
         (0, 0, 2, 2, 0, 0, 2, 2, 1, 1, 0, 2, 1, 1, 2, 0),
         (0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2))),
    (4, ((2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2),
         (0, 0, 2, 2, 0, 0, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1),
         (0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0))),
)


def test_classify_q6_up_to_rank_four_pins_the_candidates():
    report = classify("Q6", max_rank=4)
    assert tuple(c.module.key() for c in report.candidates) == Q6_MAX_RANK_4_KEYS
    assert len(Q6_MAX_RANK_4_KEYS) == 28


# the two modules of profile (0,2,2,1), found with the heuristic bound 100
Q6_RANK_5_KEYS = (
    (5, ((2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2),
         (0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 2, 2, 2, 2, 0),
         (0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2))),
    (5, ((2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2),
         (0, 0, 1, 1, 2, 0, 0, 1, 1, 2, 1, 1, 0, 0, 2, 1, 1, 0, 0, 2, 1, 1, 1, 1, 0),
         (0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2))),
)


def test_classify_q6_up_to_rank_five_pins_the_candidates():
    report = classify("Q6", max_rank=5)
    keys = tuple(c.module.key() for c in report.candidates)
    assert keys == Q6_MAX_RANK_4_KEYS + Q6_RANK_5_KEYS
    # every search is complete, but the rank cap is 7, so the run is not
    assert not report.complete and not report.bound_exhausted
    assert report.bound == 24  # the rank-2 sts cap


# the one module of profile (0,2,3,1), the only faithful profile of rank 6
Q6_RANK_6_MODULE = (
    (2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
     0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2),
    (0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1,
     1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0),
    (0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0,
     0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0),
)


def test_q6_rank_six_module_is_a_rigid_transitive_module():
    ring = subquotient_qn(6)
    table = character_table(ring)
    mats = {
        b: tuple(tuple(flat[6 * i:6 * i + 6]) for i in range(6))
        for b, flat in zip((1, 2, 3), Q6_RANK_6_MODULE)
    }
    module = module_from_mats(ring, 6, mats)
    assert satisfies_ring_relations(ring, module)
    assert is_transitive(module)
    assert _rigidity_holds(ring, module)
    traces = profile_traces(table, (0, 2, 3, 1))
    assert {label: module.trace(label) for label in ring.labels} == traces
    assert decompose(table, module) == (0, 2, 3, 1)
    assert canonical_module(module) == module
    # every entry within the rank-6 caps: sts <= 4 / 8, ststs <= 2 / 4
    caps = _perron_limits(table, 6, traces, True)[1]
    assert caps == {1: (2, 4), 2: (4, 8), 3: (2, 4)}
    outcome = solve_matrix_modules(ring, 6, ["s-rigidity"], traces=traces)
    assert outcome.modules == (module,)
    assert outcome.complete and not outcome.bound_exhausted


def test_classify_q6_default_pins_the_candidates():
    report = classify("Q6")
    keys = tuple(c.module.key() for c in report.candidates)
    assert keys == Q6_MAX_RANK_4_KEYS + Q6_RANK_5_KEYS + ((6, Q6_RANK_6_MODULE),)
    assert len(keys) == 31
    assert report.complete and not report.bound_exhausted


def test_classify_without_rigidity_is_strictly_larger():
    default = classify("Q4")
    raw = classify("Q4", filters=())
    assert len(raw.candidates) > len(default.candidates)
    assert raw.matches_expected is None
    extra = {c.module.flat() for c in raw.candidates} - {
        c.module.flat() for c in default.candidates
    }
    assert ((1, 1, 1, 1), (1, 1, 1, 1)) in extra
    statuses = {c.module.flat(): c.status for c in raw.candidates}
    assert statuses[((1, 1, 1, 1), (1, 1, 1, 1))] == "excluded"
    note = next(
        c.note for c in raw.candidates if c.module.flat() == ((1, 1, 1, 1), (1, 1, 1, 1))
    )
    assert "s-rigidity" in note


def test_raw_run_misses_raw_modules_above_the_rigid_ranks():
    # the raw run takes its ranks (1 and 2) from the s-rigid screen, while
    # raw transitive modules also live at rank 3 (the raw rank cap is 5)
    assert len(solve_matrix_modules(subquotient_qn(4), 3).modules) == 2
    raw = classify("Q4", filters=())
    assert {sum(p) for p in raw.profiles} == {1, 2}  # the ranks searched
    assert max(c.module.rank for c in raw.candidates) == 2
    assert not raw.complete and not raw.bound_exhausted


def test_classify_rank_override():
    report = classify("Q5", rank=2)
    assert all(c.module.rank in (1, 2) for c in report.candidates)
    assert report.matches_expected is None
    assert not report.complete


def test_classify_custom_ring():
    from klcells.basedring import ring_from_text, ring_to_text

    ring = ring_from_text(ring_to_text(subquotient_qn(4)), name="copy")
    report = classify(ring)
    assert report.matches_expected is None
    assert all(c.status == "unresolved" for c in report.candidates)
    # same candidate set as the bundled run, only the annotations differ
    bundled = classify("Q4")
    assert [c.module.flat() for c in report.candidates] == [
        c.module.flat() for c in bundled.candidates
    ]


def test_classify_takes_a_ring_file_ring_as_custom():
    from klcells.basedring import ring_from_text, ring_to_text

    report = classify(ring_from_text(ring_to_text(subquotient_qn(5))))
    assert report.ring_id == "custom"
    assert tuple(c.module.key() for c in report.candidates) == EXPECTED_CANDIDATES["Q5"]


def test_naming_the_default_filter_keeps_the_regression_check():
    report = classify("Q4", filters=["s-rigidity", "transitive", "s-rigidity"])
    assert report.filters == ("transitive", "s-rigidity")
    assert report.matches_expected is True


def test_classify_rejects_bad_ids():
    with pytest.raises(ClassifierError):
        classify("Q7")
    with pytest.raises(ClassifierError):
        classify("custom")


def test_zero_module_is_transitive_rank_one_only():
    ring = subquotient_qn(4)
    zero = trivial_module(ring)
    assert is_transitive(zero)
    rank2_zero = MatrixModule(
        ring.labels,
        ring.identity,
        2,
        (((1, 0), (0, 1)), ((0, 0), (0, 0)), ((0, 0), (0, 0))),
    )
    assert not is_transitive(rank2_zero)
