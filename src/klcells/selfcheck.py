"""Cross-module verification suites behind the `verify` CLI command.

Each check returns a CheckResult; run_suite collects them all.  The checks
favor independent recomputation over trusting the code paths they exercise:
Bruhat comparisons are replayed against the subword oracle, and the pruned
matrix search against the naive enumerator, which sets one entry at a time
and evaluates each product-relation entry once its last entry is set, with
no bounds derived from the equations; the KL ring goes through
basedring.verify, the one checker of the based-ring axioms.  Checks that a
constructor already makes (the axioms of Q_n and A_n, multiplicativity of the
character rows) are not repeated.  Each result counts the cases its check
exercised (triples, pairs, rings, searches, ...), so a run that checks less
shows it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import classifier
from .basedring import full_kl_ring, subquotient_qn, subring_an, verify as ring_verify
from .characters import character_table, decompose, special_character
from .dihedral import DihedralGroup
from .klring import compute_cells, structure_constants
from .matrixmodule import canonical_module, module_from_mats, trivial_module
from .quadfield import QuadNum

__all__ = ["CheckResult", "SuiteReport", "SMALLEST_MAX_N", "run_suite"]

# the smallest exponent at which every per-n check has a case: Q_n needs n >= 3
SMALLEST_MAX_N = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    cases: int
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            mark = "PASS" if r.ok else "FAIL"
            suffix = f": {r.detail}" if (r.detail and not r.ok) else ""
            out.append(f"{mark} {r.name} ({r.cases} cases){suffix}")
        status = "ok" if self.ok else "FAILED"
        out.append(
            f"{sum(r.ok for r in self.results)}/{len(self.results)} checks passed "
            f"({status})"
        )
        return out


def _result(name: str, failures: list[str], cases: int) -> CheckResult:
    if failures or not cases:  # a check that exercised nothing proves nothing
        detail = "; ".join(failures[:4]) or "no case was exercised"
        return CheckResult(name, False, cases, detail)
    return CheckResult(name, True, cases)


def check_dihedral_arithmetic(max_n: int) -> CheckResult:
    """Associativity on all triples, inverses, and length census, per n.

    Cases: the (2n)**3 triples and 2n inverses of every n.
    """
    failures = []
    cases = 0
    for n in range(2, max_n + 1):
        group = DihedralGroup(n)
        els = group.elements()
        cases += len(els) ** 3 + len(els)
        for u in els:
            if not group.multiply(u, group.inverse(u)).is_identity:
                failures.append(f"n={n}: {u} times its inverse is not e")
        for u in els:
            for v in els:
                for w in els:
                    left = group.multiply(group.multiply(u, v), w)
                    right = group.multiply(u, group.multiply(v, w))
                    if left != right:
                        failures.append(f"n={n}: associativity fails at {(u, v, w)}")
        census: dict[int, int] = {}
        for el in els:
            census[el.length] = census.get(el.length, 0) + 1
        expect = {0: 1, n: 1, **{k: 2 for k in range(1, n)}}
        if census != expect:
            failures.append(f"n={n}: length census {census}")
    return _result("dihedral arithmetic (associativity, inverses, census)", failures, cases)


def check_bruhat_oracle(max_n: int) -> CheckResult:
    """bruhat_leq agrees with the brute-force subword oracle on all pairs."""
    failures = []
    cases = 0
    for n in range(2, max_n + 1):
        group = DihedralGroup(n)
        els = group.elements()
        cases += len(els) ** 2
        for u in els:
            for v in els:
                if group.bruhat_leq(u, v) != group.bruhat_leq_subword(u, v):
                    failures.append(f"n={n}: mismatch at ({u}, {v})")
    return _result("Bruhat order vs subword oracle", failures, cases)


def check_kl_ring_axioms(max_n: int) -> CheckResult:
    """ZD_2n, with inversion as its involution, passes basedring.verify."""
    failures = []
    exponents = range(2, min(max_n, 8) + 1)
    for n in exponents:
        report = ring_verify(full_kl_ring(n))
        if not report.ok:
            failures.append(f"n={n}: {report.summary()}")
    return _result(
        "KL ring axioms: positivity, identity, associativity, anti-involution "
        "(n <= 8)",
        failures,
        len(exponents),
    )


def check_cells_closed_form(max_n: int) -> CheckResult:
    """Cell partitions match the closed-form dihedral description."""
    failures = []
    exponents = range(3, max_n + 1)
    for n in exponents:
        group = DihedralGroup(n)
        constants = structure_constants(n)
        cells = compute_cells(constants.labels, constants.c)
        els = constants.elements
        label = {el: constants.labels[i] for i, el in enumerate(els)}
        middle = frozenset(
            label[el] for el in els if 0 < el.length < n
        )
        l_s = frozenset(
            label[el]
            for el in els
            if el.length != n and "s" in group.right_descents(el)
        )
        l_t = frozenset(
            label[el]
            for el in els
            if el.length != n and "t" in group.right_descents(el)
        )
        r_s = frozenset(
            label[el]
            for el in els
            if el.length != n and "s" in group.left_descents(el)
        )
        r_t = frozenset(
            label[el]
            for el in els
            if el.length != n and "t" in group.left_descents(el)
        )
        if {frozenset(cell) for cell in cells.two_sided} != {
            frozenset({"e"}),
            middle,
            frozenset({"w0"}),
        }:
            failures.append(f"n={n}: two-sided cells {cells.two_sided}")
        if {frozenset(cell) for cell in cells.left} != {
            frozenset({"e"}),
            l_s,
            l_t,
            frozenset({"w0"}),
        }:
            failures.append(f"n={n}: left cells {cells.left}")
        if {frozenset(cell) for cell in cells.right} != {
            frozenset({"e"}),
            r_s,
            r_t,
            frozenset({"w0"}),
        }:
            failures.append(f"n={n}: right cells {cells.right}")
        # linear two-sided order {e} <= middle <= {w0}
        e_cell = cells.cell_of("two_sided", "e")
        w0_cell = cells.cell_of("two_sided", "w0")
        mid_cell = next(
            i for i in range(len(cells.two_sided)) if i not in (e_cell, w0_cell)
        )
        needed = {(e_cell, mid_cell), (mid_cell, w0_cell), (e_cell, w0_cell)}
        if not needed <= cells.two_sided_leq:
            failures.append(f"n={n}: two-sided order misses {needed}")
        if (w0_cell, e_cell) in cells.two_sided_leq:
            failures.append(f"n={n}: two-sided order not antisymmetric")
        # left order: L_e below both middles, middles incomparable, w0 on top
        le = cells.cell_of("left", "e")
        lw0 = cells.cell_of("left", "w0")
        ls = cells.cell_of("left", sorted(l_s)[0])
        lt = cells.cell_of("left", sorted(l_t)[0])
        want = {(le, ls), (le, lt), (ls, lw0), (lt, lw0), (le, lw0)}
        if not want <= cells.left_leq:
            failures.append(f"n={n}: left order misses {want - cells.left_leq}")
        if (ls, lt) in cells.left_leq or (lt, ls) in cells.left_leq:
            failures.append(f"n={n}: L_s and L_t should be incomparable")
    return _result(
        "cell partitions match the closed-form description", failures, len(exponents)
    )


def check_subquotient_rings(max_n: int) -> CheckResult:
    """Q_n has the right basis and A_n the same table for every n.

    Both constructors already refuse a ring that fails verify.
    """
    failures = []
    exponents = range(3, max_n + 1)
    for n in exponents:
        ring = subquotient_qn(n)
        want_size = 1 + (n - 1 + 1) // 2
        if ring.size != want_size:
            failures.append(f"n={n}: basis size {ring.size} != {want_size}")
        sub = subring_an(n)
        if sub.c != subring_an(3).c:
            failures.append(f"n={n}: A_n table depends on n")
    if subquotient_qn(3).c != subring_an(3).c:
        failures.append("Q_3 does not coincide with A_3")
    return _result("subquotient rings Q_n and subrings A_n", failures, len(exponents))


_EXPECTED_TABLES = {
    # label -> (x, y) -> product coefficients over the basis
    "Q5": {
        ("s", "s"): {"s": 2},
        ("s", "sts"): {"sts": 2},
        ("sts", "s"): {"sts": 2},
        ("sts", "sts"): {"s": 2, "sts": 2},
    },
    "Q4": {
        ("s", "s"): {"s": 2},
        ("s", "sts"): {"sts": 2},
        ("sts", "s"): {"sts": 2},
        ("sts", "sts"): {"s": 2},
    },
    "Q6": {
        ("s", "s"): {"s": 2},
        ("s", "sts"): {"sts": 2},
        ("s", "ststs"): {"ststs": 2},
        ("sts", "s"): {"sts": 2},
        ("ststs", "s"): {"ststs": 2},
        ("sts", "sts"): {"s": 2, "sts": 2, "ststs": 2},
        ("sts", "ststs"): {"sts": 2},
        ("ststs", "sts"): {"sts": 2},
        ("ststs", "ststs"): {"s": 2},
    },
}


def check_reference_tables() -> CheckResult:
    """The Q_4, Q_5 and Q_6 multiplication tables match their reference data."""
    failures = []
    for name, table in _EXPECTED_TABLES.items():
        ring = subquotient_qn(int(name[1:]))
        for (lx, ly), want in table.items():
            row = ring.product(lx, ly)
            got = {
                ring.labels[z]: v for z, v in enumerate(row) if v
            }
            if got != want:
                failures.append(f"{name}: {lx}*{ly} = {got}, expected {want}")
    return _result(
        "reference multiplication tables (Q4, Q5, Q6)",
        failures,
        sum(len(table) for table in _EXPECTED_TABLES.values()),
    )


def check_quadfield() -> CheckResult:
    """Field axioms and ordering on deterministic pseudo-random values."""
    failures = []
    rounds = 200
    rng = random.Random(20250808)

    def fraction() -> Fraction:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    for _ in range(rounds):
        d = rng.choice([2, 3, 5, 7, 10])
        x = QuadNum(fraction(), fraction(), d)
        y = QuadNum(fraction(), fraction(), d)
        z = QuadNum(fraction(), fraction(), d)
        if (x + y) * z != x * z + y * z:
            failures.append(f"distributivity fails for {x}, {y}, {z}")
        if (x * y) * z != x * (y * z):
            failures.append(f"multiplicative associativity fails for {x}, {y}, {z}")
        if (x * y).conjugate() != x.conjugate() * y.conjugate():
            failures.append(f"conjugation is not multiplicative for {x}, {y}")
        if (x + y).conjugate() != x.conjugate() + y.conjugate():
            failures.append(f"conjugation is not additive for {x}, {y}")
        if x != QuadNum(Fraction(0)):
            if x * x.inverse() != QuadNum(Fraction(1)):
                failures.append(f"inverse fails for {x}")
        want = (float(x) > float(y)) - (float(x) < float(y))
        got = (x - y).sign()
        if abs(float(x) - float(y)) > 1e-9 and got != want:
            failures.append(f"ordering of {x} and {y} disagrees with floats")
    return _result("quadratic field arithmetic axioms", failures, rounds)


_EXPECTED_CHARACTERS = {
    "Q5": (
        ("1", "0", "0"),
        ("1", "2", "1-√5"),
        ("1", "2", "1+√5"),
    ),
    "Q4": (
        ("1", "0", "0"),
        ("1", "2", "-2"),
        ("1", "2", "2"),
    ),
    "Q6": (
        ("1", "0", "0", "0"),
        ("1", "2", "-2", "2"),
        ("1", "2", "0", "-2"),
        ("1", "2", "4", "2"),
    ),
}


def check_characters() -> CheckResult:
    """Character tables and special characters.

    character_table returns only rows it has checked to be multiplicative.
    """
    failures = []
    for name, want in _EXPECTED_CHARACTERS.items():
        ring = subquotient_qn(int(name[1:]))
        table = character_table(ring)
        rendered = tuple(tuple(str(v) for v in row) for row in table.rows)
        if rendered != want:
            failures.append(f"{name}: table {rendered} != {want}")
        if special_character(table) != table.size - 1:
            failures.append(f"{name}: special character misplaced")
    an = character_table(subring_an(4))
    if tuple(tuple(str(v) for v in row) for row in an.rows) != (("1", "0"), ("1", "2")):
        failures.append("A_n: unexpected character table")
    if special_character(an) != 1:
        failures.append("A_n: special character should be the doubling one")
    return _result(
        "character tables and special characters", failures, len(_EXPECTED_CHARACTERS) + 1
    )


def check_cell_module_decompositions() -> CheckResult:
    """Known cell-module matrices decompose with the documented multiplicities."""
    q4 = subquotient_qn(4)
    t4 = character_table(q4)
    top = module_from_mats(
        q4, 2, {q4.index("s"): ((2, 0), (0, 2)), q4.index("sts"): ((0, 2), (2, 0))}
    )
    extra = module_from_mats(q4, 1, {q4.index("s"): ((2,),), q4.index("sts"): ((2,),)})
    q5 = subquotient_qn(5)
    t5 = character_table(q5)
    top5 = module_from_mats(
        q5, 2, {q5.index("s"): ((2, 0), (0, 2)), q5.index("sts"): ((0, 2), (2, 2))}
    )
    cases = [
        (t4, top, (0, 1, 1), "Q4 top-cell module should decompose as (0, 1, 1)"),
        (t4, extra, (0, 0, 1), "Q4 rank-one module should decompose as (0, 0, 1)"),
        (t5, top5, (0, 1, 1), "Q5 top-cell module should decompose as (0, 1, 1)"),
    ]
    for ring, table in ((q4, t4), (q5, t5)):
        cases.append((table, trivial_module(ring), (1, 0, 0),
                      f"{ring.name}: zero module should be the trivial character"))
    failures = [
        message for table, module, want, message in cases
        if decompose(table, module) != want
    ]
    return _result("trace decompositions of the known modules", failures, len(cases))


def check_rank_profiles() -> CheckResult:
    t5 = character_table(subquotient_qn(5))
    t4 = character_table(subquotient_qn(4))
    relaxed = classifier.feasible_rank_profiles(t4, faithful=False, max_rank=4)
    cases = (
        (classifier.feasible_rank_profiles(t5, faithful=True) == ((0, 1, 1),),
         "Q5 faithful profiles should be exactly {(0,1,1)}"),
        (classifier.feasible_rank_profiles(t4, faithful=True) == ((0, 0, 1), (0, 1, 1)),
         "Q4 faithful profiles should be {(0,0,1),(0,1,1)}"),
        (all((k, 0, 0) in relaxed for k in range(1, 5)),
         "non-faithful profiles must include the pure trivial ones"),
    )
    failures = [message for ok, message in cases if not ok]
    return _result("feasible rank profiles", failures, len(cases))


def check_rank_two_candidate_sets() -> CheckResult:
    """The rigidity-filtered rank-2 searches over Q4 and Q5 reproduce the
    rank-2 entries of classifier.EXPECTED_CANDIDATES."""
    failures = []
    ring_ids = ("Q4", "Q5")
    for ring_id in ring_ids:
        want = tuple(
            flat for rank, flat in classifier.EXPECTED_CANDIDATES[ring_id] if rank == 2
        )
        ring = subquotient_qn(int(ring_id[1:]))
        outcome = classifier.solve_matrix_modules(ring, 2, ["s-rigidity"])
        got = tuple(m.flat() for m in outcome.modules)
        if got != want:
            failures.append(f"{ring_id}: got {got}")
        if not outcome.complete:
            failures.append(f"{ring_id}: search not complete up to its proven caps")
    # raw solution set over Q5 with the generator pinned to 2I:
    # a = d = 1 with bc = 5, or {a, d} = {0, 2} with bc = 4
    ring = subquotient_qn(5)
    raw = classifier.solve_matrix_modules(ring, 2, ["s-rigidity"], dedupe=False)
    flats = {
        m.flat()[1]
        for m in raw.modules
        if m.flat()[0] == (2, 0, 0, 2)
    }
    want_raw = set()
    for b in range(1, 6):
        if 5 % b == 0:
            want_raw.add((1, b, 5 // b, 1))
    for a, d in ((0, 2), (2, 0)):
        for b in (1, 2, 4):
            want_raw.add((a, b, 4 // b, d))
    if flats != want_raw:
        failures.append(f"Q5 raw solution set mismatch: {sorted(flats)}")
    # cases: one search per ring and the raw solution set
    return _result("rank-two candidate sets under s-rigidity", failures, len(ring_ids) + 1)


def check_search_oracle_equivalence(max_n: int = 8) -> CheckResult:
    """Pruned DFS equals the entry-by-entry naive enumerator at entry bound 8."""
    failures = []
    cases = [(subring_an(4), 1), (subring_an(4), 2)]
    for n in (4, 5, 6):
        if n <= max_n:
            cases.append((subquotient_qn(n), 1))
            cases.append((subquotient_qn(n), 2))
    for ring, rank in cases:
        fast = classifier.solve_matrix_modules(ring, rank, bound=8)
        slow = classifier.bruteforce_matrix_modules(ring, rank, 8)
        if tuple(m.key() for m in fast.modules) != tuple(m.key() for m in slow):
            failures.append(
                f"{ring.name} rank {rank}: pruned {len(fast.modules)} vs "
                f"naive {len(slow)}"
            )
    return _result("pruned search equals naive enumeration (bound 8)", failures, len(cases))


def check_canonicalization() -> CheckResult:
    failures = []
    ring = subquotient_qn(5)
    outcome = classifier.solve_matrix_modules(ring, 2, ["s-rigidity"], dedupe=False)
    for module in outcome.modules:
        canon = canonical_module(module)
        if canonical_module(canon) != canon:
            failures.append(f"canonicalization not idempotent on {module.flat()}")
        if canon.key() > module.key():
            failures.append(f"canonical form is not minimal for {module.flat()}")
    return _result(
        "canonicalization idempotence and minimality", failures, len(outcome.modules)
    )


def check_classification_regression() -> CheckResult:
    """Default classify runs reproduce the bundled candidate keys and realized
    counts.  Statuses are copied from ANNOTATIONS, so the realized counts are
    what catches corrupted status data."""
    failures = []
    for ring_id, want_count in classifier.REALIZED_COUNTS.items():
        report = classifier.classify(ring_id)
        if report.matches_expected is False:
            failures.append(f"{ring_id}: candidates drifted from bundled data")
        if len(report.realized) != want_count:
            failures.append(
                f"{ring_id}: {len(report.realized)} realized classes, "
                f"expected {want_count}"
            )
        if not report.complete:
            failures.append(f"{ring_id}: default search not complete up to its proven caps")
    return _result(
        "classification regression (Q3, Q4, Q5)", failures, len(classifier.REALIZED_COUNTS)
    )


def run_suite(max_n: int = 8) -> SuiteReport:
    """Run every verification suite up to the given exponent.

    Raises ValueError below SMALLEST_MAX_N, where some per-n check would
    exercise no case and pass vacuously.
    """
    if max_n < SMALLEST_MAX_N:
        raise ValueError(f"max_n must be at least {SMALLEST_MAX_N}, got {max_n}")
    results = (
        check_dihedral_arithmetic(max_n),
        check_bruhat_oracle(max_n),
        check_kl_ring_axioms(max_n),
        check_cells_closed_form(max_n),
        check_subquotient_rings(max_n),
        check_reference_tables(),
        check_quadfield(),
        check_characters(),
        check_cell_module_decompositions(),
        check_rank_profiles(),
        check_rank_two_candidate_sets(),
        check_search_oracle_equivalence(max_n),
        check_canonicalization(),
        check_classification_regression(),
    )
    return SuiteReport(results)
