"""Cross-module verification suites behind the `verify` CLI command.

Each check returns a CheckResult; run_suite collects them all.  The checks
favor independent recomputation over trusting the code paths they exercise:
Bruhat comparisons are replayed against the subword oracle, and the pruned
matrix search against the naive enumerator, which sets one entry at a time,
sums each relation entry's settled terms once per node and tests the values
of its last entry exactly (only the one a linear entry solves for, if any),
with no bounds derived; the KL ring goes through basedring.verify, the one
checker of the based-ring axioms.  An axiom that a proof reduces to
generators is checked on them first, and on every case only if that fails.
Expected values are compared whole: the closed-form cell partition of each
n, its cells and all three of its orders, is one CellPartition checked with
== against compute_cells.  Checks that a constructor already makes (the
axioms of Q_n, multiplicativity of the character rows) are not repeated.
Each result counts the cases its check exercised (triples, pairs, rings,
searches, ...), so a run that checks less shows it.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from . import classifier
from .basedring import full_kl_ring, subquotient_qn, verify as ring_verify
from .characters import character_table, decompose, special_character
from .dihedral import GENERATORS, DihedralGroup
from .klring import CellPartition, compute_cells, structure_constants
from .matrixmodule import MatrixModule, canonical_module, module_from_mats, trivial_module
from .quadfield import QuadNum

__all__ = ["CheckResult", "SuiteReport", "SMALLEST_MAX_N", "run_suite"]

# the smallest exponent at which every per-n check has a case: Q_n needs n >= 3
SMALLEST_MAX_N = 3


class CheckResult(NamedTuple):
    name: str
    ok: bool
    cases: int
    detail: str = ""


class SuiteReport(NamedTuple):
    """The outcome of run_suite, a named tuple of one CheckResult per check."""

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

    Cases: the (2n)**3 triples and 2n inverses of every n.  In any magma,
    N = {a : (xa)y = x(ay) for all x, y} is closed under the operation:
    for a, b in N, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
    So when right multiplication by s and t walks from s and t to every
    element and (u*g)*w = u*(g*w) for g in {s, t} and all u, w, N is the
    group.  Otherwise every triple is compared, the row (u*v)*w over all w
    as a whole with u*(v*w), so a failure names what the full scan names.
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
        rows = {v: [group.multiply(v, w) for w in els] for v in els}
        if not _associative_on_generators(group, els, rows):
            for u in els:
                for v in els:
                    left = rows[group.multiply(u, v)]
                    right = [group.multiply(u, vw) for vw in rows[v]]
                    if left != right:
                        failures.extend(
                            f"n={n}: associativity fails at {(u, v, w)}"
                            for w, a, b in zip(els, left, right)
                            if a != b
                        )
        census = Counter(el.length for el in els)
        expect = {0: 1, n: 1, **{k: 2 for k in range(1, n)}}
        if census != expect:
            failures.append(f"n={n}: length census {census}")
    return _result("dihedral arithmetic (associativity, inverses, census)", failures, cases)


def _associative_on_generators(group: DihedralGroup, els, rows) -> bool:
    """True when s and t reach every element and (u*g)*w == u*(g*w) for g in
    {s, t} and all u, w, read off rows[v], the products v*w in els order."""
    column = {el: k for k, el in enumerate(els)}
    gens = [column[group.element(g)] for g in GENERATORS]
    reached = [els[k] for k in gens]
    for x in reached:  # right multiplication by s and t
        reached += {*map(rows[x].__getitem__, gens)}.difference(reached)
    if {*reached} != column.keys():
        return False
    times = [(k, itemgetter(*map(column.__getitem__, rows[els[k]]))) for k in gens]
    return all(rows[rows[u][k]] == [*times_g(rows[u])] for k, times_g in times for u in els)


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


# the cell orders for every n >= 3, cells in basis order: {e} lies below the
# two middle one-sided cells, which are incomparable, and {w0} above them;
# the two-sided order is {e} <= middle <= {w0}
_ONE_SIDED_LEQ = frozenset(
    {(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3), (2, 2), (2, 3), (3, 3)}
)
_TWO_SIDED_LEQ = frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)})


def check_cells_closed_form(max_n: int) -> CheckResult:
    """compute_cells returns the closed-form cell partition, compared whole.

    The left cells are {e}, the right-descent classes of s and t, and {w0};
    the right cells the same with left descents; the two-sided cells {e},
    the middle and {w0}; each in basis order.  The three orders are the
    constants above, so a missing or an extra pair in any of them fails.
    """
    failures = []
    exponents = range(3, max_n + 1)
    for n in exponents:
        group = DihedralGroup(n)
        constants = structure_constants(n)
        labels = constants.labels
        middle = [(x, el) for x, el in zip(labels, constants.elements) if 0 < el.length < n]
        by_right, by_left = (
            [tuple(x for x, el in middle if g in descents(el)) for g in GENERATORS]
            for descents in (group.right_descents, group.left_descents)
        )
        want = CellPartition(
            labels,
            (("e",), *by_right, ("w0",)),
            (("e",), *by_left, ("w0",)),
            (("e",), tuple(x for x, _ in middle), ("w0",)),
            _ONE_SIDED_LEQ,
            _ONE_SIDED_LEQ,
            _TWO_SIDED_LEQ,
        )
        got = compute_cells(labels, constants.c)
        failures.extend(
            f"n={n}: {field} is {value}, expected {expected}"
            for field, value, expected in zip(CellPartition._fields, got, want)
            if value != expected
        )
    return _result(
        "cell partitions match the closed-form description", failures, len(exponents)
    )


def check_subquotient_rings(max_n: int) -> CheckResult:
    """Q_n has 1 + n // 2 basis elements for every n.

    The constructor already refuses a ring that fails verify.
    """
    failures = []
    exponents = range(3, max_n + 1)
    for n in exponents:
        size = subquotient_qn(n).size
        if size != 1 + n // 2:
            failures.append(f"n={n}: basis size {size} != {1 + n // 2}")
    return _result("subquotient rings Q_n: basis sizes", failures, len(exponents))


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
        ring = classifier.bundled_ring(name)
        for (lx, ly), want in table.items():
            got = {ring.labels[z]: v for z, v in enumerate(ring.product(lx, ly)) if v}
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
        if x != QuadNum(Fraction(0)) and x * x.inverse() != QuadNum(Fraction(1)):
            failures.append(f"inverse fails for {x}")
        fx, fy = float(x), float(y)
        want = (fx > fy) - (fx < fy)
        got = (x - y).sign()
        if abs(fx - fy) > 1e-9 and got != want:
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
    "Q3": (("1", "0"), ("1", "2")),
}


def check_characters() -> CheckResult:
    """Character tables, and the special character in the last row.

    character_table returns only rows it has checked to be multiplicative.
    """
    failures = []
    for name, want in _EXPECTED_CHARACTERS.items():
        table = character_table(classifier.bundled_ring(name))
        rendered = tuple(tuple(map(str, row)) for row in table.rows)
        if rendered != want:
            failures.append(f"{name}: table {rendered} != {want}")
        if special_character(table) != table.size - 1:
            failures.append(f"{name}: special character misplaced")
    return _result(
        "character tables and special characters", failures, len(_EXPECTED_CHARACTERS)
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


def check_rank_two_candidate_sets(raw_q5: tuple[MatrixModule, ...]) -> CheckResult:
    """The rank-2 s-rigid searches over Q4 and Q5 reproduce the rank-2 entries
    of classifier.EXPECTED_CANDIDATES, and raw_q5 the raw set derived below."""
    failures = []
    ring_ids = ("Q4", "Q5")
    for ring_id in ring_ids:
        want = tuple(
            flat for rank, flat in classifier.EXPECTED_CANDIDATES[ring_id] if rank == 2
        )
        ring = classifier.bundled_ring(ring_id)
        outcome = classifier.solve_matrix_modules(ring, 2, rigid=True)
        got = tuple(m.flat() for m in outcome.modules)
        if got != want:
            failures.append(f"{ring_id}: got {got}")
        if not outcome.complete:
            failures.append(f"{ring_id}: search not complete up to its proven caps")
    # raw solution set over Q5 with the generator pinned to 2I:
    # a = d = 1 with bc = 5, or {a, d} = {0, 2} with bc = 4
    want_raw = {
        (1, 1, 5, 1), (1, 5, 1, 1),
        (0, 1, 4, 2), (0, 2, 2, 2), (0, 4, 1, 2),
        (2, 1, 4, 0), (2, 2, 2, 0), (2, 4, 1, 0),
    }
    flats = {m.flat()[1] for m in raw_q5 if m.flat()[0] == (2, 0, 0, 2)}
    if flats != want_raw:
        failures.append(f"Q5 raw solution set mismatch: {sorted(flats)}")
    # cases: one search per ring and the raw solution set
    return _result("rank-two candidate sets under s-rigidity", failures, len(ring_ids) + 1)


def check_search_oracle_equivalence(max_n: int = 8) -> CheckResult:
    """Pruned DFS equals the entry-by-entry naive enumerator at entry bound 8."""
    failures = []
    rings = [subquotient_qn(n) for n in (3, 4, 5, 6) if n <= max_n]
    cases = [(ring, rank) for ring in rings for rank in (1, 2)]
    for ring, rank in cases:
        fast = classifier.solve_matrix_modules(ring, rank, bound=8)
        slow = classifier.bruteforce_matrix_modules(ring, rank, 8)
        if tuple(m.key() for m in fast.modules) != tuple(m.key() for m in slow):
            failures.append(
                f"{ring.name} rank {rank}: pruned {len(fast.modules)} vs "
                f"naive {len(slow)}"
            )
    return _result("pruned search equals naive enumeration (bound 8)", failures, len(cases))


def check_canonicalization(raw_q5: tuple[MatrixModule, ...]) -> CheckResult:
    """Canonical forms of the raw rank-2 Q5 solutions are minimal fixed points."""
    failures = []
    for module in raw_q5:
        canon = canonical_module(module)
        if canonical_module(canon) != canon:
            failures.append(f"canonicalization not idempotent on {module.flat()}")
        if canon.key() > module.key():
            failures.append(f"canonical form is not minimal for {module.flat()}")
    return _result(
        "canonicalization idempotence and minimality", failures, len(raw_q5)
    )


def check_classification_regression() -> CheckResult:
    """Default classify runs reproduce the bundled candidate keys and realized
    counts.  The cell statuses come from classify's rules and the others
    from ANNOTATIONS, so the realized counts are what catches a broken rule
    or corrupted status data."""
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

    Raises ValueError for a max_n that is not an int or is below
    SMALLEST_MAX_N, where some per-n check would exercise no case.
    """
    if type(max_n) is not int:
        raise ValueError(f"max_n must be an int, got {max_n!r}")
    if max_n < SMALLEST_MAX_N:
        raise ValueError(f"max_n must be at least {SMALLEST_MAX_N}, got {max_n}")
    # the raw rank-2 Q5 solutions under s-rigidity, read by two checks
    raw_q5 = classifier.solve_matrix_modules(
        subquotient_qn(5), 2, rigid=True, dedupe=False
    ).modules
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
        check_rank_two_candidate_sets(raw_q5),
        check_search_oracle_equivalence(max_n),
        check_canonicalization(raw_q5),
        check_classification_regression(),
    )
    return SuiteReport(results)
