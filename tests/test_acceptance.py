"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every tolerance here is exact (symbolic equality) unless a runtime
budget is stated.
"""

import json
import time
from fractions import Fraction

import pytest

from klcells import classifier, selfcheck
from klcells.basedring import subquotient_qn
from klcells.characters import character_table, special_character
from klcells.cli import main
from klcells.classifier import (
    classify,
    feasible_rank_profiles,
    solve_matrix_modules,
)
from klcells.quadfield import QuadNum


def q(a, b=0, d=1):
    return QuadNum(Fraction(a), Fraction(b), d if b else 1)


def announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def ring_products(capsys, n):
    code, out = run_cli(capsys, "ring", "--n", str(n), "--qn", "--format", "structured")
    assert code == 0
    table = {}
    for x, y, z, coeff in json.loads(out)["ring"]["constants"]:
        table.setdefault((x, y), {})[z] = coeff
    return table


def test_criterion_1_q5_multiplication_table(capsys):
    start = time.perf_counter()
    products = ring_products(capsys, 5)
    elapsed = time.perf_counter() - start
    expected = {
        ("e", "e"): {"e": 1},
        ("e", "s"): {"s": 1},
        ("e", "sts"): {"sts": 1},
        ("s", "e"): {"s": 1},
        ("s", "s"): {"s": 2},
        ("s", "sts"): {"sts": 2},
        ("sts", "e"): {"sts": 1},
        ("sts", "s"): {"sts": 2},
        ("sts", "sts"): {"s": 2, "sts": 2},
    }
    assert products == expected  # all 9 products, integer coefficients
    assert elapsed < 1.0
    announce(1, f"Q5 table reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_q4_multiplication_table(capsys):
    start = time.perf_counter()
    products = ring_products(capsys, 4)
    elapsed = time.perf_counter() - start
    expected = {
        ("e", "e"): {"e": 1},
        ("e", "s"): {"s": 1},
        ("e", "sts"): {"sts": 1},
        ("s", "e"): {"s": 1},
        ("s", "s"): {"s": 2},
        ("s", "sts"): {"sts": 2},
        ("sts", "e"): {"sts": 1},
        ("sts", "s"): {"sts": 2},
        ("sts", "sts"): {"s": 2},
    }
    assert products == expected
    assert elapsed < 1.0
    announce(2, f"Q4 table reproduced exactly (sts*sts = 2s) in {elapsed:.3f}s")


def test_criterion_3_q6_multiplication_table(capsys):
    start = time.perf_counter()
    products = ring_products(capsys, 6)
    elapsed = time.perf_counter() - start
    expected = {}
    for a in ("e", "s", "sts", "ststs"):
        expected[("e", a)] = {a: 1}
        expected[(a, "e")] = {a: 1}
        if a != "e":
            expected[("s", a)] = {a: 2}
            expected[(a, "s")] = {a: 2}
    expected[("sts", "sts")] = {"s": 2, "sts": 2, "ststs": 2}
    expected[("sts", "ststs")] = {"sts": 2}
    expected[("ststs", "sts")] = {"sts": 2}
    expected[("ststs", "ststs")] = {"s": 2}
    assert products == expected  # the full 4x4 table
    assert elapsed < 1.0
    announce(3, f"Q6 table reproduced exactly in {elapsed:.3f}s")


def test_criterion_4_character_tables_exact():
    start = time.perf_counter()
    t5 = character_table(subquotient_qn(5))
    t4 = character_table(subquotient_qn(4))
    elapsed = time.perf_counter() - start
    assert t5.exact and t4.exact
    assert t5.rows == (
        (q(1), q(0), q(0)),
        (q(1), q(2), q(1, -1, 5)),
        (q(1), q(2), q(1, 1, 5)),
    )
    assert t4.rows == (
        (q(1), q(0), q(0)),
        (q(1), q(2), q(-2)),
        (q(1), q(2), q(2)),
    )
    assert elapsed < 1.0
    announce(4, f"character tables exact (values 0, 2, 1±√5 and 0, 2, ±2) in {elapsed:.3f}s")


def test_criterion_5_special_modules_exact():
    t5 = character_table(subquotient_qn(5))
    t4 = character_table(subquotient_qn(4))
    assert special_character(t5) == 2
    assert special_character(t4) == 2
    # the exact magnitude chains behind the uniqueness
    sums5 = [sum(row, start=q(0)) for row in t5.rows]
    assert sums5 == [q(1), q(4, -1, 5), q(4, 1, 5)]
    assert abs(sums5[2]) > abs(sums5[1]) > abs(sums5[0])
    sums4 = [sum(row, start=q(0)) for row in t4.rows]
    assert sorted(map(abs, sums4)) == [q(1), q(1), q(5)]
    assert abs(sums4[2]) == q(5)
    announce(5, "V3 is the unique special character for Q4 and Q5 (exact)")


def test_criterion_6_lemma_14_candidates():
    start = time.perf_counter()
    outcome = solve_matrix_modules(subquotient_qn(5), 2, rigid=True)
    elapsed = time.perf_counter() - start
    i2 = (2, 0, 0, 2)
    assert [m.flat() for m in outcome.modules] == [
        (i2, (0, 1, 4, 2)),
        (i2, (0, 2, 2, 2)),
        (i2, (0, 4, 1, 2)),
        (i2, (1, 1, 5, 1)),
    ]  # the four canonical pairs, no more, no fewer
    assert elapsed < 10.0
    announce(6, f"Q5 rank-2 rigidity search gives exactly the 4 pairs in {elapsed:.3f}s")


def test_criterion_7_lemma_23_candidates():
    start = time.perf_counter()
    report = classify("Q4")
    elapsed = time.perf_counter() - start
    faithful = [
        c.module for c in report.candidates if c.module.flat() != ((0,), (0,))
    ]
    i2 = (2, 0, 0, 2)
    assert [m.flat() for m in faithful] == [
        ((2,), (2,)),
        (i2, (0, 1, 4, 0)),  # canonical form of the pair ((0,4),(1,0))
        (i2, (0, 2, 2, 0)),
    ]
    assert elapsed < 10.0
    announce(7, f"Q4 gives rank-1 (2),(2) plus the two rank-2 pairs in {elapsed:.3f}s")


def test_criterion_8_theorem_regression(capsys, monkeypatch):
    code, out = run_cli(capsys, "classify", "--n", "5", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["realized_classes"] == 2
    code, out = run_cli(capsys, "classify", "--n", "4", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["realized_classes"] == 3
    extras = [c for c in payload["candidates"] if c["status"] == "realized-extra"]
    assert len(extras) == 1
    assert extras[0]["rank"] == 1
    assert extras[0]["matrices"] == [["s", [2]], ["sts", [2]]]
    # a mismatch against the bundled data must exit non-zero
    bad = dict(classifier.EXPECTED_CANDIDATES)
    bad["Q4"] = bad["Q4"][:-1]
    monkeypatch.setattr(classifier, "EXPECTED_CANDIDATES", bad)
    code, _ = run_cli(capsys, "classify", "--n", "4")
    assert code == 1
    announce(8, "classify reports 2 (Q5) and 3 (Q4) realized classes; guard trips")


def test_criterion_9_rank_screening():
    t5 = character_table(subquotient_qn(5))
    assert feasible_rank_profiles(t5, faithful=True) == ((0, 1, 1),)
    t4 = character_table(subquotient_qn(4))
    assert feasible_rank_profiles(t4, faithful=True) == ((0, 0, 1), (0, 1, 1))
    announce(9, "rank screening reproduces the faithful profiles exactly")


def test_criterion_10_property_suites():
    start = time.perf_counter()
    report = selfcheck.run_suite(max_n=8)
    elapsed = time.perf_counter() - start
    failures = [r for r in report.results if not r.ok]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    # the suite covers: KL constants positive + associative (n <= 8), the
    # closed-form cell partitions, Bruhat vs the subword oracle, and the
    # pruned search vs naive enumeration at bound 8 on Q3/Q4/Q5/Q6
    names = " | ".join(r.name for r in report.results)
    for needle in ("associativity", "cell partitions", "subword", "naive"):
        assert needle in names
    assert elapsed < 120.0
    announce(10, f"full property suite passed in {elapsed:.1f}s (< 2 min)")


@pytest.fixture(scope="module", autouse=True)
def _summary():
    yield
    print("acceptance criteria complete")
