import pytest

from klcells import classifier
from klcells import selfcheck
from klcells.dihedral import DihedralGroup


def test_suite_passes_at_small_exponent():
    report = selfcheck.run_suite(max_n=3)
    assert report.ok
    assert all(r.ok for r in report.results)
    lines = report.lines()
    assert any(line.startswith("PASS") for line in lines)
    assert lines[-1].endswith("(ok)")


@pytest.mark.parametrize("max_n", [1, 2])
def test_suite_refuses_exponents_that_leave_checks_empty(max_n):
    with pytest.raises(ValueError):
        selfcheck.run_suite(max_n=max_n)


def test_suite_detects_annotation_corruption(monkeypatch):
    bad = dict(classifier.ANNOTATIONS)
    bad_q4 = dict(bad["Q4"])
    bad_q4[(1, ((2,), (2,)))] = ("excluded", "corrupted on purpose")
    bad["Q4"] = bad_q4
    monkeypatch.setattr(classifier, "ANNOTATIONS", bad)
    report = selfcheck.run_suite(max_n=3)
    assert not report.ok
    failing = [r for r in report.results if not r.ok]
    assert any("classification" in r.name for r in failing)
    assert any("FAIL" in line for line in report.lines())


def test_suite_detects_expected_candidate_drift(monkeypatch):
    bad = dict(classifier.EXPECTED_CANDIDATES)
    bad["Q4"] = bad["Q4"] + ((3, ((9, 9, 9), (9, 9, 9))),)
    monkeypatch.setattr(classifier, "EXPECTED_CANDIDATES", bad)
    report = selfcheck.run_suite(max_n=3)
    assert not report.ok


def test_an_incomplete_default_run_is_reported_once_as_incomplete(monkeypatch):
    # an incomplete run has no verdict on the bundled candidates
    # (matches_expected is None), so it is not reported as drift as well
    classify = classifier.classify

    def incomplete_q4(ring_id, **kwargs):
        report = classify(ring_id, **kwargs)
        if ring_id != "Q4":
            return report
        return report._replace(complete=False, matches_expected=None)

    monkeypatch.setattr(classifier, "classify", incomplete_q4)
    result = selfcheck.check_classification_regression()
    assert not result.ok
    assert result.detail == "Q4: default search not complete up to its proven caps"


def test_individual_checks_report_names():
    result = selfcheck.check_quadfield()
    assert result.ok and result.name
    result = selfcheck.check_reference_tables()
    assert result.ok


def test_case_counts_of_the_costliest_checks_at_max_n_eight():
    # closed formulas, so a faster verify cannot be a thinner one
    dihedral = selfcheck.check_dihedral_arithmetic(8)
    assert dihedral.cases == sum((2 * n) ** 3 + 2 * n for n in range(2, 9)) == 10430
    assert selfcheck.check_quadfield().cases == 200
    # Q3, Q4, Q5 and Q6, each at ranks 1 and 2
    assert selfcheck.check_search_oracle_equivalence(8).cases == 4 * 2


def test_every_check_reports_its_cases():
    report = selfcheck.run_suite(max_n=3)
    assert all(r.cases > 0 for r in report.results)
    for line, r in zip(report.lines(), report.results):
        assert line == f"PASS {r.name} ({r.cases} cases)"


def test_a_check_that_exercised_no_case_fails():
    empty = selfcheck._result("empty check", [], 0)
    assert not empty.ok and empty.detail == "no case was exercised"
    assert selfcheck._result("one case", [], 1).ok
    report = selfcheck.SuiteReport((empty,))
    assert not report.ok
    assert report.lines()[0] == "FAIL empty check (0 cases): no case was exercised"


def test_dihedral_check_names_every_non_associative_triple(monkeypatch):
    # a multiply that is wrong on one pair at n = 3: the check must name
    # exactly the triples where the two bracketings differ, in order
    multiply = DihedralGroup.multiply

    def broken(self, u, v):
        if self.n == 3 and u.length == v.length == 1 and u.start == v.start == "s":
            return u
        return multiply(self, u, v)

    monkeypatch.setattr(DihedralGroup, "multiply", broken)
    reported = []
    result = selfcheck._result
    monkeypatch.setattr(
        selfcheck, "_result", lambda name, failures, cases: reported.extend(failures)
        or result(name, failures, cases)
    )
    group = DihedralGroup(3)
    els = group.elements()
    expected = [
        f"n=3: associativity fails at {(u, v, w)}"
        for u in els
        for v in els
        for w in els
        if group.multiply(group.multiply(u, v), w) != group.multiply(u, group.multiply(v, w))
    ]
    check = selfcheck.check_dihedral_arithmetic(3)
    assert expected and not check.ok
    assert check.cases == sum((2 * n) ** 3 + 2 * n for n in (2, 3))
    assert [f for f in reported if "associativity" in f] == expected


@pytest.mark.parametrize(
    "field, pair",
    [("left_leq", (3, 0)), ("right_leq", (3, 0)), ("two_sided_leq", (2, 0))],
)
def test_cell_check_compares_every_order_whole(monkeypatch, field, pair):
    # one extra pair (w0 below e) in any of the three orders is a failure
    # that names the order it is in
    compute_cells = selfcheck.compute_cells

    def one_pair_too_many(*args):
        cells = compute_cells(*args)
        return cells._replace(**{field: getattr(cells, field) | {pair}})

    monkeypatch.setattr(selfcheck, "compute_cells", one_pair_too_many)
    result = selfcheck.check_cells_closed_form(4)
    assert not result.ok
    assert field in result.detail


def test_cell_check_passes_well_past_the_suite_default():
    result = selfcheck.check_cells_closed_form(24)
    assert result.ok and result.cases == 22
