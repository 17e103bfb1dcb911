import pytest

from klcells import classifier
from klcells import selfcheck
from klcells.dihedral import DihedralElement, DihedralGroup

_MULTIPLY = DihedralGroup.multiply


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


def _associativity_reports(monkeypatch, multiply, max_n):
    """The associativity failures check_dihedral_arithmetic(max_n) reports
    under multiply, those a loop over all triples finds, and the check."""
    monkeypatch.setattr(DihedralGroup, "multiply", multiply)
    reported = []
    result = selfcheck._result
    monkeypatch.setattr(
        selfcheck, "_result", lambda name, failures, cases: reported.extend(failures)
        or result(name, failures, cases)
    )
    expected = []
    for n in range(2, max_n + 1):
        group = DihedralGroup(n)
        els = group.elements()
        expected += [
            f"n={n}: associativity fails at {(u, v, w)}"
            for u in els
            for v in els
            for w in els
            if group.multiply(group.multiply(u, v), w) != group.multiply(u, group.multiply(v, w))
        ]
    check = selfcheck.check_dihedral_arithmetic(max_n)
    assert check.cases == sum((2 * n) ** 3 + 2 * n for n in range(2, max_n + 1))
    return [f for f in reported if "associativity" in f], expected, check


def test_dihedral_check_names_every_non_associative_triple(monkeypatch):
    # a multiply that is wrong on one pair at n = 3: the check must name
    # exactly the triples where the two bracketings differ, in order
    def broken(self, u, v):
        if self.n == 3 and u.length == v.length == 1 and u.start == v.start == "s":
            return u
        return _MULTIPLY(self, u, v)

    reported, expected, check = _associativity_reports(monkeypatch, broken, 3)
    assert expected and not check.ok
    assert reported == expected


def _st_squared_is_st(self, u, v):
    # wrong only on st*st at n = 4, where it is w0
    st = DihedralElement("s", 2)
    if self.n == 4 and u == v == st:
        return st
    return _MULTIPLY(self, u, v)


_T_T_AND_TS_ST = {
    (DihedralElement("t", 1), DihedralElement("t", 1)),
    (DihedralElement("t", 2), DihedralElement("s", 2)),
}


def _t_off_the_nucleus(self, u, v):
    # t*t and ts*st are w0 instead of e at n = 4; the two changes match up
    # under s, so (u*s)*w = u*(s*w) still holds for every u and w, and only
    # pairs through t differ
    if self.n == 4 and (u, v) in _T_T_AND_TS_ST:
        return self.element("w0")
    return _MULTIPLY(self, u, v)


def _generators_absorb(self, u, v):
    # s and t are left zeros, and right zeros for the other elements: then
    # (u*g)*w = u*(g*w) for g in {s, t}, but right multiplication by s and
    # t walks from s and t nowhere else, so only the walk sees that the
    # other triples must be compared
    if u.length == 1:
        return u
    if v.length == 1:
        return v
    return _MULTIPLY(self, u, v)


@pytest.mark.parametrize(
    "multiply",
    [_st_squared_is_st, _t_off_the_nucleus, _generators_absorb],
    ids=["st-st", "t-only", "absorbing"],
)
def test_dihedral_check_names_what_the_all_triples_loop_names(monkeypatch, multiply):
    reported, expected, check = _associativity_reports(monkeypatch, multiply, 5)
    assert expected and not check.ok
    assert reported == expected


@pytest.mark.parametrize(
    "multiply, proven",
    [
        (_MULTIPLY, True),
        (_st_squared_is_st, False),
        (_t_off_the_nucleus, False),
        (_generators_absorb, False),
    ],
    ids=["true", "st-st", "t-only", "absorbing"],
)
def test_generators_prove_associativity_only_for_the_true_product(monkeypatch, multiply, proven):
    # st-st and t-only: s and t reach every element, and a pair (u, g, w)
    # differs; absorbing: every such pair agrees, and the walk falls short
    monkeypatch.setattr(DihedralGroup, "multiply", multiply)
    group = DihedralGroup(4)
    els = group.elements()
    rows = {v: [group.multiply(v, w) for w in els] for v in els}
    assert selfcheck._associative_on_generators(group, els, rows) is proven


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
