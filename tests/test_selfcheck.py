import pytest

from klcells import classifier
from klcells import selfcheck


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


def test_individual_checks_report_names():
    result = selfcheck.check_quadfield()
    assert result.ok and result.name
    result = selfcheck.check_reference_tables()
    assert result.ok
