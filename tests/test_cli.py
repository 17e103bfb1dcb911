import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from klcells import characters, classifier
from klcells.basedring import ring_from_text
from klcells.cli import _build_parser, main
from klcells.matrixmodule import canonical_module, module_from_mats


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_q5_text_table(capsys):
    code, out, _ = run_cli(capsys, "ring", "--n", "5", "--qn")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines[0].startswith("multiplication table of Q5")
    grid = "\n".join(lines)
    assert "2s+2sts" in grid  # sts * sts row
    assert grid.count("2sts") >= 2


def _products_from_structured(payload):
    constants = payload["ring"]["constants"]
    out = {}
    for x, y, z, coeff in constants:
        out.setdefault((x, y), {})[z] = coeff
    return out


def test_ring_q5_structured_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "ring", "--n", "5", "--qn", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    products = _products_from_structured(payload)
    assert products[("s", "s")] == {"s": 2}
    assert products[("s", "sts")] == {"sts": 2}
    assert products[("sts", "sts")] == {"s": 2, "sts": 2}
    assert payload["ring"]["labels"] == ["e", "s", "sts"]


def test_ring_q4_structured(capsys):
    code, out, _ = run_cli(capsys, "ring", "--n", "4", "--qn", "--format", "structured")
    products = _products_from_structured(json.loads(out))
    assert products[("sts", "sts")] == {"s": 2}


def test_ring_q6_structured(capsys):
    code, out, _ = run_cli(capsys, "ring", "--n", "6", "--qn", "--format", "structured")
    products = _products_from_structured(json.loads(out))
    assert products[("sts", "sts")] == {"s": 2, "sts": 2, "ststs": 2}
    assert products[("ststs", "ststs")] == {"s": 2}


def test_ring_full_kl(capsys):
    code, out, _ = run_cli(capsys, "ring", "--n", "3", "--full-kl")
    assert code == 0
    assert "w0" in out


def _reversed_label(label):
    # the inverse of an alternating word is the reversed word
    return label if label in ("e", "w0") else label[::-1]


@pytest.mark.parametrize("n", range(2, 7))
def test_full_kl_ring_carries_inversion(n, capsys):
    code, text, _ = run_cli(capsys, "ring", "--n", str(n), "--full-kl", "--format", "ringfile")
    assert code == 0
    ring = ring_from_text(text)
    assert [ring.labels[i] for i in ring.involution] == [
        _reversed_label(label) for label in ring.labels
    ]
    code, out, _ = run_cli(
        capsys, "ring", "--n", str(n), "--full-kl", "--format", "structured"
    )
    payload = json.loads(out)["ring"]
    assert payload["involution"] == [_reversed_label(label) for label in payload["labels"]]


def test_ring_an(capsys):
    code, out, _ = run_cli(capsys, "ring", "--n", "5", "--an")
    assert code == 0
    assert "2s" in out


def test_ring_file_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "ring", "--n", "5", "--qn", "--format", "ringfile")
    assert code == 0
    path = tmp_path / "q5.ring"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run_cli(
        capsys, "classify", "--ring-file", str(path), "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out2)
    assert payload["meta"]["ring"] == "custom"
    assert {c["status"] for c in payload["candidates"]} == {"unresolved"}
    # the candidate matrices agree with the bundled Q5 run
    code, out3, _ = run_cli(capsys, "classify", "--n", "5", "--format", "structured")
    bundled = json.loads(out3)
    assert [c["matrices"] for c in payload["candidates"]] == [
        c["matrices"] for c in bundled["candidates"]
    ]


def _reordered_ring_text(text, labels):
    """The same ring file with its basis listed in the order labels."""
    lines = text.splitlines()
    old = next(line.split()[1:] for line in lines if line.startswith("labels "))
    images = next(line.split()[1:] for line in lines if line.startswith("involution "))
    inverse = dict(zip(old, images))
    out = []
    for line in lines:
        if line.startswith("labels "):
            line = "labels " + " ".join(labels)
        elif line.startswith("involution "):
            line = "involution " + " ".join(inverse[label] for label in labels)
        out.append(line)
    return "\n".join(out) + "\n"


def _candidate_classes(payload, ring):
    """The candidates of a structured classify payload as canonical keys over
    the basis order of ring, whatever the payload's own order."""
    classes = set()
    for candidate in payload["candidates"]:
        rank = candidate["rank"]
        mats = {
            ring.index(label): tuple(
                tuple(flat[rank * i:rank * i + rank]) for i in range(rank)
            )
            for label, flat in candidate["matrices"]
        }
        classes.add(canonical_module(module_from_mats(ring, rank, mats)).key())
    return classes


@pytest.mark.parametrize(
    "n, labels, count",
    [(5, ("e", "sts", "s"), 5), (7, ("e", "sts", "s", "ststs"), 19)],
    ids=["Q5", "Q7"],
)
def test_ring_file_in_another_basis_order_classifies(n, labels, count, tmp_path, capsys):
    code, text, _ = run_cli(capsys, "ring", "--n", str(n), "--qn", "--format", "ringfile")
    assert code == 0
    ring = ring_from_text(text)
    payloads = []
    for name, source in (("plain", text), ("reordered", _reordered_ring_text(text, labels))):
        path = tmp_path / f"{name}.ring"
        path.write_text(source, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "classify", "--ring-file", str(path), "--format", "structured"
        )
        assert code == 0
        payloads.append(json.loads(out))
    plain, reordered = payloads
    assert reordered["ring"]["labels"] == list(labels)
    assert len(plain["candidates"]) == len(reordered["candidates"]) == count
    assert _candidate_classes(plain, ring) == _candidate_classes(reordered, ring)


def test_characters_text_q5(capsys):
    code, out, _ = run_cli(capsys, "characters", "--n", "5")
    assert code == 0
    assert "1-√5" in out and "1+√5" in out
    assert "special character: V3" in out


def test_characters_text_q7_is_exact(capsys):
    code, out, _ = run_cli(capsys, "characters", "--n", "7")
    assert code == 0
    rows = {line.split("|")[0].strip(): [c.strip() for c in line.split("|")[1:]]
            for line in out.splitlines() if "|" in line}
    assert rows["sts"] == ["0", "4-2λ-2λ²", "-2+2λ²", "2+2λ"]
    assert rows["ststs"] == ["0", "4-2λ²", "-2λ", "-2+2λ+2λ²"]
    assert "λ = 2cos(2π/7)" in out
    assert "all values exact; special character: V4" in out
    _, out, _ = run_cli(capsys, "characters", "--n", "7", "--format", "structured")
    payload = json.loads(out)["characters"]
    assert payload["exact"] is True
    assert payload["rows"][3]["values"][2] == {
        "text": "2+2λ", "coords": ["2", "2"], "minpoly": [-1, -2, 1, 1],
    }
    assert payload["rows"][3]["values"][1] == {"text": "2", "a": "2", "b": "0", "d": 1}


@pytest.mark.parametrize("argv", [
    [],
    ["from klcells.cli import main; main(['characters', '--n', '16'])"],
], ids=["import", "characters-n16"])
def test_numpy_is_never_imported(argv):
    code = "import sys, klcells; " + "".join(f"{line}; " for line in argv)
    code += "print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_closed_stdout_exits_one_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "klcells", "cells", "--n", "8", "--format", "structured"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_characters_structured_q4(capsys):
    code, out, _ = run_cli(capsys, "characters", "--n", "4", "--format", "structured")
    payload = json.loads(out)
    values = [
        [v["text"] for v in row["values"]] for row in payload["characters"]["rows"]
    ]
    assert values == [["1", "0", "0"], ["1", "2", "-2"], ["1", "2", "2"]]
    assert payload["characters"]["exact"] is True
    golden = json.loads(out)["characters"]["rows"][1]["values"][2]
    assert golden == {"text": "-2", "a": "-2", "b": "0", "d": 1}


def test_characters_structured_q5_encodes_the_golden_ratio_pair(capsys):
    _, out, _ = run_cli(capsys, "characters", "--n", "5", "--format", "structured")
    rows = json.loads(out)["characters"]["rows"]
    assert rows[1]["values"][2] == {"text": "1-√5", "a": "1", "b": "-1", "d": 5}
    assert rows[2]["values"][2] == {"text": "1+√5", "a": "1", "b": "1", "d": 5}


def test_cells_text(capsys):
    code, out, _ = run_cli(capsys, "cells", "--n", "5")
    assert code == 0
    assert "cells of the Kazhdan-Lusztig ring of D_10" in out
    assert "cells of the subquotient ring Q5" in out
    assert "{s, t, st, ts, sts, tst, stst, tsts}" in out


def test_cells_structured(capsys):
    code, out, _ = run_cli(capsys, "cells", "--n", "4", "--format", "structured")
    payload = json.loads(out)
    full = payload["full_ring"]
    assert ["e"] in full["two_sided"]
    assert ["w0"] in full["two_sided"]
    assert len(full["left"]) == 4
    sub = payload["subquotient"]
    assert sub["two_sided"] == [["e"], ["s", "sts"]]
    assert sub["two_sided_order"] == [[0, 1]]


def test_classify_q5_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "5")
    assert code == 0
    assert "realized classes: 2" in out
    assert "regression check: ok" in out
    assert "status: excluded" in out


NOT_CERTIFIED = (
    "(completeness not certified: a --bound, --max-rank, --rank or "
    "--no-filter s-rigidity narrows the run)"
)


@pytest.mark.parametrize(
    "argv, line",
    [
        (("--n", "5"),
         "entry bound: 10 (proven per-entry caps; no branch hit an unproven bound)"),
        # one raw search at one rank leaves every other rank unsearched
        (("--n", "5", "--rank", "2"), f"entry bound: 16 {NOT_CERTIFIED}"),
        # the raw run takes its ranks from the s-rigid screen (1 and 2), but
        # raw modules exist at ranks 3 and 4
        (("--n", "4", "--no-filter", "s-rigidity"), f"entry bound: 8 {NOT_CERTIFIED}"),
        # s-rigidity fixes every entry of Q3
        (("--n", "3"),
         "entry bound: 0 (proven per-entry caps; no branch hit an unproven bound)"),
        (("--n", "4", "--no-filter", "s-rigidity", "--bound", "2"),
         "entry bound: 2 (a branch pressed against the bound; completeness not certified)"),
        # the bound lies below the sts cap 4 and loses (0,1,4,0) unflagged
        (("--n", "4", "--bound", "3"), f"entry bound: 3 {NOT_CERTIFIED}"),
        (("--n", "5", "--bound", "3"), f"entry bound: 3 {NOT_CERTIFIED}"),
        (("--n", "5", "--bound", "10"),
         "entry bound: 10 (proven per-entry caps; no branch hit an unproven bound)"),
        # the rank-5 and rank-6 profiles, with 3 candidates, are never searched
        (("--n", "6", "--max-rank", "4"), f"entry bound: 24 {NOT_CERTIFIED}"),
        # 7 is the derived rank cap of Q6
        (("--n", "6", "--max-rank", "7"),
         "entry bound: 24 (proven per-entry caps; no branch hit an unproven bound)"),
    ],
    ids=["proven-caps", "rank-override", "raw", "no-free-entry", "touched",
         "below-cap-q4", "below-cap-q5", "at-cap", "below-rank-cap", "at-rank-cap"],
)
def test_classify_entry_bound_line(capsys, argv, line):
    code, out, _ = run_cli(capsys, "classify", *argv)
    assert code == 0
    assert line in out.splitlines()


def test_bound_at_every_cap_keeps_the_regression_check(capsys):
    # a --bound at or above every proven cap runs the identical search
    code, out, _ = run_cli(capsys, "classify", "--n", "5", "--bound", "10")
    assert code == 0
    assert "realized classes: 2 (regression check: ok)" in out.splitlines()


def test_classify_q6_default_rank_smoke(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "6")
    assert code == 0
    lines = out.splitlines()
    assert "entry bound: 24 (proven per-entry caps; no branch hit an unproven bound)" in lines
    assert sum(line.startswith("rank ") for line in lines) == 31


def test_classify_q4_structured(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "4", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["realized_classes"] == 3
    assert payload["meta"]["matches_expected"] is True
    ranks = sorted(c["rank"] for c in payload["candidates"])
    assert ranks == [1, 1, 2, 2]
    extra = [c for c in payload["candidates"] if c["status"] == "realized-extra"]
    assert len(extra) == 1 and extra[0]["rank"] == 1
    assert extra[0]["matrices"] == [["s", [2]], ["sts", [2]]]
    assert extra[0]["multiplicities"] == [0, 0, 1]


def test_classify_no_filter_gives_more_candidates(capsys):
    _, out_default, _ = run_cli(
        capsys, "classify", "--n", "4", "--format", "structured"
    )
    _, out_raw, _ = run_cli(
        capsys,
        "classify", "--n", "4", "--no-filter", "s-rigidity", "--format", "structured",
    )
    n_default = len(json.loads(out_default)["candidates"])
    n_raw = len(json.loads(out_raw)["candidates"])
    assert n_raw > n_default


def test_classify_regression_guard_exit_code(capsys, monkeypatch):
    # corrupt the bundled expectations: the CLI must exit non-zero
    bad = dict(classifier.EXPECTED_CANDIDATES)
    bad["Q5"] = bad["Q5"][:-1]
    monkeypatch.setattr(classifier, "EXPECTED_CANDIDATES", bad)
    code, out, _ = run_cli(capsys, "classify", "--n", "5")
    assert code == 1
    assert "MISMATCH" in out


def test_structured_output_is_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "classify", "--n", "4", "--format", "structured"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for command in (
        ["ring", "--n", "5", "--qn", "--format", "structured"],
        ["characters", "--n", "5", "--format", "structured"],
        ["cells", "--n", "5", "--format", "structured"],
    ):
        _, first, _ = run_cli(capsys, *command)
        _, second, _ = run_cli(capsys, *command)
        assert first == second


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ring", "--n", "2", "--qn"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # neither --n nor --ring-file
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cells", "--n", "2"],
        ["characters", "--n", "2"],
        ["ring", "--full-kl", "--n", "0"],
        ["classify", "--n", "5", "--max-rank", "0"],
        ["classify", "--n", "5", "--bound", "-1"],
        ["verify", "--max-n", "1"],
    ],
    ids=["cells-n2", "characters-n2", "full-kl-n0", "max-rank-0", "bound-negative",
         "verify-max-n1"],
)
def test_out_of_range_arguments_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_max_rank_default_is_the_classifier_default():
    # both default to the derived rank cap
    args = _build_parser().parse_args(["classify", "--n", "5"])
    assert args.max_rank is None
    assert inspect.signature(classifier.classify).parameters["max_rank"].default is None


@pytest.mark.parametrize("max_rank, check", [("4", "ok"), ("9", "ok"), ("3", "not applicable")])
def test_max_rank_at_or_above_the_rank_cap_keeps_the_regression_check(capsys, max_rank, check):
    # Q5's rank cap is 4; a lower --max-rank is a different run
    code, out, _ = run_cli(capsys, "classify", "--n", "5", "--max-rank", max_rank)
    assert code == 0
    assert out.splitlines()[-1] == f"realized classes: 2 (regression check: {check})"


def test_unknown_filter_exits_two(capsys):
    code, _, err = run_cli(capsys, "classify", "--n", "4", "--filter", "nope")
    assert code == 2
    assert "unknown filter" in err


def test_unknown_disabled_filter_exits_two(capsys):
    code, _, err = run_cli(capsys, "classify", "--n", "5", "--no-filter", "nope")
    assert code == 2
    assert "unknown filter" in err


def test_disabling_transitivity_exits_two(capsys):
    code, out, err = run_cli(capsys, "classify", "--n", "4", "--no-filter", "transitive")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: transitivity is always applied; it cannot be disabled"]


@pytest.mark.parametrize("name", ["faithful", "special-mult-one"])
def test_disabling_a_filter_that_is_not_applied_exits_two(capsys, name):
    code, out, err = run_cli(capsys, "classify", "--n", "4", "--no-filter", name)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: filter {name!r} is not applied; it cannot be disabled"]


@pytest.mark.parametrize(
    "argv, filters",
    [
        (("--filter", "faithful", "--no-filter", "faithful"), ["transitive", "s-rigidity"]),
        (("--no-filter", "s-rigidity"), ["transitive"]),
        (("--no-filter", "s-rigidity", "--filter", "faithful"), ["transitive", "faithful"]),
    ],
)
def test_disabling_an_applied_filter_is_accepted(capsys, argv, filters):
    code, out, _ = run_cli(capsys, "classify", "--n", "4", *argv, "--format", "structured")
    assert code == 0
    assert json.loads(out)["meta"]["filters"] == filters


def test_naming_the_default_filter_keeps_the_regression_check(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "4", "--filter", "s-rigidity")
    assert code == 0
    assert out.splitlines()[-1] == "realized classes: 3 (regression check: ok)"


def test_text_classify_builds_its_character_table_once(capsys, monkeypatch):
    calls = []
    closed_form_rows = characters._closed_form_rows

    def counting(ring):
        calls.append(ring)
        return closed_form_rows(ring)

    monkeypatch.setattr(characters, "_closed_form_rows", counting)
    characters.character_table.cache_clear()
    code, out, _ = run_cli(capsys, "classify", "--n", "5")
    assert code == 0
    assert "decomposition: " in out
    assert len(calls) == 1


def test_transitive_filter_is_listed_once(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "5", "--filter", "transitive")
    assert code == 0
    assert "filters: transitive, s-rigidity" in out.splitlines()
    code, out, _ = run_cli(
        capsys, "classify", "--n", "5", "--filter", "transitive", "--format", "structured"
    )
    assert json.loads(out)["meta"]["filters"] == ["transitive", "s-rigidity"]


def test_missing_ring_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "classify", "--ring-file", "/nonexistent.ring")
    assert code == 2


def test_malformed_ring_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("labels e s\nidentity q\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", "--ring-file", str(path))
    assert code == 2


# rings that ring_from_text accepts but classify cannot search: non-commutative
# (ZD_8), not split semisimple (x * x = 0), characters in a cubic field that
# are not those of a Q_n (the fusion ring of the even part of SU(2)_5, whose
# values lie in Q(2cos(2pi/7))), and characters whose values lie in Q(sqrt 2)
# and Q(sqrt 3) at once
UNSUPPORTED_RINGS = {
    "non-commutative": ("ring", "--n", "4", "--full-kl", "--format", "ringfile"),
    "nilpotent": "labels e x\nidentity e\nc e e e 1\nc e x x 1\nc x e x 1\n",
    "cubic-not-qn": (
        "labels e x y\nidentity e\n"
        "c e e e 1\nc e x x 1\nc e y y 1\nc x e x 1\nc y e y 1\n"
        "c x x e 1\nc x x x 1\nc x x y 1\nc x y x 1\nc x y y 1\n"
        "c y x x 1\nc y x y 1\nc y y e 1\nc y y x 1\n"
    ),
    "mixed-field": (
        "labels e x y z\nidentity e\n"
        "c e e e 1\nc e x x 1\nc e y y 1\nc e z z 1\n"
        "c x e x 1\nc y e y 1\nc z e z 1\n"
        "c x x e 2\nc y y e 3\nc z z e 6\n"
        "c x y z 1\nc y x z 1\nc x z y 2\nc z x y 2\nc y z x 3\nc z y x 3\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(UNSUPPORTED_RINGS))
def test_unsupported_ring_file_exits_two(kind, tmp_path, capsys):
    source = UNSUPPORTED_RINGS[kind]
    if isinstance(source, tuple):
        code, source, _ = run_cli(capsys, *source)
        assert code == 0
    path = tmp_path / f"{kind}.ring"
    path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", "--ring-file", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_positivity_failure_exits_one_without_traceback(capsys, monkeypatch):
    from klcells import cli
    from klcells.klring import PositivityError

    def broken(n):
        raise PositivityError(f"negative structure constant at n={n}")

    monkeypatch.setattr(cli, "structure_constants", broken)
    code, out, err = run_cli(capsys, "cells", "--n", "5")
    assert code == 1
    assert out == ""
    assert err == "error: negative structure constant at n=5\n"


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "PASS quadratic field arithmetic axioms (200 cases)\n" in out


def test_verify_detects_corrupted_annotations(capsys, monkeypatch):
    bad = dict(classifier.ANNOTATIONS)
    bad_q5 = dict(bad["Q5"])
    key = (2, ((2, 0, 0, 2), (0, 2, 2, 2)))
    bad_q5[key] = ("excluded", "corrupted")
    bad["Q5"] = bad_q5
    monkeypatch.setattr(classifier, "ANNOTATIONS", bad)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 1
    assert "FAIL" in out


def test_verify_structured(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--format", "structured")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(check["ok"] for check in payload["checks"])
    assert all(check["cases"] > 0 for check in payload["checks"])
    assert payload["checks"][0]["cases"] == sum((2 * n) ** 3 + 2 * n for n in (2, 3))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
