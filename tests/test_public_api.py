"""The package's public surface, pinned so that a change to it is deliberate."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import klcells
from klcells import characters, klring
from klcells.basedring import RingViolation
from klcells.selfcheck import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "ANNOTATIONS",
    "BasedRing",
    "Candidate",
    "CellPartition",
    "CharacterError",
    "CharacterTable",
    "ClassificationReport",
    "ClassifierError",
    "DecompositionError",
    "DihedralElement",
    "DihedralGroup",
    "EXPECTED_CANDIDATES",
    "FieldElement",
    "FieldMismatchError",
    "KLStructureConstants",
    "MatrixModule",
    "NonCommutativeError",
    "NonRealRootsError",
    "PositivityError",
    "QuadNum",
    "RingError",
    "RingFormatError",
    "RingReport",
    "SearchOutcome",
    "SpecialCharacterError",
    "SuiteReport",
    "__version__",
    "bruteforce_matrix_modules",
    "bundled_ring",
    "canonical_module",
    "character_table",
    "classify",
    "compute_cells",
    "decompose",
    "feasible_rank_profiles",
    "full_kl_ring",
    "is_transitive",
    "module_from_mats",
    "rigid_generator",
    "ring_from_text",
    "ring_to_text",
    "run_suite",
    "satisfies_ring_relations",
    "solve_matrix_modules",
    "solve_quadratic_monic",
    "special_character",
    "structure_constants",
    "subquotient_qn",
    "trivial_module",
    "verify",
]

MODULES = [
    "basedring",
    "characters",
    "classifier",
    "dihedral",
    "klring",
    "matrixmodule",
    "quadfield",
    "selfcheck",
]


def test_package_all_is_pinned():
    assert sorted(klcells.__all__) == PUBLIC_NAMES
    assert all(hasattr(klcells, name) for name in PUBLIC_NAMES)


def test_every_module_all_resolves():
    for name in MODULES:
        module = importlib.import_module(f"klcells.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)


def test_rigid_generator_imports_from_the_classifier_too():
    from klcells.basedring import rigid_generator
    from klcells.classifier import rigid_generator as from_classifier

    assert from_classifier is rigid_generator is klcells.rigid_generator


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # both are slow to import and pull in ast, dis and tokenize; a fresh
    # interpreter is needed because the test runner itself loads them
    code = (
        "import sys, klcells; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _q3_table():
    return characters.character_table.__wrapped__(klcells.subquotient_qn(3))


# each factory builds a new record on every call; the field is one to assign
Q = klcells.subquotient_qn
RECORDS = {
    "BasedRing": (lambda: Q.__wrapped__(3), "name"),
    "RingViolation": (lambda: RingViolation("shape", (0, 1), "row of wrong length"), "axiom"),
    "RingReport": (lambda: klcells.verify(Q(4)), "ok"),
    "CharacterTable": (_q3_table, "rows"),
    "KLStructureConstants": (lambda: klring.structure_constants.__wrapped__(3), "c"),
    "CellPartition": (lambda: klcells.compute_cells(("e", "s"), Q(3).c), "left"),
    "MatrixModule": (lambda: klcells.trivial_module(Q(3)), "rank"),
    "SearchOutcome": (lambda: klcells.solve_matrix_modules(Q(4), 1), "modules"),
    "Candidate": (lambda: klcells.classify("Q3").candidates[0], "status"),
    "ClassificationReport": (lambda: klcells.classify("Q3"), "candidates"),
    "CheckResult": (lambda: CheckResult("x", True, 3), "ok"),
    "SuiteReport": (lambda: klcells.SuiteReport((CheckResult("x", True, 3),)), "results"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    factory, field = RECORDS[name]
    record, again = factory(), factory()
    assert type(record).__name__ == name
    assert record is not again
    assert record == again and hash(record) == hash(again)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == again
    # every record is a named tuple: equal to, and hashed like, its fields
    assert isinstance(record, tuple)
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({shown})"


def test_record_reprs_are_pinned():
    q3 = klcells.subquotient_qn(3)
    assert repr(q3) == (
        "BasedRing(labels=('e', 's'), c=(((1, 0), (0, 1)), ((0, 1), (0, 2))), "
        "identity=0, involution=(0, 1), name='Q3')"
    )
    assert repr(klcells.trivial_module(q3)) == (
        "MatrixModule(labels=('e', 's'), identity=0, rank=1, mats=(((1,),), ((0,),)))"
    )
    assert repr(CheckResult("x", True, 3)) == "CheckResult(name='x', ok=True, cases=3, detail='')"
    assert repr(klcells.SuiteReport((CheckResult("y", False, 0, "no case"),))) == (
        "SuiteReport(results=(CheckResult(name='y', ok=False, cases=0, detail='no case'),))"
    )
    assert repr(klcells.verify(q3)) == "RingReport(ok=True, violations=())"
    assert repr(klcells.character_table(q3)) == (
        f"CharacterTable(ring={q3!r}, rows=((QuadNum(Fraction(1, 1), Fraction(0, 1), 1), "
        "QuadNum(Fraction(0, 1), Fraction(0, 1), 1)), (QuadNum(Fraction(1, 1), "
        "Fraction(0, 1), 1), QuadNum(Fraction(2, 1), Fraction(0, 1), 1))))"
    )


def test_rings_compare_and_hash_by_every_field_name_included():
    q3 = klcells.subquotient_qn(3)
    renamed = klcells.BasedRing(q3.labels, q3.c, q3.identity, q3.involution, name="other")
    # a ring hashes like the plain tuple of its fields, which it equals
    assert renamed != q3 and hash(renamed) == hash((*q3[:4], "other"))
    # the involution defaults to the identity permutation
    assert klcells.BasedRing(q3.labels, q3.c, name="Q3") == q3


def test_character_table_caches_survive_immutability():
    table = _q3_table()
    assert table._row_sums is table._row_sums
    assert table == _q3_table()
