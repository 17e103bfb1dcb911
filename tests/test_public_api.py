"""The package's public surface, pinned so that a change to it is deliberate."""

import importlib

import klcells

PUBLIC_NAMES = [
    "ANNOTATIONS",
    "BUNDLED_RING_IDS",
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
    "TruncationError",
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
    "named_filters",
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
    "subring_an",
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
