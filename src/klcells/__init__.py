"""Exact Kazhdan-Lusztig combinatorics of dihedral groups.

Builds the integral group ring of D_2n in its Kazhdan-Lusztig basis, the
subquotient rings Q_n and subrings A_n it induces, their exact character
tables over the real fields Q(2cos(2pi/n)), and the exhaustive classification of
transitive non-negative-integer matrix modules over them.
"""

from .basedring import (
    BasedRing,
    RingError,
    RingFormatError,
    RingReport,
    TruncationError,
    full_kl_ring,
    rigid_generator,
    ring_from_text,
    ring_to_text,
    subquotient_qn,
    subring_an,
    verify,
)
from .characters import (
    CharacterError,
    CharacterTable,
    DecompositionError,
    NonCommutativeError,
    SpecialCharacterError,
    character_table,
    decompose,
    special_character,
)
from .classifier import (
    ANNOTATIONS,
    BUNDLED_RING_IDS,
    Candidate,
    ClassificationReport,
    ClassifierError,
    EXPECTED_CANDIDATES,
    SearchOutcome,
    bruteforce_matrix_modules,
    bundled_ring,
    classify,
    feasible_rank_profiles,
    named_filters,
    solve_matrix_modules,
)
from .dihedral import DihedralElement, DihedralGroup
from .klring import (
    CellPartition,
    KLStructureConstants,
    PositivityError,
    compute_cells,
    structure_constants,
)
from .matrixmodule import (
    MatrixModule,
    canonical_module,
    is_transitive,
    module_from_mats,
    satisfies_ring_relations,
    trivial_module,
)
from .quadfield import (
    FieldElement,
    FieldMismatchError,
    NonRealRootsError,
    QuadNum,
    solve_quadratic_monic,
)
from .selfcheck import SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dihedral
    "DihedralElement",
    "DihedralGroup",
    # klring
    "CellPartition",
    "KLStructureConstants",
    "PositivityError",
    "compute_cells",
    "structure_constants",
    # quadfield
    "FieldElement",
    "FieldMismatchError",
    "NonRealRootsError",
    "QuadNum",
    "solve_quadratic_monic",
    # basedring
    "BasedRing",
    "RingError",
    "RingFormatError",
    "RingReport",
    "TruncationError",
    "full_kl_ring",
    "rigid_generator",
    "ring_from_text",
    "ring_to_text",
    "subquotient_qn",
    "subring_an",
    "verify",
    # characters
    "CharacterError",
    "CharacterTable",
    "DecompositionError",
    "NonCommutativeError",
    "SpecialCharacterError",
    "character_table",
    "decompose",
    "special_character",
    # matrix modules and the classifier
    "MatrixModule",
    "canonical_module",
    "is_transitive",
    "module_from_mats",
    "satisfies_ring_relations",
    "trivial_module",
    "ANNOTATIONS",
    "BUNDLED_RING_IDS",
    "Candidate",
    "ClassificationReport",
    "ClassifierError",
    "EXPECTED_CANDIDATES",
    "SearchOutcome",
    "bruteforce_matrix_modules",
    "bundled_ring",
    "classify",
    "feasible_rank_profiles",
    "named_filters",
    "solve_matrix_modules",
    # verification
    "SuiteReport",
    "run_suite",
]
