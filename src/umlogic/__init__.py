"""Graded modal logic of similarity and stability over finite ultrametric spaces."""

from .axioms import SCHEMA_NAMES, SchemaError, instantiate_axiom, match_axiom
from .constructions import (
    PointMap,
    bilipschitz_bounds,
    check_bounded_morphism,
    check_frame_morphism,
    disjoint_union,
    epsilon_subspace,
    scale_space,
    union_point,
)
from .dendrogram import dendrogram_dot
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    GradeError,
    Implies,
    Not,
    Or,
    as_grade,
    atoms,
    desugar,
    format_formula,
    grade_set,
    subformulas,
)
from .harness import HarnessConfig, preservation_harness
from .modelio import (
    InvalidSpaceError,
    ModelFormatError,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .parser import ParseError, parse
from .proofs import Proof, ProofLine, check_proof, load_proof, proof_from_json
from .semantics import (
    DegreeReport,
    TruthSet,
    closure_eps,
    holds,
    interior_eps,
    plausibility_degree,
    stability_degree,
    truthset,
)
from .space import (
    Model,
    UltrametricSpace,
    UnknownPointError,
    Violation,
    cantor_space,
    sequence_distance,
    validate_space,
)
from .validity import EnumerationCapExceeded, valid_in_model

__version__ = "0.1.0"
