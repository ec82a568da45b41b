"""Computational laboratory for finite p-groups of small nilpotency class.

Builds concrete coordinate models of several families of p-groups (upper
unitriangular matrix groups and relatives), computes their structural
invariants, checks commutator identities and presentation data against
independent formula oracles, and decides isomorphism and isoclinism for
desk-scale orders.
"""

__version__ = "0.1.0"

from .fields import FieldSpec, FieldError, find_irreducible, structure_constants
from .engine import CapExceeded, FiniteGroup, GroupError, Subgroup
from .constructions import build_group, parse_group_spec
from .structure import (
    TheoremViolation,
    verify_class3_profile,
    verify_structural_suite,
    recognize_u3,
    lift_generator_frame,
    central_shift_frame,
    extract_presentation_params,
    verify_kappa_commutator_relations,
)
from .isoclinism import (
    SearchConfig,
    commutation_map,
    are_isomorphic,
    are_isoclinic,
    verify_isomorphism,
    verify_isoclinism_witness,
    conjugate_type_isoclinism_consistency,
)

__all__ = [
    "__version__",
    "FieldSpec",
    "FieldError",
    "find_irreducible",
    "structure_constants",
    "CapExceeded",
    "FiniteGroup",
    "GroupError",
    "Subgroup",
    "build_group",
    "parse_group_spec",
    "TheoremViolation",
    "verify_class3_profile",
    "verify_structural_suite",
    "recognize_u3",
    "lift_generator_frame",
    "central_shift_frame",
    "extract_presentation_params",
    "verify_kappa_commutator_relations",
    "SearchConfig",
    "commutation_map",
    "are_isomorphic",
    "are_isoclinic",
    "verify_isomorphism",
    "verify_isoclinism_witness",
    "conjugate_type_isoclinism_consistency",
]
