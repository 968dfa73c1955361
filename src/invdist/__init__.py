"""Exact symbolic verification of an invariant-distribution construction:
a twisted matrix algebra, its upper-triangular group, orbit stratifications
of projective space, and families of invariant homogeneous distributions.
"""

__version__ = "0.1.0"

from .records import CheckRecord, PASS, FAIL, SKIPPED
from .scalars import (AffineExponent, GaussianRational, Scalar,
                      rank_over_function_field)
from .clifford import (REpsElement, Toeplitz, group_inverse, h_element,
                       h_phase, h_shift)
from .weyl import Substitution, WeylOp, conjugate_op, substitution_from_group
from .distributions import DistExpr, SupportDescriptor, independence_rank
from .constructions import (FamilySpec, build_family, build_vector_field,
                            verify_independence, verify_invariance,
                            verify_lemma_d, verify_support_filtration)
from .orbits import (ProjPoint, complex_orbit_check, enumerate_strata,
                     orbit_dimension, stratum_of, transitivity_witness)

__all__ = [
    "CheckRecord", "PASS", "FAIL", "SKIPPED",
    "AffineExponent", "GaussianRational", "Scalar", "rank_over_function_field",
    "REpsElement", "Toeplitz",
    "group_inverse", "h_element", "h_phase", "h_shift",
    "Substitution", "WeylOp", "conjugate_op", "substitution_from_group",
    "DistExpr", "SupportDescriptor", "independence_rank",
    "FamilySpec", "build_family", "build_vector_field",
    "verify_independence", "verify_invariance", "verify_lemma_d",
    "verify_support_filtration",
    "ProjPoint", "complex_orbit_check", "enumerate_strata",
    "orbit_dimension", "stratum_of", "transitivity_witness",
]
