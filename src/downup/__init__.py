"""Generalized down-up algebras via their Groebner defining relations.

Exact-arithmetic construction and certification of the three-relation
family deforming U(sl2): Groebner/PBW certificates, solvable polynomial
algebra arithmetic, associated graded and homogenized presentations,
Hilbert series and Gelfand-Kirillov dimension.
"""

from .errors import (CertificationError, DownupError, HypothesisError,
                     InputError)
from .freealg import (FreePoly, RelationSet, WeightedOrder, complete,
                      count_normal_words, format_poly, is_groebner, leading,
                      leading_homogeneous, normal_form)
from .gdu import (GDUAlgebra, GDUParams, PRESETS, WeightScheme, build,
                  check_pbw, preset, to_solvable)
from .graded import (HomogenizedAlgebra, MonomialAlgebra, assoc_graded,
                     hilbert, homogenize_algebra, homogenize_poly, rees_dims,
                     quadratic_check, solvable_homogenized, ufn_growth)
from .solvable import (CommutationRule, PBWPoly, SolvableAlgebra,
                       left_buchberger, nf_left, verify_ordering_axioms,
                       verify_solvable)

__all__ = [
    "CertificationError", "DownupError", "HypothesisError", "InputError",
    "FreePoly", "RelationSet", "WeightedOrder", "complete",
    "count_normal_words", "format_poly", "is_groebner", "leading",
    "leading_homogeneous", "normal_form",
    "GDUAlgebra", "GDUParams", "PRESETS", "WeightScheme", "build",
    "check_pbw", "preset", "to_solvable",
    "HomogenizedAlgebra", "MonomialAlgebra", "assoc_graded", "hilbert",
    "homogenize_algebra", "homogenize_poly", "rees_dims", "quadratic_check",
    "solvable_homogenized", "ufn_growth",
    "CommutationRule", "PBWPoly", "SolvableAlgebra", "left_buchberger",
    "nf_left", "verify_ordering_axioms", "verify_solvable",
]

__version__ = "0.1.0"
