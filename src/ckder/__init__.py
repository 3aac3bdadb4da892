"""Exact verification toolkit for a family of rank-8 Jordan
superalgebras over small prime fields.

The package builds the algebras from their structure constants, solves
for derivation algebras with exact modular linear algebra, and checks
the structural identities (gradings, symmetry action, coordinate
products, Lie realizations) that pin the family down.
"""

__version__ = "1.0.0"

from .field import FieldError, FieldSpec, is_odd_prime
from .linalg import (Subspace, amod, inverse, kernel, matrix_from_json,
                     matrix_to_json, rank, rref, solve_right)
from .superalg import (LinearMap, SuperAlgebra, Verdict, annihilator,
                       center_even, check_jordan_super, check_super_lie,
                       check_supercommutative, inner_derivation,
                       is_automorphism, is_derivation, is_homomorphism,
                       is_isomorphism, super_commutator, vector_parity)
from .constructions import (ChengKac, DifferentialAlgebra, KantorDouble,
                            cheng_kac, differential_from_json,
                            differential_to_json, kantor_double,
                            map_inverse, odd_part_squares_to_even,
                            quadratic_jordan, truncated_poly,
                            w_to_v_change)
from .derivations import (DerivationSpace, GradedDerivations,
                          derivation_algebra, extend_even_der,
                          extend_odd_eta, grade_derivations,
                          inner_derivation_algebra, lift_even_der,
                          odd_der_char3, odd_der_eta, restrict_to_k,
                          stable_der_double)
from .symmetry import (CoordinateAlgebra, S4Action, build_s4,
                       conjugate_der, coordinate_algebra, coxeter_witness,
                       group_closure, phi_iso, phi_star)
from .tkk import (ExplicitIso, LieSuperAlgebra, TitsAlgebra, TkkAlgebra,
                  check_3grading, der_as_tkk, find_sl2_triple,
                  lie_from_derivations, sl2_identification, so3,
                  tits_construction, tkk_3graded)
from .battery import RunContext, run_battery
