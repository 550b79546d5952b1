"""Exact minimal-index computations in the simplest quartic fields.

The family is generated by roots of x^4 - t*x^3 - 6*x^2 + t*x + 1 for
t > 0, t != 3.  The package computes integral bases, element indices by
two independent routes, complete solutions of the associated Thue
equations for power-of-two right sides, and the minimal index of each
field together with all elements attaining it.
"""

from .fieldmodel import (FamilyParameter, V2Class,
                         NonPositiveParameter, ExcludedParameter,
                         OddSquareFactor, ParameterError, validate_parameter)
from .elements import (AlgebraicInt, PowerRep, NotIntegral, canonical_triple,
                       from_power_rep, index_oracle, multiply, sigma, to_power_rep)
from .indexcore import (ResolventForm, TernaryForm, family_forms,
                        index_via_forms, rhs_decompositions)
from .thue import (BinaryQuarticForm, Rigor, SolutionSet, UnsupportedW,
                   family_form, solve_power_of_two)
from .conic import DegeneratePoint, Parametrization, parametrize, thue_reduction
from .driver import (CaseTwoTriple, GaloisImage, Hit, MinimalIndexResult, VerificationError,
                     branch_candidates, brute_force_minimal, enumerate_case2_triples, find_point,
                     local_sieve, minimal_index)

__version__ = "0.1.0"
