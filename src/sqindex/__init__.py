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
                       char_poly, from_power_rep, index_oracle, multiply,
                       to_power_rep)
from .indexcore import (QuarticCoeffs, ResolventForm, TernaryForm,
                        build_forms, family_coeffs, family_forms,
                        index_via_forms, rhs_decompositions)
from .thue import (BinaryQuarticForm, Rigor, SolutionSet, UnsupportedW,
                   base_solutions, family_form, solve_power_of_two)
from .conic import (DegeneratePoint, Parametrization, find_point, parametrize,
                    thue_reduction)
from .driver import (CaseTwoTriple, Hit, MinimalIndexResult,
                     brute_force_minimal, case1_candidates, case2_candidates,
                     enumerate_case2_triples, minimal_index, minimal_index_for)

__version__ = "0.1.0"
