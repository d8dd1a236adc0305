"""Simplification of generating sets of subfields of Q(x1, ..., xn)."""

from .arith import (FAIL, NonCoprimeModuli, PrimeField, ZeroInverse, crt_pair,
                    inv, production_prime, rational_reconstruct)
from .poly import (DEGREVLEX, LEX, QQ, DivisionByZero, MonomialOrder,
                   MultiPoly, RationalFunction, Ring, RingMismatch, gcd_q,
                   lcm_q)
from .groebner import (ExponentOverflow, GroebnerTrace, ReducedGB, gb_apply,
                       gb_learn, groebner)
from .interp import (Blackbox, admissible_ratio, ben_or_tiwari,
                     cauchy_interpolate, estimate_degrees, interpolate_rational)
from .oms import (GeneratorSet, CoefficientReport, EvaluationBudgetExceeded,
                  gb_coefficients, gb_ring, specialize_eoms)
from .fields import (MembershipContext, UnluckyPoint, contains, fields_equal,
                     minimize, polynomial_generators)
from .simplify import (SimplificationReport, SimplifyConfig, VerificationFailed,
                       reconstruct_candidates, simplicity_compare,
                       simplicity_key, simplify)

__version__ = "0.1.0"
