"""Exact computer algebra for two infinite-dimensional ternary Lie algebras.

The algebra A has basis {L_r, M_r | r in Z} with L_r L_s = L_{r+s},
M_r M_s = M_{r+s}, L_r M_s = 0.  Two ternary brackets turn A into a
3-Lie algebra: a weighted bracket built from a derivation d_k and a
linear functional, and the bracket built from the grading derivation
and the family-swapping involution.  This package verifies, with zero
numerical error at configurable window scale, every identity, table,
realization and representation-theoretic claim made about them.
"""

# operators first: it is the largest module, so when imports compile from
# source its compile runs before the other modules are resident, which
# keeps the peak memory of a fresh process lower
from .operators import Operator, op_from_ad  # noqa: I001
from .brackets import (
    OMEGA,
    DkInduced,
    FixedThird,
    FixedThirdL,
    FixedThirdM,
    FKBracket,
    OmegaBracket,
    lie_bracket,
    tri_bracket,
)
from .elements import (
    BasisVector,
    ConstantFunctional,
    Element,
    FiniteSupportFunctional,
    L,
    M,
    PolynomialFunctional,
    d_k,
    delta,
    functional_eval,
    omega,
    window_basis,
)
from .nambu import FKRealization, OmegaRealization, SymFunction, nambu_bracket, partial, realize
from .parsing import parse_beta, parse_element
from .report import Window, VerdictReport

__version__ = "0.1.0"

__all__ = [
    "BasisVector",
    "ConstantFunctional",
    "DkInduced",
    "Element",
    "FKBracket",
    "FKRealization",
    "FiniteSupportFunctional",
    "FixedThird",
    "FixedThirdL",
    "FixedThirdM",
    "L",
    "M",
    "OMEGA",
    "OmegaBracket",
    "OmegaRealization",
    "Operator",
    "PolynomialFunctional",
    "SymFunction",
    "VerdictReport",
    "Window",
    "d_k",
    "delta",
    "functional_eval",
    "lie_bracket",
    "nambu_bracket",
    "omega",
    "op_from_ad",
    "parse_beta",
    "parse_element",
    "partial",
    "realize",
    "tri_bracket",
    "window_basis",
]
