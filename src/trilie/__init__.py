"""Exact computer algebra for two infinite-dimensional ternary Lie algebras.

The algebra A has basis {L_r, M_r | r in Z} with L_r L_s = L_{r+s},
M_r M_s = M_{r+s}, L_r M_s = 0.  Two ternary brackets turn A into a
3-Lie algebra: a weighted bracket built from a derivation d_k and a
linear functional, and the bracket built from the grading derivation
and the family-swapping involution.  This package verifies, with zero
numerical error at configurable window scale, every identity, table,
realization and representation-theoretic claim made about them.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it.  ``import trilie`` loads no
# submodule: each name is imported on first access (PEP 562), so a caller
# compiles only the modules it reads.
_SOURCES = {
    "BasisVector": "elements",
    "ConstantFunctional": "elements",
    "DkInduced": "brackets",
    "Element": "elements",
    "FKBracket": "brackets",
    "FKRealization": "nambu",
    "FiniteSupportFunctional": "elements",
    "FixedThird": "brackets",
    "FixedThirdL": "brackets",
    "FixedThirdM": "brackets",
    "L": "elements",
    "M": "elements",
    "OMEGA": "brackets",
    "OmegaBracket": "brackets",
    "OmegaRealization": "nambu",
    "Operator": "operators",
    "PolynomialFunctional": "elements",
    "SymFunction": "nambu",
    "VerdictReport": "report",
    "Window": "report",
    "d_k": "elements",
    "delta": "elements",
    "functional_eval": "elements",
    "lie_bracket": "brackets",
    "nambu_bracket": "nambu",
    "omega": "elements",
    "op_from_ad": "operators",
    "parse_beta": "parsing",
    "parse_element": "parsing",
    "partial": "nambu",
    "realize": "nambu",
    "tri_bracket": "brackets",
    "window_basis": "elements",
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES})
