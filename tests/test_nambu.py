from fractions import Fraction

import pytest

from trilie import (
    OMEGA,
    ConstantFunctional,
    FiniteSupportFunctional,
    FKBracket,
    FKRealization,
    L,
    M,
    OmegaRealization,
    PolynomialFunctional,
    nambu_bracket,
    partial,
    realize,
)
from trilie.nambu import SymFunction, check_injectivity, check_realization
from trilie.polys import T
from trilie.report import Window

ONE = ConstantFunctional(1)


def ze(r):
    return SymFunction.term(1, 0, 1, r)  # z exp(rx)


def ye(r):
    return SymFunction.term(1, 1, 0, r)  # y exp(rx)


def test_products():
    assert ze(1) * ze(2) == SymFunction.term(1, 0, 2, 3)
    assert ye(-1) * ze(1) == SymFunction.term(1, 1, 1, 0)
    y, z = ye(0), ze(0)
    assert (y + z) * (y - z) == y * y - z * z


def test_partials():
    assert partial("x", ze(3)) == ze(3).scale(3)
    assert partial("y", ze(3)).is_zero()
    g = SymFunction.term(1, 1, 2, -1)  # y z^2 e^{-x}
    assert partial("z", g) == SymFunction.term(2, 1, 1, -1)
    assert partial("x", SymFunction.term(2, 1, 0, 0)).is_zero()


def test_partials_unknown_variable():
    with pytest.raises(ValueError):
        partial("w", ze(0))


def test_jacobian_determinant_classes():
    # the four closed classes of the second realization, on a parameter grid
    for r in range(-3, 4):
        for s in range(-3, 4):
            for t in range(-3, 4):
                assert nambu_bracket(ze(r), ze(s), ye(-t)) == ze(r + s - t).scale(s - r)
                assert nambu_bracket(ze(r), ye(-s), ye(-t)) == ye(-(s + t - r)).scale(t - s)
                assert nambu_bracket(ye(-r), ye(-s), ye(-t)).is_zero()
                assert nambu_bracket(ze(r), ze(s), ze(t)).is_zero()


def test_jacobian_antisymmetry():
    g1, g2, g3 = ze(2), ye(-1), ze(0) + ye(3)
    base = nambu_bracket(g1, g2, g3)
    assert nambu_bracket(g2, g1, g3) == -base
    assert nambu_bracket(g3, g2, g1) == -base
    assert nambu_bracket(g2, g3, g1) == base
    assert nambu_bracket(g1, g1, g3).is_zero()


def test_weighted_realization_determinant_class():
    # beta_t (r-s) L_{r+s+k} after the oracle-resolved sign on the M image
    rmap = FKRealization(1, ONE)
    for r in range(-2, 3):
        for s in range(-2, 3):
            for t in range(-2, 3):
                got = nambu_bracket(rmap.image(L(r).support()[0]),
                                    rmap.image(L(s).support()[0]),
                                    rmap.image(M(t).support()[0]))
                assert got == ze(r + s + 1).scale(r - s)


def test_realization_checks_pass():
    assert check_realization(OmegaRealization(), Window(-3, 3)).ok
    rep = check_realization(FKRealization(1, ONE), Window(-3, 3))
    assert rep.ok and rep.status == "flagged"  # sign of the printed M image
    for beta in (PolynomialFunctional(T), FiniteSupportFunctional({0: 1})):
        assert check_realization(FKRealization(0, beta), Window(-2, 2)).ok


def test_each_realization_names_its_bracket():
    assert OmegaRealization().spec == OMEGA
    assert FKRealization(1, ONE).spec == FKBracket(1, ONE)
    rep = check_realization(FKRealization(2, ONE), Window(-1, 1))
    assert rep.params["bracket"] == FKBracket(2, ONE).describe()


def test_injectivity_kernels():
    rep = check_injectivity(OmegaRealization(), Window(-3, 3))
    assert rep.stats["kernel_dimension"] == 0
    rep = check_injectivity(FKRealization(1, ONE), Window(-3, 3))
    assert rep.stats["kernel_dimension"] == 6  # all seven M images collinear
    rep = check_injectivity(FKRealization(1, FiniteSupportFunctional({0: 1})), Window(-3, 3))
    assert rep.stats["kernel_dimension"] == 6  # six M images vanish outright


def test_realize_is_linear():
    rmap = OmegaRealization()
    u, v = L(1) + M(2, Fraction(1, 2)), M(-1, 3)
    assert realize(rmap, u + v) == realize(rmap, u) + realize(rmap, v)


def test_jacobian_fundamental_identity_on_images():
    # the Jacobian bracket is a derivation in each slot, so the
    # generalized Jacobi identity holds on realization images
    rmap = OmegaRealization()
    images = [rmap.image(b.support()[0]) for b in (L(-1), L(1), M(0), L(0), M(1), M(-1))]
    for g1 in images:
        for g2 in images:
            for g3 in images:
                for h2 in images[:3]:
                    for h3 in images[3:]:
                        lhs = nambu_bracket(nambu_bracket(g1, g2, g3), h2, h3)
                        rhs = (
                            nambu_bracket(nambu_bracket(g1, h2, h3), g2, g3)
                            + nambu_bracket(g1, nambu_bracket(g2, h2, h3), g3)
                            + nambu_bracket(g1, g2, nambu_bracket(g3, h2, h3))
                        )
                        assert lhs == rhs


def test_rendering():
    assert str(ze(3)) == "z*exp(3*x)"
    assert str(ye(-1).scale(-2)) == "-2*y*exp(-x)"
    assert str(SymFunction.term(1, 2, 0, 0)) == "y^2"
    assert str(SymFunction.zero()) == "0"
    assert str(SymFunction.term(Fraction(1, 2), 0, 0, 0)) == "1/2"
