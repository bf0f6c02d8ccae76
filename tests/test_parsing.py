from fractions import Fraction

import pytest

from trilie import Element, L, M, parse_beta, parse_element
from trilie.elements import ConstantFunctional, FiniteSupportFunctional, PolynomialFunctional
from trilie.parsing import ElementSyntaxError, parse_poly


def test_basic_parse():
    assert parse_element("L[1] + 2*M[-3]") == L(1) + M(-3, 2)
    assert parse_element("1/2*L[0] - 1/2*L[0]") == Element.zero()
    assert parse_element("  L[ 1 ]  ") == L(1)
    assert parse_element("-L[2]") == L(2, -1)
    assert parse_element("0") == Element.zero()


def test_syntax_error_carries_position():
    with pytest.raises(ElementSyntaxError) as exc:
        parse_element("L[1")
    assert exc.value.position == 4


def test_zero_denominator_rejected():
    with pytest.raises(ElementSyntaxError):
        parse_element("1/0*L[1]")


def test_bad_family_rejected():
    with pytest.raises(ElementSyntaxError):
        parse_element("K[1]")


def test_trailing_garbage_rejected():
    with pytest.raises(ElementSyntaxError):
        parse_element("L[1] L[2]")


def test_roundtrip_on_handpicked_forms():
    for text in ("L[1]", "-L[1] + 2*M[0]", "1/3*M[-2]", "0", "L[-4] - M[4]"):
        e = parse_element(text)
        assert parse_element(str(e)) == e


def test_parse_poly():
    assert parse_poly("t^2+1").coeffs == (1, 0, 1)
    assert parse_poly("-t").coeffs == (0, -1)
    assert parse_poly("1/2*t - 3").coeffs == (-3, Fraction(1, 2))
    assert parse_poly("5").coeffs == (5,)


def test_parse_beta():
    assert isinstance(parse_beta("const:1"), ConstantFunctional)
    assert type(parse_beta("const:1").value) is int
    assert parse_beta("const:4/2") == ConstantFunctional(2)
    assert parse_beta("const:-1/2").value == Fraction(-1, 2)
    poly = parse_beta("poly:t^2+1")
    assert isinstance(poly, PolynomialFunctional)
    assert poly.beta(2) == 5
    fs = parse_beta("support:0=1,2=-1/3")
    assert isinstance(fs, FiniteSupportFunctional)
    assert fs.beta(2) == Fraction(-1, 3)
    assert fs.beta(5) == 0
    with pytest.raises(ValueError):
        parse_beta("wat:1")
    with pytest.raises(ValueError):
        parse_beta("const")
