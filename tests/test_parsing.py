from fractions import Fraction

import pytest

from trilie import Element, L, M, parse_beta, parse_element
from trilie.elements import ConstantFunctional, FiniteSupportFunctional, PolynomialFunctional
from trilie.nambu import SymFunction
from trilie.parsing import ElementSyntaxError, parse_poly
from trilie.polys import Poly

F = Fraction
S = SymFunction.term


def test_basic_parse():
    assert parse_element("L[1] + 2*M[-3]") == L(1) + M(-3, 2)
    assert parse_element("1/2*L[0] - 1/2*L[0]") == Element.zero()
    assert parse_element("  L[ 1 ]  ") == L(1)
    assert parse_element("-L[2]") == L(2, -1)
    assert parse_element("0") == Element.zero()


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


# the printed form of each carrier: zero, unit coefficients, constant terms,
# negative leading terms, fractional magnitudes and the key order
PRINTED = [
    (Element.zero(), "0"),
    (L(1), "L[1]"),
    (M(-3), "M[-3]"),
    (L(2, -1) + M(0), "-L[2] + M[0]"),
    (F(-1, 2) * L(0) + F(3, 4) * M(-1), "-1/2*L[0] + 3/4*M[-1]"),
    (M(-1) + L(3) + L(-2), "L[-2] + L[3] + M[-1]"),
    (L(0) - M(1), "L[0] - M[1]"),
    (L(0, F(4, 2)), "2*L[0]"),
    (L(-4, F(-7, 3)), "-7/3*L[-4]"),
    (SymFunction.zero(), "0"),
    (S(), "1"),
    (S(-1), "-1"),
    (S(F(5, 2)), "5/2"),
    (S(1, 1), "y"),
    (S(1, 2, 1, -1), "y^2*z*exp(-x)"),
    (S(1, 0, 0, 2), "exp(2*x)"),
    (S(1, 0, 0, 1), "exp(x)"),
    (S(-1, 0, 0, -3), "-exp(-3*x)"),
    (S(F(-1, 2), 0, 1) + S(F(5, 3), 1), "-1/2*z + 5/3*y"),
    (S(2) + S(-1, 1), "2 - y"),
    (S(-3, 0, 2, 1) + S(F(1, 4), 0, 2, -1), "1/4*z^2*exp(-x) - 3*z^2*exp(x)"),
    (Poly(), "0"),
    (Poly.const(5), "5"),
    (Poly.const(-1), "-1"),
    (Poly.const(F(1, 2)), "1/2"),
    (Poly((1, 0, 1)), "t^2 + 1"),
    (Poly((-3, F(1, 2))), "1/2*t - 3"),
    (Poly((0, -1)), "-t"),
    (Poly((1, -1, 0, -2)), "-2*t^3 - t + 1"),
    (Poly((F(-1, 3), 0, F(7, 2))), "7/2*t^2 - 1/3"),
    (Poly((0, 1)), "t"),
    (Poly((0, 0, -1)), "-t^2"),
]


@pytest.mark.parametrize("carrier, text", PRINTED, ids=[f"{type(c).__name__}:{t}" for c, t in PRINTED])
def test_printed_form(carrier, text):
    assert str(carrier) == text


# error text (with its column) of each malformed input
ELEMENT_ERRORS = [
    ("", "empty input at column 1"),
    ("   ", "empty input at column 1"),
    ("+", "expected a term at column 2"),
    ("-", "expected a term at column 2"),
    ("L[1] L[2]", "expected '+' or '-', found 'L' at column 6"),
    ("L[1] +", "expected a term at column 7"),
    ("L[1", "expected ']' at column 4"),
    ("K[1]", "expected an integer at column 1"),
    ("2 L[1]", "expected '*' and a basis vector at column 3"),
    ("1/0*L[1]", "denominator must be positive at column 3"),
    ("1/-2*L[1]", "denominator must be positive at column 3"),
    ("L[x]", "expected an integer at column 3"),
    ("2*", "expected basis family 'L' or 'M' at column 3"),
    ("0 + L[1]", "expected '*' and a basis vector at column 3"),
    ("--L[1]", "expected an integer at column 3"),
    ("L[1]]", "expected '+' or '-', found ']' at column 5"),
    ("*L[1]", "expected an integer at column 1"),
]
POLY_ERRORS = [
    ("", "empty polynomial at column 1"),
    (" ", "empty polynomial at column 1"),
    ("+", "expected an integer at column 2"),
    ("-", "expected an integer at column 2"),
    ("t t", "expected '+' or '-', found 't' at column 3"),
    ("t +", "expected an integer at column 4"),
    ("2*x", "expected 't' at column 3"),
    ("2*", "expected 't' at column 3"),
    ("t^", "expected an integer at column 3"),
    ("t^-1", "exponent must be nonnegative at column 3"),
    ("1/0", "denominator must be positive at column 3"),
    ("t^2 + * t", "expected an integer at column 7"),
    ("t^ 1.5", "expected '+' or '-', found '.' at column 5"),
    ("1/2/3", "expected '+' or '-', found '/' at column 4"),
]


@pytest.mark.parametrize(
    "parse, text, message",
    [(parse_element, t, m) for t, m in ELEMENT_ERRORS] + [(parse_poly, t, m) for t, m in POLY_ERRORS],
)
def test_syntax_error_texts(parse, text, message):
    with pytest.raises(ElementSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert exc.value.position == int(message.rsplit(" ", 1)[1])


def test_lenient_forms_still_parse():
    assert parse_element("L[1] + 0") == L(1)
    assert parse_poly("3 t") == Poly((0, 3))
