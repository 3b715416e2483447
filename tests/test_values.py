"""The value group's point at infinity and the tail constant, on fractions."""

from fractions import Fraction

import pytest

from valcert.values import INFINITY, omega


def test_omega():
    assert omega(2) == Fraction(16, 15)
    assert omega(3) == Fraction(81, 80)
    for p in (2, 3, 5, 7):
        assert omega(p) * (p**4 - 1) == p**4
    with pytest.raises(ValueError):
        omega(4)
    with pytest.raises(ValueError):
        omega(1)


def test_infinity_arithmetic():
    assert INFINITY - Fraction(1) is INFINITY
    assert INFINITY + Fraction(3, 8) is INFINITY
    assert Fraction(3, 8) + INFINITY is INFINITY
    assert Fraction(1, 2) < INFINITY and INFINITY > Fraction(10**9)
    assert Fraction(1, 2) != INFINITY
    assert INFINITY == INFINITY and not INFINITY < INFINITY
    with pytest.raises(ArithmeticError):
        INFINITY - INFINITY
    with pytest.raises(ArithmeticError):
        -INFINITY
    with pytest.raises(ArithmeticError):
        Fraction(1) - INFINITY


def test_render():
    assert str(Fraction(17, 16)) == "17/16"
    assert str(Fraction(-15, 32)) == "-15/32"
    assert str(Fraction(7)) == "7"
    assert str(INFINITY) == "inf"
