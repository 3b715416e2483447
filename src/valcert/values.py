"""The value group Z[1/p] inside the rationals, and its point at infinity.

Values of nonzero field elements are ``fractions.Fraction`` instances whose
reduced denominators are powers of p; ``str`` prints them as n/p^e in lowest
terms.  Bounds outside Z[1/p] (such as the tail constant p^4/(p^4-1)) are
fractions too, so every comparison is exact.  The zero element has value
INFINITY.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["INFINITY", "omega", "check_p"]


def check_p(p: int) -> None:
    """The one rule on the characteristic: p is a prime <= 7."""
    if p not in (2, 3, 5, 7):
        raise ValueError(f"p must be a prime <= 7, got {p}")


class _Infinity:
    """Value of the zero element: greater than everything, absorbs addition."""

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is INFINITY:
            raise ArithmeticError("inf - inf is undefined")
        return self

    def __rsub__(self, other):
        raise ArithmeticError("finite - inf is undefined")

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __neg__(self):
        raise ArithmeticError("-inf is not a value")

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("valcert-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __str__(self):
        return "inf"

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def omega(p: int) -> Fraction:
    """Tail constant p^4 / (p^4 - 1), the sum of the geometric series in p^-4."""
    check_p(p)
    return Fraction(p**4, p**4 - 1)
