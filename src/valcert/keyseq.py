"""Key-polynomial generating sequences with closed-form values.

Both coordinate rings carry the same recursion shape:

    S_0 = first variable,   S_1 = second variable,
    S_2 = S_1^(p^2) - S_0,
    S_(i+1) = S_i^(p^2) - S_0^(p^(2i-2)) * S_(i-1)      for i >= 2.

Each S_i is monic of degree p^(2(i-1)) in the second variable, and carries
the value

    v(S_0) = scale,   v(S_i) = scale * sum_(j=0..i-1) p^(4j-2i)   for i >= 1.

The sequence on (u,v) has scale 1 (the base valuation, normalized so that
v(u) = 1); the sequence on (x,y) has scale 1/p, which makes the host-field
valuation restrict to the base one on the nose.

``p_sequence(p)`` and ``q_sequence(p)`` return the one shared sequence of
each kind per p, so keys and values built once serve every later caller;
``GenSeq(ring, scale, name)`` builds a private one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .polys import Poly, Ring, _key_data, ring_uv, ring_xy

__all__ = ["GenSeq", "p_sequence", "q_sequence"]


class GenSeq:
    """Lazily extended generating sequence with cached polynomials and values."""

    def __init__(self, ring: Ring, scale: Fraction, name: str):
        self.ring = ring
        self.scale = scale
        self.name = name
        self._polys: list[Poly] = [Poly.var(ring, ring.vars[0]), Poly.var(ring, ring.vars[1])]
        self._values: dict[int, Fraction] = {}
        self._keys: dict[int, tuple] = {}
        self._coefs: dict[int, tuple] = {}

    @property
    def p(self) -> int:
        return self.ring.p

    def __repr__(self):
        return f"GenSeq({self.name}, {self.ring}, scale={self.scale})"

    def poly(self, i: int) -> Poly:
        """The i-th key polynomial, extending the sequence as needed."""
        if i < 0:
            raise IndexError("negative sequence index")
        while len(self._polys) <= i:
            j = len(self._polys)
            prev, prev2 = self._polys[j - 1], self._polys[j - 2]
            if j == 2:
                nxt = prev.frob(2) - prev2
            else:
                nxt = prev.frob(2) - self._polys[0].frob(2 * j - 4) * prev2
            expected_deg = self.p ** (2 * (j - 1))
            if nxt.deg2() != expected_deg or nxt.coefficient(0, expected_deg) != 1:
                raise AssertionError(f"key polynomial {j} lost monicity/degree")
            self._polys.append(nxt)
        return self._polys[i]

    def value(self, i: int) -> Fraction:
        """Closed-form value of the i-th key polynomial (times the scale)."""
        if i < 0:
            raise IndexError("negative sequence index")
        got = self._values.get(i)
        if got is None:
            p = self.p
            if i == 0:
                got = self.scale
            else:
                series = (p ** (4 * i) - 1) // (p**4 - 1)
                got = self.scale * Fraction(series, p ** (2 * i))
            self._values[i] = got
        return got

    def key_data(self, n: int) -> tuple[int, list, int, list]:
        """The division data of S_n and of S_n^p, built once per index.

        (deg, low) is polys._key_data of S_n; the pair after it is the same
        for S_n^p, which is S_n with every exponent times p, since c^p = c
        on F_p and the Frobenius is additive.
        """
        got = self._keys.get(n)
        if got is None:
            p = self.p
            deg, low = _key_data(self.poly(n))
            got = self._keys[n] = deg, low, deg * p, [((p * b1, p * b2), c) for (b1, b2), c in low]
        return got

    def value_coefs(self, top: int) -> tuple[int, tuple[int, ...]]:
        """(den, coefs): v(S_0)..v(S_top) as coefs[i] / den, built once per top.

        den is the largest denominator among the values, a power of p.  The
        values are read from the value table when top is first asked for.
        """
        got = self._coefs.get(top)
        if got is None:
            vals = [self.scale] + [self.value(i) for i in range(1, top + 1)]
            den = max(v.denominator for v in vals)
            got = self._coefs[top] = den, tuple(v.numerator * (den // v.denominator) for v in vals)
        return got

    def index_for_degree(self, d2: int) -> int:
        """Largest i >= 1 whose key polynomial has second-variable degree <= d2."""
        if d2 < 1:
            raise ValueError("degree must be at least 1")
        p2 = self.p**2
        i, deg = 1, 1
        while deg * p2 <= d2:
            deg *= p2
            i += 1
        return i


@cache
def p_sequence(p: int) -> GenSeq:
    """Generating sequence on (u,v): the base valuation, v(u) = 1."""
    return GenSeq(ring_uv(p), Fraction(1), "uv")


@cache
def q_sequence(p: int) -> GenSeq:
    """Generating sequence on (x,y): the host valuation, v(x) = 1/p."""
    return GenSeq(ring_xy(p), Fraction(1, p), "xy")
