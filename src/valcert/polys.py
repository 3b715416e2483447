"""Sparse bivariate polynomials and rational functions over a small prime field.

Polynomials are dictionaries from exponent pairs to nonzero coefficients in
F_p, tagged by the coordinate ring they live in: (u,v), (x,y) or (x,v).
Exponents reach p^(2(k+i)) in the tower construction, so everything is kept
sparse; powers route through the Frobenius (term-wise p^t-th power) whenever
possible.

Rational functions are unreduced fraction pairs.  Only common monomial
content is cancelled; full gcd reduction is never needed because values are
computed on numerator and denominator separately.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from contextlib import contextmanager
from functools import lru_cache

from .values import is_prime

__all__ = [
    "Ring",
    "ring_uv",
    "ring_xy",
    "ring_xv",
    "Poly",
    "RatFunc",
    "substitute",
    "support_limit",
    "RingMismatchError",
    "NonMonicDivisorError",
    "BudgetExceededError",
]


class RingMismatchError(ValueError):
    """Operands from different coordinate rings."""


class NonMonicDivisorError(ValueError):
    """Division requires a divisor monic in the second variable."""


class BudgetExceededError(RuntimeError):
    """A polynomial grew past the configured support-size budget."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"polynomial support {size} exceeds budget {limit}")


_LIMIT: int | None = None
# while _power builds, the list every _check_budget size is appended to
_RECORD: list[int] | None = None


@contextmanager
def support_limit(max_terms: int | None):
    """Bound the support size of every polynomial built inside the block.

    Exceeding the bound raises BudgetExceededError instead of silently
    truncating; ``None`` disables the check.
    """
    global _LIMIT
    prev = _LIMIT
    _LIMIT = max_terms
    try:
        yield
    finally:
        _LIMIT = prev


def _check_budget(size: int) -> None:
    if _RECORD is not None:
        _RECORD.append(size)
    if _LIMIT is not None and size > _LIMIT:
        raise BudgetExceededError(size, _LIMIT)


class Ring:
    """Coordinate ring tag: an ordered variable pair and the characteristic."""

    __slots__ = ("p", "vars")

    def __init__(self, p: int, vars: tuple[str, str]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > 7:
            raise ValueError("only small primes (p <= 7) are supported")
        if len(vars) != 2 or vars[0] == vars[1]:
            raise ValueError("need two distinct variable names")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "vars", tuple(vars))

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

    def __eq__(self, other):
        return isinstance(other, Ring) and self.p == other.p and self.vars == other.vars

    def __hash__(self):
        return hash((self.p, self.vars))

    def __str__(self):
        return f"F{self.p}[{self.vars[0]},{self.vars[1]}]"

    __repr__ = __str__


def ring_uv(p: int) -> Ring:
    return Ring(p, ("u", "v"))


def ring_xy(p: int) -> Ring:
    return Ring(p, ("x", "y"))


def ring_xv(p: int) -> Ring:
    return Ring(p, ("x", "v"))


def _same_ring(a: "Poly | RatFunc", b: "Poly | RatFunc") -> None:
    if a.ring != b.ring:
        raise RingMismatchError(f"mixed rings {a.ring} and {b.ring}")


class Poly:
    """Sparse polynomial: finite map (e1, e2) -> nonzero coefficient in F_p.

    Immutable after construction; no zero coefficients are ever stored.
    """

    __slots__ = ("ring", "_t")

    def __init__(self, ring: Ring, terms=None):
        p = ring.p
        t = {}
        for (e1, e2), c in (terms or {}).items():
            if e1 < 0 or e2 < 0:
                raise ValueError("negative exponent")
            c %= p
            if c:
                t[(e1, e2)] = c
        _check_budget(len(t))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_t", t)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _make(cls, ring: Ring, t: dict) -> "Poly":
        # trusted constructor: t already normalized (coefficients in 1..p-1)
        _check_budget(len(t))
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_t", t)
        return self

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls._make(ring, {})

    @classmethod
    def const(cls, ring: Ring, c: int) -> "Poly":
        c %= ring.p
        return cls._make(ring, {(0, 0): c} if c else {})

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return cls.const(ring, 1)

    @classmethod
    def var(cls, ring: Ring, name: str) -> "Poly":
        if name == ring.vars[0]:
            return cls._make(ring, {(1, 0): 1})
        if name == ring.vars[1]:
            return cls._make(ring, {(0, 1): 1})
        raise ValueError(f"unknown variable {name!r} in {ring}")

    @classmethod
    def monomial(cls, ring: Ring, c: int, e1: int, e2: int) -> "Poly":
        return cls(ring, {(e1, e2): c})

    # -- basic structure --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    @property
    def support_size(self) -> int:
        return len(self._t)

    def terms(self):
        """Terms in canonical order: second-variable degree first, descending."""
        return sorted(self._t.items(), key=lambda kv: (-kv[0][1], -kv[0][0]))

    def coefficient(self, e1: int, e2: int) -> int:
        return self._t.get((e1, e2), 0)

    def deg2(self) -> int:
        """Degree in the second variable; -1 for the zero polynomial."""
        if not self._t:
            return -1
        return max(e2 for (_, e2) in self._t)

    def deg1(self) -> int:
        if not self._t:
            return -1
        return max(e1 for (e1, _) in self._t)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            _same_ring(self, other)
            return other
        if isinstance(other, int):
            return Poly.const(self.ring, other)
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        p = self.ring.p
        t = dict(self._t)
        for e, c in g._t.items():
            s = (t.get(e, 0) + c) % p
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        return Poly._make(self.ring, t)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Poly._make(self.ring, {e: p - c for e, c in self._t.items()})

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product of two polynomials, by the dict loop (_mul_dict) at every p.

        The smaller factor's terms run in the outer loop.  expand() lists
        the terms of one y-degree in the order this leaves them, so the
        swap below is part of its output.
        """
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if len(self._t) > len(g._t):
            big, small = self._t, g._t
        else:
            big, small = g._t, self._t
        return Poly._make(self.ring, _mul_dict(big, small, self.ring.p))

    __rmul__ = __mul__

    def frob(self, t: int) -> "Poly":
        """p^t-th power, computed term-wise.

        Coefficients are fixed by the Frobenius on F_p, so raising to p^t
        just multiplies every exponent by p^t.
        """
        if t < 0:
            raise ValueError("negative Frobenius power")
        if t == 0:
            return self
        q = self.ring.p**t
        return Poly._make(self.ring, {(e1 * q, e2 * q): c for (e1, e2), c in self._t.items()})

    def _small_pow(self, n: int) -> "Poly":
        out = Poly.one(self.ring)
        for _ in range(n):
            out = out * self
        return out

    def __pow__(self, n: int) -> "Poly":
        """n-th power via base-p digits: layers of Frobenius, then multiply."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.one(self.ring)
        p = self.ring.p
        out = Poly.one(self.ring)
        layer = 0
        small: dict[int, Poly] = {}
        while n:
            n, d = divmod(n, p)
            if d:
                if d not in small:
                    small[d] = self._small_pow(d)
                out = out * small[d].frob(layer)
            layer += 1
        return out

    def __divmod__(self, g: "Poly"):
        """Long division in the second variable by a divisor monic in it.

        Returns (q, r) with self == q*g + r and deg2(r) < deg2(g).  Checks
        the divisor, then runs _divmod_buckets, the one dict division
        kernel, which engine.value also runs on its digits directly.
        """
        if not isinstance(g, Poly):
            return NotImplemented
        _same_ring(self, g)
        dg = g.deg2()
        if dg < 0:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = [(e1, c) for (e1, e2), c in g._t.items() if e2 == dg]
        if lead != [(0, 1)]:
            raise NonMonicDivisorError(f"divisor not monic in {g.ring.vars[1]}: {g}")
        q, r = _divmod_buckets(_bucket(self._t), *_key_data(g), self.ring.p)
        return Poly._make(self.ring, _unbucket(q)), Poly._make(self.ring, _unbucket(r))

    # -- comparison and rendering -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.ring, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self._t == other._t

    def __hash__(self):
        return hash((self.ring, frozenset(self._t.items())))

    def __str__(self):
        if not self._t:
            return "0"
        v1, v2 = self.ring.vars
        parts = []
        for (e1, e2), c in self.terms():
            factors = []
            if c != 1 or (e1 == 0 and e2 == 0):
                factors.append(str(c))
            if e1:
                factors.append(v1 if e1 == 1 else f"{v1}^{e1}")
            if e2:
                factors.append(v2 if e2 == 1 else f"{v2}^{e2}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.ring}, {self})"


# -- kernels on raw term dicts ------------------------------------------------

def _mul_dict(big: dict, small: dict, p: int) -> dict:
    # the product of two term dicts over F_p, one small term at a time
    t: dict = {}
    for (a1, a2), c in small.items():
        for (b1, b2), d in big.items():
            e = (a1 + b1, a2 + b2)
            s = (t.get(e, 0) + c * d) % p
            if s:
                t[e] = s
            elif e in t:
                del t[e]
    return t


def _xor_product(big: dict, small: dict, s: int) -> set:
    # The product over F_2 as a set of packed exponents, for RatFunc.__eq__,
    # which compares two of them and needs no term order: each pair
    # (e1, e2) becomes e1 << s | e2, with s wide enough for any e2 sum, so
    # adding the packed ints adds both exponents.  Every coefficient is 1
    # and addition is XOR, so each small term XORs its shifted copy of big
    # into one set, which holds one partial sum at a time, never the list
    # of all products.
    keys = [e1 << s | e2 for e1, e2 in big]
    acc: set = set()
    for a1, a2 in small:
        acc ^= set(map((a1 << s | a2).__add__, keys))
    return acc


def _key_data(key: Poly) -> tuple[int, list[tuple[tuple[int, int], int]]]:
    # a monic key as (its y-degree, its other terms as ((b1, b2), c))
    deg = key.deg2()
    return deg, [(e, c) for e, c in key._t.items() if e[1] != deg]


def _bucket(t: dict) -> dict[int, dict[int, int]]:
    # a term dict as {e2: {e1: c}}
    levels: dict[int, dict[int, int]] = {}
    for (e1, e2), c in t.items():
        levels.setdefault(e2, {})[e1] = c
    return levels


def _unbucket(levels: dict[int, dict[int, int]]) -> dict:
    return {(e1, e2): c for e2, bucket in levels.items() for e1, c in bucket.items()}


def _divmod_buckets(levels: dict[int, dict[int, int]], deg: int, low: list, p: int) -> tuple[dict, dict]:
    """Long division of bucketed terms {e2: {e1: c}} over F_p.

    The divisor is y^deg plus c * x^b1 * y^b2 for each ((b1, b2), c) in
    low.  A max-heap holds the occupied degrees that still need reducing.
    Each step clears one whole row: it moves the row into the quotient, then
    subtracts it, times each term of low, from the lower row that term lands
    on.  levels is consumed: it becomes the remainder.  Returns (quotient,
    remainder), both bucketed and without empty rows.
    """
    heap = [-e2 for e2 in levels if e2 >= deg]
    heapq.heapify(heap)
    q: dict[int, dict[int, int]] = {}
    while heap:
        d = -heapq.heappop(heap)
        bucket = levels.pop(d)
        if not bucket:
            continue
        shift = d - deg
        q[shift] = bucket
        for (b1, b2), cv in low:
            e2n = shift + b2
            lv = levels.get(e2n)
            if lv is None:
                # a fresh row: no term can cancel
                levels[e2n] = {e1 + b1: -c * cv % p for e1, c in bucket.items()}
                if e2n >= deg:
                    heapq.heappush(heap, -e2n)
                continue
            for e1, c in bucket.items():
                e1n = e1 + b1
                s = (lv.get(e1n, 0) - c * cv) % p
                if s:
                    lv[e1n] = s
                elif e1n in lv:
                    del lv[e1n]
    for e2 in [e2 for e2, bucket in levels.items() if not bucket]:
        del levels[e2]
    return q, levels


class RatFunc:
    """Fraction of two polynomials with the same ring tag.

    Common monomial content of numerator and denominator is cancelled and
    the denominator is scaled monic-leading; no other reduction is done.
    Equality is exact, by cross-multiplication; over F_2 the two cross
    products are compared as sets of packed exponents (_xor_product).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.ring)
        _same_ring(num, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.one(num.ring)
        else:
            m1 = min(min(e1 for (e1, _) in num._t), min(e1 for (e1, _) in den._t))
            m2 = min(min(e2 for (_, e2) in num._t), min(e2 for (_, e2) in den._t))
            if m1 or m2:
                num = Poly._make(num.ring, {(e1 - m1, e2 - m2): c for (e1, e2), c in num._t.items()})
                den = Poly._make(den.ring, {(e1 - m1, e2 - m2): c for (e1, e2), c in den._t.items()})
            lead = den._t[max(den._t, key=lambda e: (e[1], e[0]))]
            if lead != 1:
                inv = pow(lead, num.ring.p - 2, num.ring.p)
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def ring(self) -> Ring:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            _same_ring(self, other)
            return other
        if isinstance(other, Poly):
            _same_ring(self, other)
            return RatFunc(other)
        if isinstance(other, int):
            return RatFunc(Poly.const(self.ring, other))
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if self.den == g.den:
            return RatFunc(self.num + g.num, self.den)
        return RatFunc(self.num * g.den + g.num * self.den, self.den * g.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return RatFunc(self.num * g.num, self.den * g.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if g.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * g.den, self.den * g.num)

    def __rtruediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den**-n, self.num**-n)
        return RatFunc(self.num**n, self.den**n)

    def frob(self, t: int) -> "RatFunc":
        return RatFunc(self.num.frob(t), self.den.frob(t))

    def __eq__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if self.ring.p != 2:
            return self.num * g.den == g.num * self.den
        # over F_2 the two cross products are compared as packed sets, so
        # neither is built as a Poly; one shift serves both, and each is
        # budget-checked as its Poly would be; a zero numerator's deg2 of
        # -1 only narrows s for its empty set
        s = max(self.num.deg2() + g.den.deg2(), g.num.deg2() + self.den.deg2()).bit_length()

        def product(a: dict, b: dict) -> set:
            t = _xor_product(a, b, s) if len(a) > len(b) else _xor_product(b, a, s)
            _check_budget(len(t))
            return t

        return product(self.num._t, g.den._t) == product(g.num._t, self.den._t)

    __hash__ = None  # cross-multiplied equality has no cheap consistent hash

    def __str__(self):
        if self.den == Poly.one(self.ring):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self.ring}, {self})"


# the term dict of the polynomial 1; substitute compares with it, since
# base == 1 would build a Poly and check its size against the budget
_ONE = {(0, 0): 1}


# Each entry holds one power of one image polynomial.  The set-up and one
# round of a benchmark workload build 57 (oracle-mix) to 317
# (ladder-sweep-p2-l1) distinct powers, of 139 to 4,151 terms in all.  The
# embeddings' images have at most two terms, so an e-th power has at most
# e + 1: with the exponents up to 729 of those inputs, 512 entries hold at
# worst about 3.7 * 10^5 terms.  Other images are bounded only by the
# budget each build ran under.
@lru_cache(maxsize=512)
def _power(base: Poly, e: int) -> tuple[Poly, tuple[int, ...]]:
    """base**e, and the sizes its build passed to _check_budget, in order."""
    global _RECORD
    outer, _RECORD = _RECORD, []
    try:
        return base**e, tuple(_RECORD)
    finally:
        _RECORD = outer


def substitute(f: Poly | RatFunc, images: Mapping[str, RatFunc]) -> RatFunc:
    """Apply the ring homomorphism sending each variable to its image.

    Both variables of f's ring must be mapped, to rational functions over a
    common target ring.  The result is exact; a zero denominator cannot
    arise because the image denominators are nonzero polynomials.

    Powers of the images come from _power, a memo shared by every call.
    A hit replays the budget checks of the power's build in order, so a
    budget overflow names the size a fresh build would name, whatever ran
    before.  A factor of one (exponent 0, or an image denominator of one)
    is skipped: its product has the size of the part it multiplies, which
    was checked already.
    """
    if isinstance(f, RatFunc):
        num = substitute(f.num, images)
        den = substitute(f.den, images)
        return num / den
    v1, v2 = f.ring.vars
    try:
        img1, img2 = images[v1], images[v2]
    except KeyError as missing:
        raise ValueError(f"no image for variable {missing}") from None
    _same_ring(img1, img2)
    target = img1.ring
    if target.p != f.ring.p:
        raise RingMismatchError("characteristic must be preserved")
    if f.is_zero():
        return RatFunc(Poly.zero(target))
    max1 = f.deg1()
    max2 = f.deg2()

    def times(part: Poly, base: Poly, e: int) -> Poly:
        if e == 0 or base._t == _ONE:
            return part
        pw, sizes = _power(base, e)
        for size in sizes:
            _check_budget(size)
        return part * pw

    num = Poly.zero(target)
    for (e1, e2), c in f._t.items():
        part = Poly.const(target, c)
        part = times(times(part, img1.num, e1), img1.den, max1 - e1)
        part = times(times(part, img2.num, e2), img2.den, max2 - e2)
        num = num + part
    den = times(times(Poly.one(target), img1.den, max1), img2.den, max2)
    return RatFunc(num, den)
