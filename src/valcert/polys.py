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
from operator import itemgetter

from .values import check_p

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
_MEMOS: list = []


def _budget_memo(memo):
    # register an lru_cache of budget-checked builds for support_limit
    _MEMOS.append(memo)
    return memo


def _set_limit(max_terms: int | None) -> None:
    global _LIMIT
    if max_terms != _LIMIT:
        _LIMIT = max_terms
        for memo in _MEMOS:
            memo.cache_clear()


@contextmanager
def support_limit(max_terms: int | None):
    """Bound the support size of every polynomial built inside the block.

    Exceeding the bound raises BudgetExceededError instead of silently
    truncating; ``None`` disables the check.

    The memos of budget-checked builds (``_budget_memo``: the embedding
    images, the powers that substitute and the level sampler take, and each
    approximant's own gap) hold only builds that passed every check under
    the limit in force: a build that raised leaves no entry, and each memo
    is emptied whenever the limit changes, on entry and on exit.  So a hit
    skips only checks a fresh build would pass, and overflows name the same size.
    """
    prev = _LIMIT
    _set_limit(max_terms)
    try:
        yield
    finally:
        _set_limit(prev)


# the second exponent of a term key, and the key of the leading term:
# highest second exponent, then highest first
_E2 = itemgetter(1)
_LEAD = itemgetter(1, 0)


def _check_budget(size: int) -> None:
    if _LIMIT is not None and size > _LIMIT:
        raise BudgetExceededError(size, _LIMIT)


class Ring:
    """Coordinate ring tag: an ordered variable pair and the characteristic."""

    __slots__ = ("p", "vars")

    def __init__(self, p: int, vars: tuple[str, str]):
        check_p(p)
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

    __slots__ = ("ring", "_t", "_hash")  # _hash is filled by the first __hash__

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
        return max(map(_E2, self._t))

    def deg1(self) -> int:
        # the lexicographic maximum key holds the highest first exponent
        if not self._t:
            return -1
        return max(self._t)[0]

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
        return Poly._make(self.ring, _add_into(dict(self._t), g._t, self.ring.p))

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
        """Product of two polynomials, by the dict loop (_mul_dict) at every p."""
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return Poly._make(self.ring, _mul_dict(self._t, g._t, self.ring.p))

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

    def __pow__(self, n: int) -> "Poly":
        """n-th power via base-p digits: layers of Frobenius, then multiply."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        p = self.ring.p
        out = Poly.one(self.ring)
        layer = 0
        while n:
            n, d = divmod(n, p)
            if d:
                digit = Poly.one(self.ring)
                for _ in range(d):
                    digit = digit * self
                out = out * digit.frob(layer)
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
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.ring, frozenset(self._t.items()))))
            return self._hash

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

def _mul_dict(a: dict, b: dict, p: int) -> dict:
    # the product of two term dicts over F_p.  The smaller factor's terms
    # run in the outer loop, a's on a tie.  expand() lists the terms of one
    # y-degree in the order this leaves them, so the choice is part of its
    # output, and every product that becomes a Poly leaves it to this one
    # rule.  A one-term small is a monomial shift of big: no two products
    # collide and c * d is nonzero in F_p, so the comprehension builds the
    # dict the loop would, in the same order.  Over F_2 every stored
    # coefficient is 1 and each sum toggles its exponent, which keeps that
    # order too
    big, small = (a, b) if len(a) > len(b) else (b, a)
    if len(small) == 1:
        ((a1, a2), c), = small.items()
        return {(a1 + b1, a2 + b2): c * d % p for (b1, b2), d in big.items()}
    t: dict = {}
    if p == 2:
        pop = t.pop
        for a1, a2 in small:
            for b1, b2 in big:
                e = (a1 + b1, a2 + b2)
                if pop(e, None) is None:
                    t[e] = 1
        return t
    for (a1, a2), c in small.items():
        for (b1, b2), d in big.items():
            e = (a1 + b1, a2 + b2)
            s = (t.get(e, 0) + c * d) % p
            if s:
                t[e] = s
            elif e in t:
                del t[e]
    return t


def _add_into(t: dict, other: dict, p: int) -> dict:
    # t + other over F_p, summed into t in place and returned: the one sum
    # loop, whose inserts and deletes fix the order of the terms
    for e, c in other.items():
        s = (t.get(e, 0) + c) % p
        if s:
            t[e] = s
        elif e in t:
            del t[e]
    return t


def _mul_cut(a: dict, b: dict, p: int, wx: int, wy: int, cut: int) -> dict:
    # the terms of weight wx * e1 + wy * e2 <= cut of the product of two
    # term dicts over F_p, for positive weights wx and wy, as _mul_dict
    # filtered.  The smaller factor's terms, sorted by weight, run in the
    # inner loop, which stops at its first pair above the cut, so no pair
    # above it is formed.  An empty factor gives {} before any sort
    if not a or not b:
        return {}
    big, small = (a, b) if len(a) > len(b) else (b, a)
    rows = sorted((wx * b1 + wy * b2, b1, b2, d) for (b1, b2), d in small.items())
    least = rows[0][0]
    t: dict = {}
    for (a1, a2), c in big.items():
        room = cut - wx * a1 - wy * a2
        if room < least:
            continue
        for w, b1, b2, d in rows:
            if w > room:
                break
            e = (a1 + b1, a2 + b2)
            s = (t.get(e, 0) + c * d) % p
            if s:
                t[e] = s
            elif e in t:
                del t[e]
    return t


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
    remainder), both bucketed and without empty rows, once the budget has
    checked the quotient, then the remainder, for every caller alike.

    Over F_2 every stored coefficient is 1, so each subtracted term
    toggles its place in the lower row.
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
                lv = levels[e2n] = {}
                if e2n >= deg:
                    heapq.heappush(heap, -e2n)
            if p == 2:
                pop = lv.pop
                for e1 in bucket:
                    e1n = e1 + b1
                    if pop(e1n, None) is None:
                        lv[e1n] = 1
            else:
                for e1, c in bucket.items():
                    e1n = e1 + b1
                    s = (lv.get(e1n, 0) - c * cv) % p
                    if s:
                        lv[e1n] = s
                    elif e1n in lv:
                        del lv[e1n]
    for e2 in [e2 for e2, bucket in levels.items() if not bucket]:
        del levels[e2]
    _check_budget(sum(map(len, q.values())))
    _check_budget(sum(map(len, levels.values())))
    return q, levels


class RatFunc:
    """Fraction of two polynomials with the same ring tag.

    Common monomial content of numerator and denominator is cancelled and
    the denominator is scaled monic-leading; no other reduction is done.
    Equality is exact, by cross-multiplication.
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
            # the lexicographic minimum key holds the least first exponent
            nt, dt = num._t, den._t
            m1 = min(min(nt)[0], min(dt)[0])
            m2 = min(min(map(_E2, nt)), min(map(_E2, dt)))
            if m1 or m2:
                num = Poly._make(num.ring, {(e1 - m1, e2 - m2): c for (e1, e2), c in nt.items()})
                den = Poly._make(den.ring, {(e1 - m1, e2 - m2): c for (e1, e2), c in dt.items()})
            p = num.ring.p
            # over F_2 every coefficient, the lead's too, is 1
            lead = den._t[max(den._t, key=_LEAD)] if p != 2 else 1
            if lead != 1:
                inv = pow(lead, p - 2, p)
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
        return self.num * g.den == g.num * self.den

    __hash__ = None  # cross-multiplied equality has no cheap consistent hash

    def __str__(self):
        if self.den == Poly.one(self.ring):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self.ring}, {self})"


_ONE = {(0, 0): 1}  # the terms of 1: base == 1 would build a Poly and check it


# Each entry holds one power of one polynomial: a numerator or
# denominator of an embedding image (substitute) or of a tower level's key
# (sampling.random_level_element).  The set-up and one round of a
# benchmark workload at seed 0 build 48 distinct powers (oracle-mix, 121
# terms in all), 43 (ladder-sweep-p3-l0, 186 terms) or 305
# (ladder-sweep-p2-l1, 3,954 terms); the weight cut of _substitute_terms
# leaves the powers of the parts it skips unbuilt.  The level keys' powers
# are 24 of the 305 (59 terms) and 20 of the 43 (54 terms).  The
# embeddings' images have at most two terms, so an e-th power has at most
# e + 1: with the exponents, at most 514 in those workloads, 512 entries
# hold at worst about 2.6 * 10^5 terms.  A t-term key raised to a < p^2
# has at most C(t + a - 1, a) terms: the ladder workloads' keys have at
# most 4 terms at p = 2 (a <= 3) and 3 at p = 3 (a <= 8), so at most 20
# and 45, within that bound.  Other images and keys are bounded only by
# the budget each build ran under.
@_budget_memo
@lru_cache(maxsize=512)
def _power(base: Poly, e: int) -> Poly:
    return base**e


def _times(part: dict, base: Poly, e: int, cut: tuple[int, int, int] | None = None) -> dict:
    # the term dict part times base^e from the memo _power: by _mul_dict,
    # as Poly.__mul__ forms it, or under cut = (wx, wy, c) by _mul_cut,
    # then checked against the budget.  A factor of one (e = 0, or a base
    # of one) returns part itself, whose size was checked already
    if e == 0 or base._t == _ONE:
        return part
    power, p = _power(base, e)._t, base.ring.p
    t = _mul_dict(part, power, p) if cut is None else _mul_cut(part, power, p, *cut)
    _check_budget(len(t))
    return t


def substitute(f: Poly | RatFunc, images: Mapping[str, RatFunc]) -> RatFunc:
    """Apply the ring homomorphism sending each variable to its image.

    Both variables of f's ring must be mapped, to rational functions over a
    common target ring.  The result is exact; a zero denominator cannot
    arise because the image denominators are nonzero polynomials.

    The result is RatFunc(*_cleared(f, images)): the cleared pair,
    normalized once.
    """
    return RatFunc(*_cleared(f, images))


def _cleared(f: Poly | RatFunc, images: Mapping[str, RatFunc]) -> tuple[Poly, Poly]:
    """f under the images as (numerator, denominator), neither normalized.

    A polynomial is cleared to one numerator over one denominator by
    _substitute_terms, on raw term dicts.  A fraction's numerator and
    denominator are cleared alike, to n1/d1 and n2/d2, and the pair is
    (n1 * d2, d1 * n2), the products num / den takes on their RatFuncs.
    Building them from the unnormalized pairs changes no term of
    substitute's result: a content shift of a factor shifts its products,
    and a scalar scales them, by the same amount on both sides, which the
    final normalization removes; neither changes a size or a term order.

    A valuation is multiplicative, so value(num) - value(den) of the pair
    is the value of substitute's result: a caller that only values the
    image takes the pair and skips the normalization.
    """
    if isinstance(f, RatFunc):
        n1, d1 = _substitute_terms(f.num, images)
        n2, d2 = _substitute_terms(f.den, images)
        if n2.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return n1 * d2, d1 * n2
    return _substitute_terms(f, images)


def _substitute_terms(
    f: Poly, images: Mapping[str, RatFunc], cut: tuple[int, int, int] | None = None
) -> tuple[Poly, Poly]:
    """f under the images as (numerator, denominator), neither normalized.

    Each term c * u^e1 * v^e2 becomes the part c * n1^e1 * d1^(max1 - e1)
    * n2^e2 * d2^(max2 - e2), over the shared denominator
    d1^max1 * d2^max2.  Each factor is multiplied in by _times, with
    Poly.__mul__'s product and a budget check, and the parts are summed
    into one dict by _add_into, Poly.__add__'s sum, so every term comes
    out in the order the Poly operations give, and the budget checks each
    product and each partial sum at the size the Poly operations check.  A
    zero numerator comes with the denominator one, as a zero RatFunc has.

    With cut = (wx, wy, c), for positive integer weights wx and wy of the
    target's variables and c >= 0, the numerator holds only the terms of
    weight wx * e1 + wy * e2 <= c of the full one.  The monomials above c span an
    ideal, so dropping them commutes with every product and sum: _times
    forms each product by _mul_cut, which forms no pair above c, and the
    budget checks it and each partial sum at the truncated size.  The terms
    come out in another order than the full build gives.  The denominator
    is built in full, as without a cut, so a caller that needs it whole
    reads it from here.

    Under a cut a term's part is skipped whole when its least-weight bound
    passes c.  With l(h) the least weight of a term of h, every term of a
    product weighs at least the sum of its factors' least weights, so every
    term of the part weighs at least e1 * l(n1) + (max1 - e1) * l(d1) +
    e2 * l(n2) + (max2 - e2) * l(d2).  Past c the truncated part is empty,
    and the four products would give {}: skipping it keeps every term of
    the numerator and their order.  The test comes before the part's first
    product, so a skipped part builds none of its factors' powers.  The
    budget checks it skips are of empty dicts, but building a power checks
    its size too, so under a small limit a build can finish that would
    otherwise overflow in a power whose part the cut empties.
    """
    v1, v2 = f.ring.vars
    try:
        img1, img2 = images[v1], images[v2]
    except KeyError as missing:
        raise ValueError(f"no image for variable {missing}") from None
    _same_ring(img1, img2)
    target = img1.ring
    p = target.p
    if p != f.ring.p:
        raise RingMismatchError("characteristic must be preserved")
    if f.is_zero():
        return Poly.zero(target), Poly.one(target)
    max1 = f.deg1()
    max2 = f.deg2()

    if cut is not None:
        wx, wy, top = cut
        l1, l2, l3, l4 = (min(wx * a + wy * b for a, b in h._t) for h in (img1.num, img1.den, img2.num, img2.den))
    num: dict = {}
    for (e1, e2), c in f._t.items():
        if cut is not None and l1 * e1 + l2 * (max1 - e1) + l3 * e2 + l4 * (max2 - e2) > top:
            continue  # every term of the part weighs more than the cut
        part = _times(_times({(0, 0): c}, img1.num, e1, cut), img1.den, max1 - e1, cut)
        _add_into(num, _times(_times(part, img2.num, e2, cut), img2.den, max2 - e2, cut), p)
        _check_budget(len(num))
    den = _times(_times({(0, 0): 1}, img1.den, max1), img2.den, max2)
    return Poly._make(target, num), Poly._make(target, den) if num or cut else Poly.one(target)
