"""The tower of free quadratic transforms, as explicit rational functions.

Every level-k object lives in the single ambient fraction field of (u,v):
the level's key polynomials, whose K_(k,0) = u_k and K_(k,1) = v_k are its
regular parameters, and the descent unit in u = u_k^(p^(2k)) * unit.  The
unit factors of the twisted key recursion and the drift terms of the
untwisted one are closed forms in v_k and the keys of level k - 1, built
where a certificate reads them.  Keeping one common ring makes every
claimed identity checkable as an exact cross-multiplied polynomial
equality.  K_(k,i), K_(k,i-1)^(p^2) and the unit factor share one
denominator at every level, so the twisted recursion is compared through
the difference K_(k,i) - K_(k,i-1)^(p^2), which builds no product.  The
factor K_(k,0)^(p^(2(i-2))) * K_(k,i-2) of both recursions equals
K_(k-1,i-1) on the level below, its reduced form, and at k >= 1 both
certificates check that link and prove the twisted identity on the key.
The drift is w * K_(k-1,i-1) by construction, so the drift recursion
follows from the twisted one and the link; at level 0, where the drift is
0 and the unit factor 1, the two recursions coincide.

The certificates value each object through its structure, never through
a shortcut inside ``value()``.  Every tower denominator, and numerators
such as gamma - 1 = -w, is a Frobenius power root^(p^t), whose value is
p^t * v(root) (``root_value``).  A drift's value is the sum of its two
factors' values.  The descent unit is the product of the chart factors
r_j^(p^(2(j-1))), so its identity is carried up from level 0 one chart
step at a time and its value is the sum of theirs (``_unit_chain``).  The
direct computations stay the fallback on a corrupted tower and the tests'
oracles.

Level recursion (k >= 1, from level k-1):

    u_k = K_(k-1,1)                  v_k = K_(k-1,2) / u_k^(p^2)
    K_(k,i) = K_(k-1,i+1) / u_k^(p^(2i))          for i >= 1
    u_(k-1) = u_k^(p^2) * r_k,       r_k = s_k + 1
    unit_k = r_k^(p^(2(k-1))) * unit_(k-1) = (s_k^(p^(2(k-1))) + 1) * unit_(k-1)
    gammafactor_(k,i) = 1 - v_k^(p^(2(i-1)))         for i >= 2
    drift_(k,i) = v_k^(p^(2(i-1))) * K_(k-1,i-1)     for i >= 2

with all level-0 unit factors equal to 1 and all level-0 drifts equal to 0.
Both are closed forms of their level recursions: the unit factor's is
gammafactor_(k-1,i+1) * (s_k^(p^(2(i-1))) + 1), and level k-1's drifts
cancel in the step to level k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd

from .certificates import Certificate, check
from .engine import value
from .keyseq import GenSeq, p_sequence
from .polys import Poly, RatFunc
from .values import INFINITY

__all__ = [
    "TowerLevel",
    "build_tower",
    "verify_unit_descent",
    "verify_twisted_recursion",
    "verify_drift_recursion",
    "verify_value_formula",
    "key_value_formula",
    "drift_bound",
    "root_value",
]


@dataclass
class TowerLevel:
    """Level k's keys and descent unit, over the ambient (u,v) fraction field."""

    k: int
    keys: dict[int, RatFunc]  # K_(k,i); K_(k,0) = u_k and K_(k,1) = v_k
    descent_unit: RatFunc  # the unit in u = u_k^(p^(2k)) * unit
    prev: TowerLevel | None = field(default=None, repr=False, compare=False)  # level k - 1

    @property
    def u(self) -> RatFunc:
        return self.keys[0]

    @property
    def v(self) -> RatFunc:
        return self.keys[1]

    @property
    def p(self) -> int:
        return self.u.ring.p

    def unit_factor(self, i: int) -> RatFunc:
        """gamma_(k,i) = 1 - v_k^(p^(2(i-1))); 1 at level 0."""
        return self.u**0 if self.prev is None else 1 - self.v.frob(2 * i - 2)

    def drift(self, i: int) -> RatFunc:
        """drift_(k,i) = v_k^(p^(2(i-1))) * K_(k-1,i-1); 0 at level 0."""
        return 0 * self.u if self.prev is None else self.v.frob(2 * i - 2) * self.prev.keys[i - 1]


def build_tower(p: int, k_max: int, i_max: int) -> list[TowerLevel]:
    """Levels 0..k_max, each carrying key polynomials up to index i_max.

    Intermediate levels carry extra indices (level j holds i_max + k_max - j
    of them) because every recursion step consumes one index.  Only keys and
    descent units are built.  Run it inside ``support_limit`` to abort with
    BudgetExceededError instead of growing without bound.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if i_max < 2:
        raise ValueError("i_max must be >= 2")
    seq = p_sequence(p)
    keys = {i: RatFunc(seq.poly(i)) for i in range(i_max + k_max + 1)}
    levels = [TowerLevel(k=0, keys=keys, descent_unit=RatFunc(Poly.one(seq.ring)))]
    for k in range(1, k_max + 1):
        levels.append(_next_level(levels[-1], i_max + k_max - k))
    return levels


def _chart_factor(prev: TowerLevel, u_k: RatFunc) -> RatFunc:
    """r_k = u_(k-1) / u_k^(p^2), which is s_k + 1."""
    return prev.u / u_k ** (prev.p**2)


def _next_level(prev: TowerLevel, i_top: int) -> TowerLevel:
    p = prev.p
    k = prev.k + 1
    u_k = prev.keys[1]
    keys = {0: u_k, 1: prev.keys[2] / u_k ** (p**2)}
    # (s_k + 1)^(p^(2(k-1))) = s_k^(p^(2(k-1))) + 1 in characteristic p
    unit = _chart_factor(prev, u_k).frob(2 * (k - 1)) * prev.descent_unit
    for i in range(2, i_top + 1):
        keys[i] = prev.keys[i + 1] / u_k ** (p ** (2 * i))
    return TowerLevel(k=k, keys=keys, descent_unit=unit, prev=prev)


def key_value_formula(p: int, k: int, i: int) -> Fraction:
    """Closed-form value of the level-k key polynomial of index i."""
    if i == 0:
        return Fraction(1, p ** (2 * k))
    series = (p ** (4 * i) - 1) // (p**4 - 1)
    return Fraction(series, p ** (2 * i + 2 * k))


def drift_bound(p: int, k: int, i: int) -> Fraction:
    """Lower bound sum_(j=1..i-1) p^(4j-2i-2k) + p^(4-2i-2k) for drift values."""
    series = (p ** (4 * i) - p**4) // (p**4 - 1)  # sum of p^(4j), j = 1..i-1
    return Fraction(series + p**4, p ** (2 * i + 2 * k))


def _check_index(level: TowerLevel, i: int, first: int, what: str) -> None:
    """Raise ValueError unless first <= i <= the top index of the level's keys."""
    if i < first:
        raise ValueError(f"{what} starts at index {first}")
    if i > max(level.keys):
        raise ValueError(f"level {level.k} holds keys 0..{max(level.keys)}; {what} has no index {i}")


def root_value(f: Poly | RatFunc, seq: GenSeq) -> Fraction:
    """value(f), each side of a fraction valued through its Frobenius root.

    A polynomial whose exponents are all divisible by p^t, t as large as
    possible, is root^(p^t) in characteristic p, so its value is
    p^t * value(root).  At t = 0, a constant included, it is value(f).
    """
    if not isinstance(f, Poly):
        return root_value(f.num, seq) - root_value(f.den, seq)
    p, t = seq.p, 0
    g = gcd(*chain.from_iterable(f._t))
    while g and g % p == 0:
        g //= p
        t += 1
    if t == 0:
        return value(f, seq)
    q = p**t
    root = Poly._make(f.ring, {(e1 // q, e2 // q): c for (e1, e2), c in f._t.items()})
    return q * value(root, seq)


def _unit_chain(level: TowerLevel, base_u: RatFunc, seq: GenSeq) -> Fraction | None:
    """The unit's value, with its identity proved by the chart chain; None if a step fails.

    The chain must run through levels labelled 0..k, and level 0 must hold
    u_0 = u and unit 1.  At each level j = 1..k, with
    r_j = u_(j-1) / u_j^(p^2) = s_j + 1, two exact checks, u_(j-1) ==
    u_j^(p^2) * r_j and unit_j == r_j^(p^(2(j-1))) * unit_(j-1) compared
    Poly by Poly, carry the identity u = u_j^(p^(2j)) * unit_j up one
    level.  Then unit_k is the product of the r_j^(p^(2(j-1))), so its
    value is the sum of p^(2(j-1)) * v(r_j).
    """
    levels = [level]
    while levels[-1].prev is not None:
        levels.append(levels[-1].prev)
    levels.reverse()
    base = levels[0]
    if [lv.k for lv in levels] != list(range(level.k + 1)) or base.u != base_u:
        return None
    if base.descent_unit.num != 1 or base.descent_unit.den != 1:
        return None
    total = Fraction(0)
    for below, above in zip(levels, levels[1:]):
        if above.u.is_zero():
            return None
        r = _chart_factor(below, above.u)
        if below.u != above.u.frob(2) * r:
            return None
        unit = r.frob(2 * (above.k - 1)) * below.descent_unit
        if unit.num != above.descent_unit.num or unit.den != above.descent_unit.den:
            return None
        total += level.p ** (2 * (above.k - 1)) * root_value(r, seq)
    return total


def verify_unit_descent(level: TowerLevel, seq: GenSeq | None = None) -> Certificate:
    """u equals u_k^(p^(2k)) times the descent unit, and the unit has value 0.

    The chart chain (_unit_chain) proves the identity and values the unit
    from the chart factors of levels 1..k.  Where one of its steps fails,
    as only on a corrupted tower, u is compared with u_k^(p^(2k)) * unit
    and the unit is valued whole.
    """
    seq = seq or p_sequence(level.p)
    p, k = level.p, level.k
    base_u = RatFunc(seq.poly(0))

    def run():
        unit_val = _unit_chain(level, base_u, seq)
        identity = unit_val is not None
        if not identity:
            identity = base_u == level.u.frob(2 * k) * level.descent_unit
            unit_val = value(level.descent_unit, seq)
        ok = identity and unit_val == 0
        expected = "identity; unit value 0"
        actual = (
            f"{'identity' if identity else 'mismatch'}; unit value {unit_val}"
        )
        return expected, actual, ok

    return check(f"tower/unit-descent/k={k}", {"p": p, "k": k}, run)


def _twist_base(level: TowerLevel, i: int) -> RatFunc:
    """m = K_(k,0)^(p^(2(i-2))) * K_(k,i-2), a factor of both recursions (K_(k,0) at i = 2)."""
    if i == 2:
        return level.keys[0]
    return level.keys[0].frob(2 * (i - 2)) * level.keys[i - 2]


def _link(level: TowerLevel, i: int, m: RatFunc) -> RatFunc:
    """K_(k-1,i-1) itself where it equals m as a fraction (k >= 1), else m.

    On an intact level the key is m reduced, several times smaller than m.
    """
    below = level.prev
    return below.keys[i - 1] if below is not None and m == below.keys[i - 1] else m


def _twisted(level: TowerLevel, i: int, gamma: RatFunc, m: RatFunc) -> bool:
    """K_(k,i) - K_(k,i-1)^(p^2) == -gamma * m, m = _twist_base(level, i) or its _link.

    When K_(k,i), K_(k,i-1)^(p^2) and gamma share one denominator D, as on
    every intact level, multiplying both sides by D leaves the numerators'
    identity K_(k,i).num - K_(k,i-1)^(p^2).num == -gamma.num * m, decided
    on Polys cross-multiplied by m's denominator: diff * m.den ==
    gamma.num * -m.num.  The three Polys are built in this order: diff,
    gamma.num * -m.num, diff * m.den; the budget records depend on it.
    Otherwise (only on corrupted input) the fractions themselves are
    compared.
    """
    key, prior = level.keys[i], level.keys[i - 1].frob(2)
    if key.den == prior.den == gamma.den:
        diff = key.num - prior.num
        rhs = gamma.num * -m.num
        return diff * m.den == rhs
    return key - prior == -(gamma * m)


def verify_twisted_recursion(level: TowerLevel, i: int, seq: GenSeq | None = None) -> Certificate:
    """The key recursion with unit factors, plus the unit-factor value facts.

    Identity (exact):   K_(k,2) = K_(k,1)^(p^2) - gamma * K_(k,0)
                        K_(k,i) = K_(k,i-1)^(p^2) - gamma * K_(k,0)^(p^(2(i-2))) * K_(k,i-2)
    Values: v(gamma) = 0 and v(gamma - 1) >= 2 * p^(-2(k+1)), the value
    floor for membership in the square of the level's maximal ideal.
    The identity is proved on K_(k-1,i-1) where _link shows it equals
    K_(k,0)^(p^(2(i-2))) * K_(k,i-2), else on that product, and
    v(gamma.den) is taken once for both values.
    """
    _check_index(level, i, 2, "twisted recursion")
    seq = seq or p_sequence(level.p)
    p, k = level.p, level.k

    def run():
        gamma = level.unit_factor(i)
        identity = _twisted(level, i, gamma, _link(level, i, _twist_base(level, i)))
        den = root_value(gamma.den, seq)
        unit_val = root_value(gamma.num, seq) - den
        dist = root_value(gamma.num - gamma.den, seq) - den  # gamma - 1 over gamma's denominator
        floor = Fraction(2, p ** (2 * (k + 1)))
        ok = identity and unit_val == 0 and dist >= floor
        expected = f"identity; unit value 0; offset value >= {floor}"
        actual = (
            f"{'identity' if identity else 'mismatch'}; unit value {unit_val}; "
            f"offset value {dist}"
        )
        return expected, actual, ok

    return check(f"tower/twisted-recursion/k={k}/i={i}", {"p": p, "k": k, "i": i}, run)


def _drift_route(level: TowerLevel, i: int, m: RatFunc) -> bool:
    """True proves the drift identity through the twisted one; see verify_drift_recursion."""
    below, link = level.prev, _link(level, i, m)
    return (below is None or link is below.keys[i - 1]) and _twisted(level, i, level.unit_factor(i), link)


def _drift_value(level: TowerLevel, i: int, seq: GenSeq) -> Fraction:
    """v(drift_(k,i)) from its factors: p^(2(i-1)) * v(v_k) + v(K_(k-1,i-1)); inf at level 0."""
    if level.prev is None:
        return INFINITY
    return level.p ** (2 * (i - 1)) * root_value(level.v, seq) + root_value(level.prev.keys[i - 1], seq)


def verify_drift_recursion(level: TowerLevel, i: int, seq: GenSeq | None = None) -> Certificate:
    """The untwisted key recursion with drift, and the drift value bound.

    Identity (exact):   K_(k,2) = K_(k,1)^(p^2) - K_(k,0) + drift
                        K_(k,i) = K_(k,i-1)^(p^2) - K_(k,0)^(p^(2(i-2))) * K_(k,i-2) + drift
    Bound: v(drift) >= sum_(j=1..i-1) p^(4j-2i-2k) + p^(4-2i-2k).
    With m = _twist_base(level, i), c = K_(k,i-1)^(p^2), w = v_k^(p^(2(i-1)))
    and P = K_(k-1,i-1) on the linked level, the drift is w * P by
    construction (TowerLevel.drift), and two exact checks (_drift_route)
    prove it: m == P (_link), and K_(k,i) - c == -(1 - w) * P, decided on
    P, the smaller of the two.  So K_(k,i) - c - drift == -m.  At level 0
    the drift is 0 and the unit factor 1, so the twisted check
    K_(k,i) - c == -m alone is the identity.  Where a check fails, as only
    on a corrupted level, the drift is built and K_(k,i) - c - drift is
    compared with -m.  Its value is that of its factors,
    p^(2(i-1)) * v(v_k) + v(P) (_drift_value), each valued through its
    Frobenius root; level 0's drift is zero.
    """
    _check_index(level, i, 2, "drift recursion")
    seq = seq or p_sequence(level.p)
    p, k = level.p, level.k

    def run():
        keys, m = level.keys, _twist_base(level, i)
        identity = _drift_route(level, i, m) or keys[i] - keys[i - 1].frob(2) - level.drift(i) == -m
        dval = _drift_value(level, i, seq)
        bound = drift_bound(p, k, i)
        ok = identity and dval >= bound
        expected = f"identity; drift value >= {bound}"
        actual = f"{'identity' if identity else 'mismatch'}; drift value {dval}"
        return expected, actual, ok

    return check(f"tower/drift-recursion/k={k}/i={i}", {"p": p, "k": k, "i": i}, run)


def verify_value_formula(level: TowerLevel, i: int, seq: GenSeq | None = None) -> Certificate:
    """Engine value of the level-k key polynomial against the closed form."""
    _check_index(level, i, 0, "value formula")
    seq = seq or p_sequence(level.p)
    p, k = level.p, level.k

    def run():
        expected = key_value_formula(p, k, i)
        actual = root_value(level.keys[i], seq)
        return str(expected), str(actual), actual == expected

    return check(f"tower/value-formula/k={k}/i={i}", {"p": p, "k": k, "i": i}, run)
