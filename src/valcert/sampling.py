"""Seeded random elements for the oracle sweeps.

All samplers take an explicit ``random.Random`` so that every sweep is
reproducible from its seed alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import engine  # by module: engine imports the samplers from here
from .keyseq import GenSeq
from .polys import Poly, RatFunc, Ring, _times

__all__ = [
    "random_poly",
    "random_ratfunc",
    "random_level_element",
    "random_value_pinned",
]


def random_poly(
    rng: random.Random,
    ring: Ring,
    max_deg: int,
    max_terms: int,
    nonzero: bool = True,
) -> Poly:
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
            terms[e] = rng.randint(1, ring.p - 1)
        f = Poly(ring, terms)
        if f or not nonzero:
            return f


def random_ratfunc(rng: random.Random, ring: Ring) -> RatFunc:
    num = random_poly(rng, ring, 5, 4)
    den = random_poly(rng, ring, 5, 3)
    return RatFunc(num, den)


def random_level_element(rng: random.Random, level, i_cap: int) -> RatFunc:
    """Random element of the level-k local ring.

    An F_p-combination of one to three standard monomials
    u_k^m * prod K_(k,i)^(a_i) with m <= 2, i <= i_cap and a_i < p^2 over
    the (u,v) field; a level without K_(k,i_cap) raises ValueError.  Each
    summand's key weight sum a_i * p^(2i) is capped at twice that of
    K_(k,i_cap), which still reaches the extremal single-key monomials.  The cap
    bounds key weight only, not the embedded size: at p = 3, level 1,
    ``embed_uv`` of some draws builds numerators of 10^6 terms and more,
    and takes seconds.  The gap-bound sweep does not embed a draw whole; it
    builds only the low-weight terms of g - x that its bound reads.

    Each summand is built on raw term dicts: ``polys._times`` multiplies
    its numerator, then its denominator, by each key power and checks each
    product against the budget, as ``RatFunc.__mul__`` checks them, and the
    summand is normalized once, as one ``RatFunc``.  Normalization
    divides out only a common monomial and a scalar, so each draw has the
    terms, in the same order, and overflows at the same size as the
    ``RatFunc`` chain ``c * K_(k,0)^a_0 * ...``.
    """
    p = level.p
    if max(level.keys) < i_cap:
        raise ValueError(f"level {level.k} holds keys up to {max(level.keys)}, below i_cap {i_cap}")
    out = None
    for _ in range(rng.randint(1, 3)):
        num, den = {(0, 0): rng.randint(1, p - 1)}, {(0, 0): 1}
        a = rng.randint(0, 2)
        key = level.keys[0]
        num, den = _times(num, key.num, a), _times(den, key.den, a)
        budget = 2 * p ** (2 * i_cap)
        picks = rng.sample(range(1, i_cap + 1), rng.randint(0, min(2, i_cap)))
        for i in sorted(picks, reverse=True):
            w = p ** (2 * i)
            top = min(p * p - 1, budget // w)
            if top < 1:
                continue
            a = rng.randint(1, top)
            budget -= a * w
            key = level.keys[i]
            num, den = _times(num, key.num, a), _times(den, key.den, a)
        part = RatFunc(Poly._make(level.u.ring, num), Poly._make(level.u.ring, den))
        out = part if out is None else out + part
    return out


def random_value_pinned(rng: random.Random, seq: GenSeq) -> RatFunc:
    """Random base-field element of value exactly -1/p.

    Backbone 1/v^p (the minimal-denominator realization of value -1/p, since
    v(v) = 1/p^2), times a unit, plus noise of value > -1/p.
    """
    ring = seq.ring
    p = ring.p
    unit = Poly.const(ring, rng.randint(1, p - 1)) + random_poly(rng, ring, 3, 2) * Poly.var(ring, "u")
    backbone = RatFunc(unit, Poly.monomial(ring, 1, 0, p))
    noise = RatFunc(random_poly(rng, ring, 4, 3, nonzero=False), Poly.monomial(ring, 1, 0, p - 1))
    f = backbone + noise
    got = engine.value(f, seq)
    if got != Fraction(-1, p):
        raise AssertionError(f"pinned sampler produced value {got}, wanted -1/{p}")
    return f
