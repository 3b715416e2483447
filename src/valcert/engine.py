"""Value computation by canonical top-down key-polynomial expansion.

The value of a polynomial is the minimum value over the terms of its
standard expansion

    f = sum  coeff * S_0^m * S_1^(a_1) * ... * S_n^(a_n),   all a_i < p^2,

obtained by writing f in base S_n for the largest applicable n and recursing
on the digit coefficients.  Top-down order is essential: the collisions
v(S_1^(p^2)) = v(S_0) that define the sequence make naive term-by-term
minima wrong, and only the expansion sees the cancellations.

Term values within one expansion are pairwise distinct.  That uniqueness is
what makes the minimum the value, so a tie is treated as an internal fault:
it aborts loudly with a dump of the offending expansion rather than risk a
silently wrong value.

``value()`` walks the digit recursion without materializing the expansion:
every term value shares the denominator p^E fixed by the top key index, so
each term is streamed as one integer numerator into a set, and a repeated
numerator is the tie.  ``expand()`` builds the explicit ``Expansion`` for the
``valcert expand`` listing, for the tie diagnostics, and as the test oracle
for ``value()``.

``value()`` holds one copy of that recursion, ``_stream``, which peels off
each base-S_n digit j = a + p*b < p^2, for n >= 3, in two radix stages: it
divides by S_n^p for the digits D_b of base S_n^p, then each D_b by S_n
for its p digits a, as in divide-and-conquer radix conversion.  That takes
about p passes over the dividend where one division by S_n per digit takes
about p^2/2.  S_n^p costs nothing to build: in characteristic p the
Frobenius is additive and fixes every coefficient in F_p, so S_n^p is S_n
with every exponent multiplied by p.  ``GenSeq.key_data`` builds the
division data of S_n and S_n^p once per sequence and index, beside its
value table.

The base-S_2 digits, the last key of every expansion, need no division:
S_2 = S_1^(p^2) - S_0 is a binomial, so for e2 = q*p^2 + r with q, r < p^2

    y^e2 = y^r * (S_2 + x)^q = sum_(j <= q)  C(q, j) * x^(q-j) * y^r * S_2^j,

and ``_s2_leaf`` sums each row of y^e2 straight into the rows (r, j) of
the digits, with C(q, j) mod p from Lucas' theorem.  When it ends, its
rows hold one term per key it streams.  While they sum, they can also hold
terms that a later row cancels: at most one per nonzero C(q, j), j <= q,
for each input term.  Like the keys set, they are not counted against the
budget: the leaf makes no budget check.  ``expand()`` keeps the
one-digit-at-a-time division by every S_n, S_2 included, and the tests
compare the two.

``_stream`` runs on one term layout: an input of y-degree p^2 or more,
such as the tower's sparse keys with exponents near 2^20 or a dense host
polynomial of the ladder, is bucketed once as {e2: {e1: c}}.  The leaf
sums those rows in place, and ``polys._divmod_buckets``, the one dict
division kernel, which ``Poly.__divmod__`` wraps, divides them in place:
its quotient becomes the next dividend and its remainder is the digit, so
no Poly is built per digit.  It checks the quotient, then the remainder,
against the budget, so a division by S_n, n >= 3, overflows in
``value()`` at the size ``expand()``'s division names.  The tests check
that kernel against sympy.

``host_value`` is the one route from the base, intermediate and host
fields to the host engine: it values an embedded element on its cleared
numerator and denominator, for the cross-check, the restriction sweep and
``valcert value --ring xy|xv``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .certificates import Certificate, _clip, check, sweep
from .embeddings import EmbeddingConfig, uv_images, xv_images
from .keyseq import GenSeq, p_sequence, q_sequence
from .polys import Poly, RatFunc, Ring, _bucket, _cleared, _divmod_buckets
from .sampling import random_poly, random_ratfunc
from .values import INFINITY

__all__ = [
    "ExpansionTerm",
    "Expansion",
    "ValueTieError",
    "expand",
    "value",
    "host_value",
    "cross_check",
    "multiplicativity_sweep",
    "ultrametric_sweep",
    "restriction_sweep",
]


class ValueTieError(RuntimeError):
    """Two expansion terms share a value: an implementation bug, not an input error."""


@dataclass(frozen=True)
class ExpansionTerm:
    """One standard monomial coeff * S_0^m * prod S_i^(a_i) with a_i < p^2."""

    coeff: int
    m: int
    a: tuple[int, ...]  # a[i-1] is the exponent of S_i

    def render(self) -> str:
        factors = [f"S0^{self.m}" if self.m != 1 else "S0"] if self.m else []
        for i, ai in enumerate(self.a, start=1):
            if ai:
                factors.append(f"S{i}^{ai}" if ai != 1 else f"S{i}")
        body = "*".join(factors) if factors else "1"
        return body if self.coeff == 1 else f"{self.coeff}*{body}"


@dataclass
class Expansion:
    """Standard expansion of a polynomial along a generating sequence."""

    seq: GenSeq
    terms: list[ExpansionTerm]

    def term_value(self, t: ExpansionTerm) -> Fraction:
        val = self.seq.scale * t.m
        for i, ai in enumerate(t.a, start=1):
            if ai:
                val = val + self.seq.value(i) * ai
        return val

    def evaluate(self) -> Poly:
        """Re-multiply the expansion; must reproduce the expanded input exactly."""
        ring = self.seq.ring
        out = Poly.zero(ring)
        for t in self.terms:
            part = Poly.monomial(ring, t.coeff, t.m, 0)
            for i, ai in enumerate(t.a, start=1):
                if ai:
                    part = part * self.seq.poly(i) ** ai
            out = out + part
        return out

    def dump(self) -> str:
        """The first 30 terms with their values, one per line."""
        rows = [f"  {t.render():<32} value {self.term_value(t)}" for t in self.terms[:30]]
        if len(self.terms) > 30:
            rows.append(f"  ... {len(self.terms) - 30} more terms")
        return "\n".join(rows)


def expand(f: Poly, seq: GenSeq) -> Expansion:
    """Top-down standard expansion of a nonzero polynomial."""
    _check_ring(f, seq)
    if f.is_zero():
        raise ValueError("cannot expand the zero polynomial")
    raw: list[tuple[int, int, tuple]] = []
    _expand_into(f, seq, seq.p**2, (), raw)
    width = max((pairs[0][0] for _, _, pairs in raw if pairs), default=0)
    terms = []
    for c, m, pairs in raw:
        a = [0] * width
        for i, j in pairs:
            a[i - 1] = j
        terms.append(ExpansionTerm(c, m, tuple(a)))
    return Expansion(seq, terms)


def _check_ring(f: Poly | RatFunc, seq: GenSeq) -> None:
    if f.ring != seq.ring:
        raise ValueError(f"polynomial ring {f.ring} does not match sequence ring {seq.ring}")


def _expand_into(f: Poly, seq: GenSeq, p2: int, tail: tuple, out: list) -> None:
    # tail holds the (index, digit) exponents already peeled off above this
    # level, highest index first
    d2 = f.deg2()
    if d2 < p2:
        # base S_1 is the bare second variable, so its digits are the
        # y-degrees; the stable sort lists them in increasing order
        for (e1, e2), c in sorted(f._t.items(), key=lambda t: t[0][1]):
            out.append((c, e1, tail + ((1, e2),) if e2 else tail))
        return
    n = seq.index_for_degree(d2)
    rest = f
    j = 0
    while not rest.is_zero():
        rest, digit = divmod(rest, seq.poly(n))
        if not digit.is_zero():
            if j >= p2:
                raise AssertionError(f"digit exponent {j} >= p^2 in base-S{n} expansion")
            _expand_into(digit, seq, p2, tail + ((n, j),) if j else tail, out)
        j += 1


def value(f: Poly | RatFunc, seq: GenSeq) -> Fraction:
    """The valuation of f: minimum standard-expansion term value, exactly.

    Zero maps to INFINITY.  For fractions the value is value(numerator)
    minus value(denominator).
    """
    _check_ring(f, seq)
    if f.is_zero():
        return INFINITY
    if isinstance(f, RatFunc):
        return value(f.num, seq) - value(f.den, seq)
    # Every term value is key / den, where den is the largest denominator
    # (a power of p) among the values of S_0..S_top, and key is an integer
    # combination of coefs, those values rescaled to den.  GenSeq.value_coefs
    # reads them from the sequence's value table once per top index, so a
    # table corrupted before the first value() call that reaches it is
    # detectable.
    p = seq.p
    d2 = f.deg2()
    top = seq.index_for_degree(d2) if d2 > 0 else 0
    den, coefs = seq.value_coefs(top)
    keys: set[int] = set()
    if d2 < p * p:
        # base S_1 is the bare second variable, so its digits are the
        # y-degrees and every key comes out in one pass
        step = coefs[1] if d2 > 0 else 0
        keys.update([e2 * step + coefs[0] * e1 for e1, e2 in f._t])
        count = len(f._t)
    else:
        count = _stream(_bucket(f._t), seq, coefs, 0, keys)
    if count != len(keys):
        raise _tie_error(f, seq)
    return Fraction(min(keys), den)


def _stream(levels: dict, seq: GenSeq, coefs: list[int], acc: int, keys: set) -> int:
    # The digit recursion of _expand_into on bucketed terms {e2: {e1: c}},
    # carrying the partial term value as the integer acc; adds each term's
    # key to keys and returns the number of terms, so a shortfall in
    # len(keys) reveals a tie.  Below y^(p^4) the top key is S_1 or S_2,
    # whose digits come in closed form; above it the base-S_n digit
    # j = a + p*b is peeled off in two radix stages: the digits D_b of base
    # S_n^p, then the p digits a of each D_b in base S_n.
    p = seq.p
    p2 = p * p
    d2 = max(levels)
    if d2 < p2:
        # base S_1 is the bare second variable: the key of x^e1 * y^e2 is
        # acc + e2*v(S_1) + e1*v(S_0)
        m, step = coefs[0], coefs[1]
        keys.update([acc + e2 * step + m * e1 for e2, bucket in levels.items() for e1 in bucket])
        return sum(map(len, levels.values()))
    if d2 < p2 * p2:
        return _s2_leaf(levels, p, coefs, acc, keys)
    n = seq.index_for_degree(d2)
    deg, low, pdeg, plow = seq.key_data(n)
    step = coefs[n]
    count = 0
    for b, outer in enumerate(_digits(levels, pdeg, plow, p)):
        if outer:
            for a, digit in enumerate(_digits(outer, deg, low, p)):
                if digit:
                    j = a + p * b
                    if j >= p2:
                        raise AssertionError(f"digit exponent {j} >= p^2 in base-S{n} expansion")
                    count += _stream(digit, seq, coefs, acc + j * step, keys)
    return count


def _s2_leaf(levels: dict, p: int, coefs: list[int], acc: int, keys: set) -> int:
    # _stream's base-S_2 digits for p^2 <= d2 < p^4, with no division: the
    # row {e1: c} of y^(q*p^2 + r) adds C(q, j) * c at e1 + q - j to the
    # digit row (r, j) for each j < q, and the row itself to (r, q), as
    # C(q, q) = 1.  Only rows of e2 >= q*p^2 + r reach (r, q), and rows
    # arrive by increasing e2, so (r, q) is still empty then: the row moves
    # there whole and later rows sum into it.  levels' rows are consumed,
    # so they must not be a Poly's
    p2 = p * p
    lucas = _lucas(p)
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for e2 in sorted(levels):
        row = levels[e2]
        q, r = divmod(e2, p2)
        for j, shift, b in lucas[q]:
            out = rows.get((r, j))
            if out is None:
                # b and c are units of F_p, so no product vanishes
                rows[r, j] = {e1 + shift: c * b % p for e1, c in row.items()}
                continue
            for e1, c in row.items():
                e = e1 + shift
                s = (out.get(e, 0) + c * b) % p
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        rows[r, q] = row
    m, step1, step2 = coefs[0], coefs[1], coefs[2]
    count = 0
    for (r, j), row in rows.items():
        base = acc + j * step2 + r * step1
        keys.update([base + m * e1 for e1 in row])
        count += len(row)
    return count


@cache
def _lucas(p: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    # for each q < p^2, (j, q - j, C(q, j) mod p) for the j < q with
    # C(q, j) nonzero mod p.  Lucas' theorem: C(q, j) = C(q0, j0) * C(q1, j1)
    # mod p for the base-p digits q = q0 + p*q1 and j = j0 + p*j1
    return tuple(
        tuple((j, q - j, c) for j in range(q) if (c := comb(q % p, j % p) * comb(q // p, j // p) % p))
        for q in range(p * p)
    )


def _digits(levels: dict, deg: int, low: list, p: int):
    # The digits of nonzero bucketed terms in base y^deg + low, lowest
    # first, some of them empty: the remainder of each division, then the
    # last quotient, whose y-degree is below deg, without a division that
    # would only copy it.  Each division consumes its dividend, and
    # _divmod_buckets checks its quotient, then its remainder, against the
    # budget, for Poly.__divmod__ and here alike.
    while max(levels) >= deg:
        levels, digit = _divmod_buckets(levels, deg, low, p)
        yield digit
    yield levels


def _tie_error(f: Poly, seq: GenSeq) -> ValueTieError:
    # Rebuild the explicit expansion to name the tied pair; the streamed
    # keys only know that some pair tied.
    exp = expand(f, seq)
    seen: dict[Fraction, ExpansionTerm] = {}
    for t in exp.terms:
        val = exp.term_value(t)
        other = seen.get(val)
        if other is not None:
            return ValueTieError(
                "tied term values in a standard expansion "
                f"({other.render()} and {t.render()} both have value {val}); "
                "the theory guarantees distinct values, so this is an internal "
                f"fault.\ninput: {_clip(str(f))}\nexpansion:\n{exp.dump()}"
            )
        seen[val] = t
    raise AssertionError(f"streamed term values of {_clip(str(f))} tied, but its expansion has no tie")


def host_value(f: Poly | RatFunc, cfg: EmbeddingConfig) -> Fraction:
    """The host value of an element of the base, intermediate or host field.

    Each of the three valuations is the restriction of the host one, so
    one engine on (x,y) computes them all.  An element on (u,v) or (x,v)
    is cleared into (x,y) to N/D (``polys._cleared``) and valued as
    value(N) - value(D), unnormalized: the value is multiplicative, so
    the normalization ``embeddings.embed_uv`` would add moves nothing.  A
    zero N comes with D = 1, so the difference is INFINITY.  An element on
    (x,y) is valued as it is.
    """
    host = q_sequence(cfg.p)
    if f.ring.vars == ("x", "y"):
        return value(f, host)
    images = {("u", "v"): uv_images, ("x", "v"): xv_images}.get(f.ring.vars)
    if images is None:
        raise ValueError(f"no embedding from ring {f.ring}")
    num, den = _cleared(f, images(cfg))
    return value(num, host) - value(den, host)


def cross_check(f: Poly | RatFunc, c: int) -> Certificate:
    """Value on (u,v) against the value of the embedded image on (x,y).

    The host valuation restricts to the base one, so the two independently
    computed values must agree exactly.  The host side is ``host_value``.
    """
    p = f.ring.p
    ident = str(f)

    def run():
        base = value(f, p_sequence(p))
        host = host_value(f, EmbeddingConfig(p, c))
        return str(base), str(host), base == host

    return check(f"engine/restriction/c={c}/{ident}", {"p": p, "c": c, "f": ident}, run)


def _pair(rng: random.Random, ring: Ring) -> dict:
    # one (f, g) draw of the multiplicativity and ultrametric sweeps
    return {"f": random_poly(rng, ring, 8, 5), "g": random_poly(rng, ring, 8, 5)}


def multiplicativity_sweep(seq: GenSeq, samples: int, seed: int) -> Certificate:
    """value(f*g) == value(f) + value(g) over seeded random pairs."""
    return sweep(
        f"engine/multiplicative/engine={seq.name}",
        {"engine": seq.name, "p": seq.p, "samples": samples, "seed": seed},
        samples,
        f"{seed}:mult:{seq.name}",
        lambda rng: _pair(rng, seq.ring),
        lambda f, g: value(f * g, seq) != value(f, seq) + value(g, seq),
        "products split",
    )


def ultrametric_sweep(seq: GenSeq, samples: int, seed: int) -> Certificate:
    """value(f+g) >= min of values, with equality whenever the values differ."""

    def fails(f: Poly, g: Poly) -> bool:
        s = f + g
        vf, vg = value(f, seq), value(g, seq)
        lo = vf if vf <= vg else vg
        vs = value(s, seq)
        return vs < lo or (vf != vg and vs != lo)

    return sweep(
        f"engine/ultrametric/engine={seq.name}",
        {"engine": seq.name, "p": seq.p, "samples": samples, "seed": seed},
        samples,
        f"{seed}:ultra:{seq.name}",
        lambda rng: _pair(rng, seq.ring),
        fails,
        "sums dominated",
    )


def restriction_sweep(p: int, c: int, samples: int, seed: int) -> Certificate:
    """Cross-engine agreement on seeded random base-field elements.

    Each host value is ``host_value``'s, as in ``cross_check``.
    """
    seq = p_sequence(p)
    cfg = EmbeddingConfig(p, c)
    return sweep(
        f"engine/restriction-sweep/c={c}",
        {"p": p, "c": c, "samples": samples, "seed": seed},
        samples,
        f"{seed}:cross:{c}",
        lambda rng: {"f": random_ratfunc(rng, seq.ring)},
        lambda f: value(f, seq) != host_value(f, cfg),
        "restrictions agree",
    )
