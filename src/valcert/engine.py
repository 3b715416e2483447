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
each base-S_n digit j = a + p*b < p^2 in two radix stages: it divides by
S_n^p for the digits D_b of base S_n^p, then each D_b by S_n for its p
digits a, as in divide-and-conquer radix conversion.  That takes about p
passes over the dividend where one division by S_n per digit takes about
p^2/2.  S_n^p costs nothing to build: in characteristic p the Frobenius is
additive and fixes every coefficient in F_p, so S_n^p is S_n with every
exponent multiplied by p.  ``GenSeq.key_data`` builds the division data
of S_n and S_n^p once per sequence and index, beside its value table.
``expand()`` keeps the one-digit-at-a-time division, so the tests compare
the two.

``_stream`` runs on either of two term layouts, each a division kernel with
a size and a leaf.  At p = 2 an input is packed into rows: one Python int
per second-variable degree e2, with bit e1 set for each term x^e1 * y^e2
(every coefficient is 1).  Over F_2 subtraction is XOR and multiplying by
x^b1 is a left shift, so dividing by a key, S_n or S_n^p alike, costs one
shift-and-XOR per row and per non-leading key term, and the base-S_1
digits are the rows themselves.  The rows spend
a bit on every exponent up to each row's highest and a slot on every degree
up to the top one, so an input is packed only when it needs a division
(y-degree at least p^2) and its bits plus slots come to at most
``_ROW_BITS`` per term.

Every other input that needs a division, such as the tower's sparse keys
and products with exponents near 2^20 and every input at odd p, is bucketed
once as {e2: {e1: c}} for ``polys._divmod_buckets``, the one dict division
kernel, which ``Poly.__divmod__`` wraps.  It divides the buckets in place:
its quotient becomes the next dividend and its remainder is the digit, so
no Poly is built per digit.  The tests check that kernel against sympy, and
the row kernel against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .certificates import Certificate, check
from .embeddings import EmbeddingConfig, embed_uv
from .keyseq import GenSeq, p_sequence, q_sequence
from .polys import Poly, RatFunc, _bucket, _check_budget, _divmod_buckets
from .sampling import random_poly, random_ratfunc
from .values import INFINITY

__all__ = [
    "ExpansionTerm",
    "Expansion",
    "ValueTieError",
    "expand",
    "value",
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


def _check_ring(f: Poly, seq: GenSeq) -> None:
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
    if isinstance(f, RatFunc):
        if f.num.is_zero():
            return INFINITY
        return value(f.num, seq) - value(f.den, seq)
    if f.is_zero():
        return INFINITY
    _check_ring(f, seq)
    # Every term value is key / den, where den is the largest denominator
    # (a power of p) among the values of S_0..S_top, and key is an integer
    # combination of those values rescaled to den.  The values come from the
    # sequence's cached value table, keeping a corrupted table detectable.
    p = seq.p
    d2 = f.deg2()
    top = seq.index_for_degree(d2) if d2 > 0 else 0
    vals = [seq.scale] + [seq.value(i) for i in range(1, top + 1)]
    den = max(v.denominator for v in vals)
    coefs = [v.numerator * (den // v.denominator) for v in vals]
    keys: set[int] = set()
    if d2 < p * p:
        # base S_1 is the bare second variable, so its digits are the
        # y-degrees and every key comes out in one pass
        step = coefs[1] if d2 > 0 else 0
        keys.update([e2 * step + coefs[0] * e1 for e1, e2 in f._t])
        count = len(f._t)
    else:
        rows = _pack_rows(f, d2) if p == 2 else None
        terms, kernel = (_bucket(f._t), _BUCKETS) if rows is None else (rows, _ROWS)
        count = _stream(terms, kernel, seq, coefs, 0, keys)
    if count != len(keys):
        raise _tie_error(f, seq)
    return Fraction(min(keys), den)


def _stream(terms, kernel: tuple, seq: GenSeq, coefs: list[int], acc: int, keys: set) -> int:
    # The digit recursion of _expand_into on one term layout, carrying the
    # partial term value as the integer acc; adds each term's key to keys
    # and returns the number of terms, so a shortfall in len(keys) reveals
    # a tie.  The base-S_n digit j = a + p*b is peeled off in two radix
    # stages: the digits D_b of base S_n^p, then the p digits a of each D_b
    # in base S_n.
    _, top, size, leaf = kernel
    p = seq.p
    p2 = p * p
    d2 = top(terms)
    if d2 < p2:
        leaf(terms, coefs[0], coefs[1], acc, keys)
        return size(terms)
    n = seq.index_for_degree(d2)
    deg, low, pdeg, plow = seq.key_data(n)
    step = coefs[n]
    count = 0
    for b, outer in enumerate(_digits(terms, kernel, pdeg, plow, p)):
        if outer:
            for a, digit in enumerate(_digits(outer, kernel, deg, low, p)):
                if digit:
                    j = a + p * b
                    if j >= p2:
                        raise AssertionError(f"digit exponent {j} >= p^2 in base-S{n} expansion")
                    count += _stream(digit, kernel, seq, coefs, acc + j * step, keys)
    return count


def _digits(terms, kernel: tuple, deg: int, low: list, p: int):
    # The digits of nonzero terms in base y^deg + low, lowest first, some
    # of them empty: the remainder of each division, then the last
    # quotient, whose y-degree is below deg, without a division that would
    # only copy it.  Each division consumes its dividend, and the budget
    # checks its quotient, then its remainder, as Poly.__divmod__ does.
    divide, top, size, _ = kernel
    while top(terms) >= deg:
        terms, digit = divide(terms, deg, low, p)
        _check_budget(size(terms))
        _check_budget(size(digit))
        yield digit
    yield terms


def _bucket_leaf(levels: dict, m: int, step: int, acc: int, keys: set) -> None:
    # adds the key acc + e2*step + m*e1 for each term x^e1 * y^e2
    keys.update([acc + e2 * step + m * e1 for e2, bucket in levels.items() for e1 in bucket])


# A term layout for _stream is (divide, top, size, leaf): divide takes
# _divmod_buckets's arguments, top gives the y-degree, size the number of
# terms, and leaf adds the keys of a digit of y-degree below p^2.
# Terms bucketed as {e2: {e1: c}}:
_BUCKETS = (_divmod_buckets, max, lambda levels: sum(map(len, levels.values())), _bucket_leaf)


# Sparsest input packed into rows, in row bits plus row slots per term.
# The ladder's level-1 host inputs reach 226 and the tower's keys 10^3 to
# 10^6.  Measured on the benchmark's inputs, the rows lost to the dict path
# only on inputs of at most 40 terms, none of which took a millisecond.
_ROW_BITS = 256
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _pack_rows(f: Poly, d2: int) -> list[int] | None:
    # rows[e2] has bit e1 set for each term x^e1 * y^e2 of f over F_2, and
    # d2 = deg2(f); None when the rows would be sparser than _ROW_BITS
    cols: dict[int, list[int]] = {}
    for e1, e2 in f._t:
        cols.setdefault(e2, []).append(e1)
    if sum(map(max, cols.values())) + len(cols) + d2 + 1 > _ROW_BITS * len(f._t):
        return None
    rows = [0] * (d2 + 1)
    for e2, e1s in cols.items():
        rows[e2] = sum(map((1).__lshift__, e1s))  # distinct bits: the sum is the OR
    return rows


def _divmod_rows(rows: list[int], deg: int, low: list, p: int) -> tuple[list[int], list[int]]:
    """_divmod_buckets over F_2 on packed rows; p, always 2, keeps its arguments.

    Divides by the key y^deg + sum x^b1 * y^b2 over ((b1, b2), 1) in low;
    rows and both results carry no zero top row.
    """
    top = len(rows) - 1
    r = list(rows)
    q = [0] * (top - deg + 1)
    for d in range(top, deg - 1, -1):
        row = r[d]
        if row:
            shift = d - deg
            q[shift] = row
            for (b1, b2), _ in low:
                r[shift + b2] ^= row << b1
    del r[deg:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _row_leaf(rows: list[int], m: int, step: int, acc: int, keys: set) -> None:
    # adds the key acc + e2*step + m*e1 for each set bit e1 of each row e2
    for e2, row in enumerate(rows):
        bits = bin(row)[:1:-1].encode().translate(_BIT_BYTES)
        start = acc + e2 * step
        keys.update(compress(range(start, start + m * len(bits), m), bits))


# Packed F_2 rows, one int per y-degree:
_ROWS = (_divmod_rows, lambda rows: len(rows) - 1, lambda rows: sum(map(int.bit_count, rows)), _row_leaf)


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


def _clip(text: str) -> str:
    return text if len(text) <= 400 else text[:400] + " ..."


def _first_failure(n: int, **named) -> str:
    # the index and rendering of a failing sample, which parse_expr reads
    # back, so that `valcert value` or `ascheck t2 --f` can replay it
    shown = ", ".join(f"{name} = {_clip(str(x))}" for name, x in named.items())
    return f"first failure: sample {n}, {shown}"


def cross_check(f: Poly | RatFunc, c: int, label: str = "") -> Certificate:
    """Value on (u,v) against the value of the embedded image on (x,y).

    The host valuation restricts to the base one, so the two independently
    computed values must agree exactly.
    """
    if isinstance(f, Poly):
        f = RatFunc(f)
    p = f.ring.p
    ident = label or str(f)

    def run():
        base = value(f, p_sequence(p))
        host = value(embed_uv(f, EmbeddingConfig(p, c)), q_sequence(p))
        return str(base), str(host), base == host

    return check(f"engine/restriction/c={c}/{ident}", {"p": p, "c": c, "f": ident}, run)


def multiplicativity_sweep(seq: GenSeq, samples: int, seed: int) -> Certificate:
    """value(f*g) == value(f) + value(g) over seeded random pairs."""

    def run():
        rng = random.Random(f"{seed}:mult:{seq.name}")
        bad, first = 0, ""
        for n in range(samples):
            f = random_poly(rng, seq.ring, 8, 5)
            g = random_poly(rng, seq.ring, 8, 5)
            if value(f * g, seq) != value(f, seq) + value(g, seq):
                bad += 1
                first = first or _first_failure(n, f=f, g=g)
        want = f"{samples} products split"
        return want, f"{samples - bad} split; {first}" if bad else want, bad == 0

    return check(
        f"engine/multiplicative/engine={seq.name}",
        {"engine": seq.name, "p": seq.p, "samples": samples, "seed": seed},
        run,
    )


def ultrametric_sweep(seq: GenSeq, samples: int, seed: int) -> Certificate:
    """value(f+g) >= min of values, with equality whenever the values differ."""

    def run():
        rng = random.Random(f"{seed}:ultra:{seq.name}")
        bad, first = 0, ""
        for n in range(samples):
            f = random_poly(rng, seq.ring, 8, 5)
            g = random_poly(rng, seq.ring, 8, 5)
            s = f + g
            vf, vg = value(f, seq), value(g, seq)
            lo = vf if vf <= vg else vg
            vs = value(s, seq)
            if vs < lo or (vf != vg and vs != lo):
                bad += 1
                first = first or _first_failure(n, f=f, g=g)
        want = f"{samples} sums dominated"
        return want, f"{samples - bad} dominated; {first}" if bad else want, bad == 0

    return check(
        f"engine/ultrametric/engine={seq.name}",
        {"engine": seq.name, "p": seq.p, "samples": samples, "seed": seed},
        run,
    )


def restriction_sweep(p: int, c: int, samples: int, seed: int) -> Certificate:
    """Cross-engine agreement on seeded random base-field elements."""

    def run():
        rng = random.Random(f"{seed}:cross:{c}")
        seq, host = p_sequence(p), q_sequence(p)
        cfg = EmbeddingConfig(p, c)
        bad, first = 0, ""
        for n in range(samples):
            f = random_ratfunc(rng, seq.ring)
            if value(f, seq) != value(embed_uv(f, cfg), host):
                bad += 1
                first = first or _first_failure(n, f=f)
        want = f"{samples} restrictions agree"
        return want, f"{samples - bad} agree; {first}" if bad else want, bad == 0

    return check(
        f"engine/restriction-sweep/c={c}",
        {"p": p, "c": c, "samples": samples, "seed": seed},
        run,
    )
