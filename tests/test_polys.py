"""Sparse polynomial and rational-function arithmetic."""

import heapq
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert.embeddings import EmbeddingConfig, uv_images, xv_images
from valcert.polys import (
    BudgetExceededError,
    NonMonicDivisorError,
    Poly,
    RatFunc,
    Ring,
    RingMismatchError,
    _mul_cut,
    _mul_dict,
    _add_into,
    _power,
    _cleared,
    _same_ring,
    _substitute_terms,
    _times,
    ring_uv,
    ring_xv,
    ring_xy,
    substitute,
    support_limit,
)
from valcert.sampling import random_level_element
from valcert.tower import build_tower

R2 = ring_uv(2)
R3 = ring_uv(3)
U2, V2 = Poly.var(R2, "u"), Poly.var(R2, "v")
U3, V3 = Poly.var(R3, "u"), Poly.var(R3, "v")


def poly_strategy(ring, max_deg=6, max_terms=5):
    term = st.tuples(
        st.integers(min_value=0, max_value=max_deg),
        st.integers(min_value=0, max_value=max_deg),
        st.integers(min_value=1, max_value=ring.p - 1),
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: Poly(ring, {(e1, e2): c for e1, e2, c in ts})
    )


def test_char2_identities():
    assert (U2 + V2) * (U2 + V2) == U2**2 + V2**2
    assert (V2**4 + U2) - V2**4 == U2
    f = V2**3 + U2 * V2
    assert f * Poly.zero(R2) == Poly.zero(R2)


def test_frobenius():
    assert (U2 + V2).frob(1) == U2**2 + V2**2
    assert Poly.var(R2, "v").frob(2) == V2**4
    x3, y3 = Poly.var(ring_xy(3), "x"), Poly.var(ring_xy(3), "y")
    f = x3 + 2 * y3
    naive = f * f * f
    assert f.frob(1) == naive == x3**3 + 2 * y3**3


def test_pow():
    f = V2**4 + U2
    assert f**0 == Poly.one(R2)
    assert f**1 == f
    assert f**4 == V2**16 + U2**4
    naive = Poly.one(R2)
    for _ in range(4):
        naive = naive * f
    assert f**4 == naive
    with pytest.raises(ValueError):
        f ** (-1)


def test_divmod_examples():
    g = V2**4 + U2
    q, r = divmod(V2**5, g)
    assert q == V2 and r == U2 * V2
    q, r = divmod(U2 * V2**2, g)
    assert q.is_zero() and r == U2 * V2**2
    q, r = divmod(g, g)
    assert q == Poly.one(R2) and r.is_zero()


def test_divmod_rejects_non_monic():
    with pytest.raises(NonMonicDivisorError):
        divmod(V2**5, U2 * V2**4 + U2)
    with pytest.raises(NonMonicDivisorError):
        divmod(V3**2, V3 + V3)  # zero divisor degenerates
    with pytest.raises(ZeroDivisionError):
        divmod(V2, Poly.zero(R2))


@settings(max_examples=60)
@given(poly_strategy(R3), poly_strategy(R3, max_deg=3, max_terms=3))
def test_divmod_reconstruction(f, g):
    g = g + Poly.monomial(R3, 1, 0, 4)  # force a monic degree-4 divisor
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.deg2() < g.deg2()


def _sympy(f: Poly):
    # f in sympy's sparse ring GF(p)[y,x], lex with y first, so that
    # sympy's division runs in the second variable as Poly.__divmod__ does
    rings = pytest.importorskip("sympy.polys.rings")
    from sympy.polys.domains import GF
    from sympy.polys.orderings import lex

    ring = rings.ring("y,x", GF(f.ring.p), lex)[0]
    return ring.from_dict({(e2, e1): c for (e1, e2), c in f.terms()})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([R2, R3]), st.data())
def test_mul_matches_sympy(ring, data):
    f = data.draw(poly_strategy(ring, max_deg=9, max_terms=8))
    g = data.draw(poly_strategy(ring, max_deg=9, max_terms=8))
    assert _sympy(f * g) == _sympy(f) * _sympy(g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([R2, R3]), st.integers(min_value=1, max_value=9), st.data())
def test_divmod_matches_sympy(ring, d, data):
    f = data.draw(poly_strategy(ring, max_deg=30, max_terms=12))
    low = data.draw(poly_strategy(ring, max_deg=d - 1, max_terms=4))
    g = low + Poly.monomial(ring, 1, 0, d)  # monic of y-degree d
    q, r = divmod(f, g)
    assert (_sympy(q), _sympy(r)) == _sympy(f).div(_sympy(g))


def _mul_loop(big: dict, small: dict, p: int) -> dict:
    # the general loop of _mul_dict, one small term at a time: the oracle of
    # its one-term path and of its F_2 toggle
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


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([R2, R3]),
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    st.data(),
)
def test_monomial_product_matches_the_general_loop(ring, e, data):
    # a one-term factor is a shift of the other: the same items in the same
    # order as the loop, with coefficient p - 1 and the exponent (0, 0)
    p = ring.p
    big = data.draw(poly_strategy(ring, max_deg=9, max_terms=8))._t
    c = data.draw(st.integers(min_value=1, max_value=p - 1))
    for small in ({e: c}, {e: p - 1}, {(0, 0): c}, {(0, 0): p - 1}):
        want = _mul_loop(big, small, p)
        assert list(_mul_dict(big, small, p).items()) == list(want.items())
        g = Poly._make(ring, small)
        for product in (Poly._make(ring, big) * g, g * Poly._make(ring, big)):
            assert list(product._t.items()) == list(want.items())


def _weight_filter(t: dict, wx: int, wy: int, cut: int) -> dict:
    # the terms of t of weight wx * e1 + wy * e2 <= cut
    return {(e1, e2): c for (e1, e2), c in t.items() if wx * e1 + wy * e2 <= cut}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([R2, R3]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-1, max_value=40),
    st.data(),
)
def test_truncated_product_matches_the_filtered_product(ring, wx, wy, cut, data):
    # _mul_cut against _mul_dict filtered to weight <= cut, as dicts, from
    # the weights at which each factor stops to those past every term
    p = ring.p
    a = data.draw(poly_strategy(ring, max_deg=6, max_terms=8))._t
    b = data.draw(poly_strategy(ring, max_deg=6, max_terms=8))._t
    for f, g in ((a, b), (b, a), (a, {(0, 0): 1}), ({(1, 2): p - 1}, b)):
        assert _mul_cut(f, g, p, wx, wy, cut) == _weight_filter(_mul_dict(f, g, p), wx, wy, cut)


@pytest.mark.parametrize("ring", [R2, R3], ids=["p2", "p3"])
def test_truncated_product_cancels_like_the_full_one(ring):
    # (u + v)(u + (p - 1) v) = u^2 - v^2: the two u*v products, with
    # coefficients 1 and p - 1, cancel below the cut as in the full
    # product, and a pair exactly at the cut is kept while one past it is
    # not formed
    p = ring.p
    a, b = {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): p - 1}
    full = _mul_dict(a, b, p)
    assert full == {(2, 0): 1, (0, 2): p - 1}
    for cut in range(-1, 8):
        got = _mul_cut(a, b, p, 2, 3, cut)
        assert got == _weight_filter(full, 2, 3, cut), cut
        assert (1, 1) not in got
    assert _mul_cut(a, b, p, 2, 3, 4) == {(2, 0): 1}
    assert _mul_cut(a, b, p, 2, 3, 5) == {(2, 0): 1}
    assert _mul_cut(a, b, p, 2, 3, 6) == full


def test_divmod_by_key_polynomials_matches_sympy():
    # the divisions value() makes: sparse monic keys with repeated
    # second-variable degrees among their lower terms.  _divmod_buckets,
    # which value() runs on every input that needs a division, consumes its
    # dividend, which becomes the remainder, and leaves no empty row.  At
    # p = 2 the dense host inputs of the ladder divide by S_2..S_7.
    from valcert.keyseq import p_sequence, q_sequence
    from valcert.polys import _bucket, _divmod_buckets, _key_data, _unbucket

    for p in (2, 3):
        for seq in (p_sequence(p), q_sequence(p)):
            f = seq.poly(0) ** 3 * seq.poly(2) ** (p * p + 1) + seq.poly(3) + 1
            for i in (2, 3):
                key = seq.poly(i)
                q, r = divmod(f, key)
                assert (_sympy(q), _sympy(r)) == _sympy(f).div(_sympy(key))
                levels = _bucket(f._t)
                bq, br = _divmod_buckets(levels, *_key_data(key), p)
                assert br is levels and all(bq.values()) and all(br.values())
                assert (Poly(seq.ring, _unbucket(bq)), Poly(seq.ring, _unbucket(br))) == (q, r)
    host = q_sequence(2)
    x, y = Poly.var(host.ring, "x"), Poly.var(host.ring, "y")
    for i in range(2, 8):
        key = host.poly(i)
        f = (x**3 + x * y) * host.poly(i - 1) ** 5 + key * y**3 + x**5 * y ** (key.deg2() + 1) + 1
        q, r = divmod(f, key)
        assert (_sympy(q), _sympy(r)) == _sympy(f).div(_sympy(key))


def _divmod_loop(levels: dict, deg: int, low: list, p: int) -> tuple[dict, dict]:
    # the general row update of _divmod_buckets over F_p, without its
    # budget checks: the oracle of its F_2 toggle
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


def _rows(levels: dict) -> list:
    # bucketed terms with the order of their rows and of each row's terms
    return [(e2, list(row.items())) for e2, row in levels.items()]


def _crowded(rng: random.Random, n: int, w1: int, w2: int) -> dict:
    # n distinct exponents of F_2 terms in a w1 x w2 box, in draw order:
    # in a box this small most products of two such dicts collide
    t: dict = {}
    while len(t) < n:
        t[rng.randrange(w1), rng.randrange(w2)] = 1
    return t


def test_f2_toggle_keeps_the_general_loops_terms_and_order():
    # over F_2, _mul_dict's multi-term loop and _divmod_buckets' row update
    # toggle each exponent; they must leave every dict with the terms the
    # general F_p loops leave, in the same insertion order, since expand()
    # lists a row's terms in that order.  Inputs: seeded crowded dicts,
    # where a pair often meets an exponent that an earlier pair deleted;
    # the numerator products of the twisted identities of
    # build_tower(2, 4, 4), up to 288 terms; and divisions of both, and of
    # dense dividends of y-degree up to 150, by keys of the base and host
    # sequences at p = 2
    from valcert.keyseq import p_sequence, q_sequence
    from valcert.polys import _bucket, _divmod_buckets, _key_data
    from valcert.tower import _twist_base

    def product(a, b):
        got, want = _mul_dict(a, b, 2), _mul_loop(*((a, b) if len(a) > len(b) else (b, a)), 2)
        assert list(got.items()) == list(want.items())
        return got

    rng = random.Random("f2-toggle")
    crowded = [(_crowded(rng, rng.randint(2, 30), 6, 6), _crowded(rng, rng.randint(2, 30), 6, 6)) for _ in range(60)]
    products = [product(a, b) for a, b in crowded]
    assert sum(len(t) < len(a) * len(b) for t, (a, b) in zip(products, crowded)) >= 50
    for level in build_tower(2, 4, 4)[1:]:
        for i in range(2, 5):
            m, diff = _twist_base(level, i), level.keys[i].num - level.keys[i - 1].frob(2).num
            products += [product(level.unit_factor(i).num._t, m.num._t), product(diff._t, m.den._t)]
    assert max(map(len, products)) == 288
    # the products take S_2 and S_4 of the base sequence (by S_3, the tower
    # products' 5 * 10^4 rows would take 0.4 s), the dense dividends
    # S_2..S_4 of the host sequence
    dense = [_crowded(rng, 300, 8, 151) for _ in range(8)]
    divided = 0
    for seq, indices, ts in ((p_sequence(2), (2, 4), products), (q_sequence(2), (2, 3, 4), dense)):
        for n in indices:
            deg, low = _key_data(seq.poly(n))
            for t in ts:
                if max(e2 for _, e2 in t) < deg:
                    continue
                got, want = _divmod_buckets(_bucket(t), deg, low, 2), _divmod_loop(_bucket(t), deg, low, 2)
                assert [_rows(d) for d in got] == [_rows(d) for d in want], (seq.ring, n)
                divided += 1
    assert divided >= 100


def _tower_parts() -> list[Poly]:
    # numerators and denominators of build_tower(2, 4, 4) with 32 terms or
    # more (40 to 324), exponents near 2^16: the sparse operands of the
    # tower's identity checks, with the twisted recursion's right side as
    # written, gamma * K_0^(p^(2(i-2))) * K_(i-2), for the largest of them.
    # Each gamma is built by its level recursion from level 0's ones,
    # gamma_(k,i) = gamma_(k-1,i+1) * (s_k^(p^(2(i-1))) + 1) with
    # s_k = u_(k-1) / u_k^(p^2) - 1, whose fractions are larger than the
    # closed form TowerLevel.unit_factor builds
    from valcert.tower import build_tower

    parts, gammas = [], {}
    for level in build_tower(2, 4, 4):
        keys, indices = level.keys, range(2, len(level.keys))
        if level.k == 0:
            gammas = {i: level.unit_factor(i) for i in indices}
        else:
            s = level.prev.u / level.u**4 - 1
            gammas = {i: gammas[i + 1] * (s ** (2 ** (2 * (i - 1))) + 1) for i in indices}
        twists = [g * keys[0] ** (2 ** (2 * (i - 2))) * keys[i - 2] for i, g in gammas.items() if i > 2]
        for f in (*keys.values(), *gammas.values(), *map(level.drift, indices), *twists):
            parts += [f.num, f.den]
    return [f for f in parts if f.support_size >= 32]


def _recursion_sides() -> list[tuple[RatFunc, RatFunc]]:
    # the two sides of every k = 4 twisted- and drift-recursion identity of
    # build_tower(2, 4, 4) in the arrangements the certificates compared
    # before the drift was proved through the twisted one, built here rather
    # than spied from the certificates, so that a certificate that proves
    # an identity another way leaves these operands as they are:
    # K_i - K_(i-1)^(p^2) against -gamma * K_0^(p^(2(i-2))) * K_(i-2) for
    # the twisted one; for the drift one K_i - K_(i-1)^(p^2) - drift against
    # -K_0^(p^(2(i-2))) * K_(i-2) at i >= 3, and K_2 against its whole
    # recursion at i = 2
    from valcert.tower import build_tower

    level = build_tower(2, 4, 4)[4]
    keys = level.keys
    sides = []
    for i in range(2, 5):
        gamma, drift = level.unit_factor(i), level.drift(i)
        lhs = keys[i] - keys[i - 1].frob(2)
        if i == 2:
            sides.append((lhs, -(gamma * keys[0])))
            sides.append((keys[2], keys[1].frob(2) - keys[0] + drift))
        else:
            power = keys[0] ** (2 ** (2 * (i - 2)))
            sides.append((lhs, -(gamma * power * keys[i - 2])))
            sides.append((lhs - drift, -(power * keys[i - 2])))
    return sides


def _toggled(f: RatFunc) -> RatFunc:
    # f with the first term of its numerator removed
    (e1, e2), _ = f.num.terms()[0]
    return RatFunc(f.num + Poly.monomial(f.ring, 1, e1, e2), f.den)


def test_fraction_equality_matches_poly_products():
    # RatFunc.__eq__ against its two cross products compared by hand, on
    # equal, unequal, mixed-size and zero pairs
    sides = _recursion_sides()
    assert len(sides) == 6
    pairs = [*sides, *((a, _toggled(b)) for a, b in sides)]
    # a mixed-size pair: the left cross product multiplies two factors of
    # 32 terms or more, the right one a large factor by one of fewer
    parts = sorted(_tower_parts(), key=lambda f: f.support_size)
    big, mid, small = parts[-1], parts[0], sides[0][0].den
    mixed = (RatFunc(big, small), RatFunc(big * mid, small * mid))
    assert mixed[0].den.support_size < 32 <= min(mixed[0].num.support_size, mixed[1].den.support_size)
    pairs += [mixed, (mixed[0], _toggled(mixed[1]))]
    zero = RatFunc(Poly.zero(R2))
    pairs += [(zero, zero), (zero, sides[0][0]), (sides[0][1], zero), (zero, RatFunc(Poly.zero(R2), V2 + U2))]
    # two fractions that differ only in their variable
    pairs.append((RatFunc(U2 + 1), RatFunc(V2 + 1)))
    for a, b in pairs:
        want = a.num * b.den == b.num * a.den
        assert (a == b) is want and (b == a) is want
    assert [a == b for a, b in pairs] == [True] * 6 + [False] * 6 + [True, False, True, False, False, True, False]
    assert zero == 0 and not sides[0][0] == 0


def test_fraction_equality_budget_names_the_poly_product_sizes():
    # under a budget, == raises with the size the Poly products would name,
    # the left one first: below both sizes, and between them either way.
    # The last pair is the drift identity at i = 4
    a, b = _recursion_sides()[-1]
    b = _toggled(b)
    left, right = (a.num * b.den).support_size, (b.num * a.den).support_size
    assert left != right
    for limit, first, second in (
        (min(left, right) - 1, left, right),
        ((left + right) // 2, max(left, right), max(left, right)),
    ):
        with support_limit(limit):
            for x, y, size in ((a, b, first), (b, a, second)):
                with pytest.raises(BudgetExceededError) as equality:
                    x == y
                with pytest.raises(BudgetExceededError) as oracle:
                    x.num * y.den == y.num * x.den
                assert equality.value.size == oracle.value.size == size
                assert equality.value.limit == limit


def test_ratfunc_equality_routes_by_characteristic(monkeypatch):
    # one cross-multiplication at every p: two Poly products, left one first
    f2 = RatFunc(U2 * V2 + 1, V2**3 + U2)
    g2 = RatFunc((U2 * V2 + 1) * (V2 + 1), (V2**3 + U2) * (V2 + 1))
    f3 = RatFunc(U3 * V3 + 1, V3**3 + U3)
    g3 = RatFunc(2 * U3 * V3 + 2, 2 * V3**3 + 2 * U3)
    routed = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: routed.append((a, b)) or mul(a, b))
    for f, g in ((f2, g2), (f3, g3)):
        routed.clear()
        assert f == g
        assert routed == [(f.num, g.den), (g.num, f.den)]


@settings(max_examples=60)
@given(poly_strategy(R2), poly_strategy(R2), poly_strategy(R2))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f + Poly.zero(R2) == f
    assert f * Poly.one(R2) == f


@settings(max_examples=40)
@given(poly_strategy(R3, max_deg=4, max_terms=3), st.integers(min_value=0, max_value=2))
def test_frob_is_pow(f, t):
    assert f.frob(t) == f ** (3**t)


def test_ring_mismatch():
    x = Poly.var(ring_xy(2), "x")
    with pytest.raises(RingMismatchError):
        U2 + x
    with pytest.raises(RingMismatchError):
        U2 * x
    with pytest.raises(RingMismatchError):
        divmod(U2, Poly.var(ring_xy(2), "y"))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly(R2, {(-1, 0): 1})


def test_malformed_inputs_raise_named_errors():
    # one input per rejecting branch, each with its type and whole message
    host = ring_xy(2)
    x = RatFunc(Poly.var(host, "x"))
    cases = [
        (lambda: Ring(2, ("x", "x")), ValueError, "need two distinct variable names"),
        (lambda: Poly.var(R2, "z"), ValueError, "unknown variable 'z' in F2[u,v]"),
        (lambda: U2.frob(-1), ValueError, "negative Frobenius power"),
        (lambda: RatFunc(Poly.zero(R2)) ** -1, ZeroDivisionError, "negative power of zero"),
        (lambda: substitute(U2, {"u": x}), ValueError, "no image for variable 'v'"),
        (
            lambda: substitute(U2, {"u": RatFunc(U3), "v": RatFunc(V3)}),
            RingMismatchError,
            "characteristic must be preserved",
        ),
        (
            lambda: substitute(RatFunc(Poly.one(R2), V2), {"u": x, "v": RatFunc(Poly.zero(host))}),
            ZeroDivisionError,
            "division by zero rational function",
        ),
    ]
    for build, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


def test_ratfunc_basics():
    f = RatFunc(U2, V2)
    assert f * RatFunc(V2, U2) == 1
    assert f / f == 1
    assert (f + f).is_zero()  # char 2
    with pytest.raises(ZeroDivisionError):
        RatFunc(U2, Poly.zero(R2))
    with pytest.raises(ZeroDivisionError):
        f / RatFunc(Poly.zero(R2))
    assert f ** (-2) == RatFunc(V2**2, U2**2)


def test_ratfunc_monomial_cancellation():
    f = RatFunc(U2**3 * V2, U2 * V2**4)
    assert f.num == U2**2 and f.den == V2**3


def test_ratfunc_denominator_normalized():
    f = RatFunc(U3, 2 * V3)
    assert f.den == V3  # leading coefficient scaled to 1
    assert f.num == 2 * U3  # 1/2 == 2 in F_3
    assert f == RatFunc(2 * U3, V3)
    # the leading term is the first in terms() order: highest v-degree,
    # then highest u-degree
    g = RatFunc(U3, V3 + U3**2 + 2 * U3 * V3)
    assert g.den == 2 * V3 + 2 * U3**2 + U3 * V3 and g.num == 2 * U3


def _normalized(num: Poly, den: Poly) -> tuple[dict, dict]:
    # RatFunc's normalization with generator scans, the oracle of its
    # C-level ones: cancel the common monomial content, then scale the
    # denominator's lead (highest v-degree, then highest u-degree) to 1
    p = num.ring.p
    nt, dt = num._t, den._t
    if not nt:
        return {}, {(0, 0): 1}
    m1 = min(min(e1 for (e1, _) in nt), min(e1 for (e1, _) in dt))
    m2 = min(min(e2 for (_, e2) in nt), min(e2 for (_, e2) in dt))
    nt = {(e1 - m1, e2 - m2): c for (e1, e2), c in nt.items()}
    dt = {(e1 - m1, e2 - m2): c for (e1, e2), c in dt.items()}
    inv = pow(dt[max(dt, key=lambda e: (e[1], e[0]))], p - 2, p)
    return {e: c * inv % p for e, c in nt.items()}, {e: c * inv % p for e, c in dt.items()}


def _same_items(f: RatFunc, want: tuple[dict, dict]) -> bool:
    # numerator and denominator hold want's items, in want's order
    return (list(f.num._t.items()), list(f.den._t.items())) == tuple(list(t.items()) for t in want)


def test_ratfunc_normalization_examples():
    zero3 = Poly.zero(R3)
    cases = [
        (U2**3 * V2 + U2**2, U2**2 * V2**2 + U2**4),  # content in u alone
        (V2**2 + U2 * V2**3, U2 + V2**2),  # content in v alone
        (U3**2 * V3 + 2 * U3 * V3**2, 2 * U3 * V3**3),  # content in both
        (U3 + 1, 2 * V3**2 + U3),  # a p = 3 lead of 2
        (2 * U3, U3**2 + 2 * U3 * V3),  # the lead's u-degree decides
        (zero3, 2 * V3 + U3),  # a zero numerator
    ]
    for num, den in cases:
        assert _same_items(RatFunc(num, den), _normalized(num, den)), (str(num), str(den))
    assert _same_items(RatFunc(zero3, 2 * V3), ({}, {(0, 0): 1}))
    assert _same_items(RatFunc(U3 + 1, 2 * V3**2 + U3), ({(1, 0): 2, (0, 0): 2}, {(0, 2): 1, (1, 0): 2}))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([R2, R3]),
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    st.data(),
)
def test_ratfunc_normalization_matches_the_generator_scans(ring, shift, data):
    # both sides times a drawn monomial, so content shows in either variable
    num = data.draw(poly_strategy(ring, max_deg=6, max_terms=5))
    den = data.draw(poly_strategy(ring, max_deg=6, max_terms=5).filter(bool))
    m = Poly.monomial(ring, 1, *shift)
    for a, b in ((num, den), (num * m, den * m), (num * m, den)):
        assert _same_items(RatFunc(a, b), _normalized(a, b))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([R2, R3]), st.data())
def test_degrees_match_the_generator_forms(ring, data):
    f = data.draw(poly_strategy(ring, max_deg=9, max_terms=6))
    assert f.deg1() == max((e1 for (e1, _) in f._t), default=-1)
    assert f.deg2() == max((e2 for (_, e2) in f._t), default=-1)
    assert (Poly.zero(ring).deg1(), Poly.zero(ring).deg2()) == (-1, -1)


def test_substitute_images():
    host = ring_xy(2)
    x, y = Poly.var(host, "x"), Poly.var(host, "y")
    images = {
        "u": RatFunc(x**2, Poly.one(host) + x),
        "v": RatFunc(y**2 + x * y),
    }
    assert substitute(U2, images) == RatFunc(x**2, Poly.one(host) + x)
    assert substitute(V2, images) == RatFunc(y**2 + x * y)
    ident = {"u": RatFunc(U2), "v": RatFunc(V2)}
    f = V2**4 + U2 * V2 + U2
    assert substitute(f, ident) == RatFunc(f)


@settings(max_examples=40)
@given(poly_strategy(R2, max_deg=3, max_terms=3), poly_strategy(R2, max_deg=3, max_terms=3))
def test_substitute_homomorphism(f, g):
    host = ring_xy(2)
    x, y = Poly.var(host, "x"), Poly.var(host, "y")
    images = {
        "u": RatFunc(x**2, Poly.one(host) + x),
        "v": RatFunc(y**2 + x * y),
    }
    assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)
    assert substitute(f + g, images) == substitute(f, images) + substitute(g, images)


def _images(p: int) -> list[dict]:
    # the (u,v) -> (x,y) embedding's images, and images with both
    # denominators nontrivial (in x alone, which keeps sympy's gcd fast)
    host = ring_xy(p)
    x, y = Poly.var(host, "x"), Poly.var(host, "y")
    one = Poly.one(host)
    return [
        uv_images(EmbeddingConfig.default(p)),
        {"u": RatFunc(x**2 + y, one + x), "v": RatFunc(y**p + x, one + x + x**2)},
    ]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=1), st.data())
def test_substitute_matches_sympy(p, which, data):
    # substitute's cleared-denominator sum against sympy's fraction field
    # GF(p)(y,x), which cancels by gcd: the two fractions must agree as
    # num * den' == num' * den
    fields = pytest.importorskip("sympy.polys.fields")
    from sympy.polys.domains import GF
    from sympy.polys.orderings import lex

    f = data.draw(poly_strategy(ring_uv(p), max_deg=4, max_terms=4))
    images = _images(p)[which]
    got = substitute(f, images)
    field = fields.field("y,x", GF(p), lex)[0]

    def conv(h: Poly):
        return field.ring.from_dict({(e2, e1): c for (e1, e2), c in h.terms()})

    u, v = (field(conv(images[n].num)) / field(conv(images[n].den)) for n in "uv")
    want = field(0)
    for (e1, e2), c in f.terms():
        want += c * u**e1 * v**e2
    assert conv(got.num) * want.denom == want.numer * conv(got.den)


def _substitute_per_call(f, images):
    # substitute as it was before the power memo: every call builds its own
    # powers, in a cache of that call alone; the oracle of the tests below
    if isinstance(f, RatFunc):
        num = _substitute_per_call(f.num, images)
        den = _substitute_per_call(f.den, images)
        return num / den
    v1, v2 = f.ring.vars
    img1, img2 = images[v1], images[v2]
    _same_ring(img1, img2)
    target = img1.ring
    if f.is_zero():
        return RatFunc(Poly.zero(target))
    max1 = f.deg1()
    max2 = f.deg2()
    cache = {}

    def power(which, base, e):
        key = (which, e)
        if key not in cache:
            cache[key] = base**e
        return cache[key]

    num = Poly.zero(target)
    for (e1, e2), c in f._t.items():
        part = Poly.const(target, c)
        part = part * power(0, img1.num, e1) * power(1, img1.den, max1 - e1)
        part = part * power(2, img2.num, e2) * power(3, img2.den, max2 - e2)
        num = num + part
    den = power(1, img1.den, max1) * power(3, img2.den, max2)
    return RatFunc(num, den)


def _image_sets(p: int) -> list[tuple]:
    # (source ring, images): u's image has a monomial numerator and v's a
    # denominator of one; the last set has two nontrivial denominators
    cfg = EmbeddingConfig.default(p)
    return [(ring_uv(p), uv_images(cfg)), (ring_xv(p), xv_images(cfg)), (ring_uv(p), _images(p)[1])]


def _same_terms(got: Poly, want: Poly) -> bool:
    # equal term dicts, listed in the same order
    return list(got._t.items()) == list(want._t.items())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=2), st.booleans(), st.data())
def test_substitute_matches_the_per_call_powers(p, which, fraction, data):
    # the memo changes no term: numerator and denominator come out as the
    # per-call build gives them, from a cold memo and from a warm one
    ring, images = _image_sets(p)[which]
    f = data.draw(poly_strategy(ring, max_deg=6, max_terms=4))
    if fraction:
        den = data.draw(poly_strategy(ring, max_deg=4, max_terms=3))
        f = RatFunc(f, den) if den else RatFunc(f)
    want = _substitute_per_call(f, images)
    _power.cache_clear()
    for _ in ("cold", "warm"):
        got = substitute(f, images)
        assert got.num == want.num and got.den == want.den
        assert _same_terms(got.num, want.num) and _same_terms(got.den, want.den)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=30),
    st.data(),
)
def test_cut_substitution_matches_the_filtered_one(p, which, wx, wy, cut, data):
    # the numerator built with every product and sum truncated holds the
    # terms of weight <= cut of the full numerator, and the denominator is
    # the full one, also where the truncated numerator is zero
    ring, images = _image_sets(p)[which]
    f = data.draw(poly_strategy(ring, max_deg=6, max_terms=5))
    num, den = _substitute_terms(f, images)
    got_num, got_den = _substitute_terms(f, images, (wx, wy, cut))
    assert got_num._t == _weight_filter(num._t, wx, wy, cut)
    if f:
        assert got_den._t == den._t


def _chained_terms(f, images, cut=None):
    # _substitute_terms without the least-weight bound: every part runs
    # all four products, however far above the cut.  The oracle of the
    # bounded build's terms and their order
    img1, img2 = (images[name] for name in f.ring.vars)
    max1, max2, p = f.deg1(), f.deg2(), f.ring.p
    num: dict = {}
    for (e1, e2), c in f._t.items():
        part = _times(_times({(0, 0): c}, img1.num, e1, cut), img1.den, max1 - e1, cut)
        _add_into(num, _times(_times(part, img2.num, e2, cut), img2.den, max2 - e2, cut), p)
    den = _times(_times({(0, 0): 1}, img1.den, max1), img2.den, max2)
    return num, den if num or cut else {(0, 0): 1}


def _part_bounds(f, images, wx, wy):
    # the least-weight bound of each term's part, from the images' least
    # weights
    img1, img2 = (images[name] for name in f.ring.vars)
    l1, l2, l3, l4 = (min(wx * a + wy * b for a, b in h._t) for h in (img1.num, img1.den, img2.num, img2.den))
    max1, max2 = f.deg1(), f.deg2()
    return [l1 * e1 + l2 * (max1 - e1) + l3 * e2 + l4 * (max2 - e2) for e1, e2 in f._t]


@pytest.mark.parametrize("p", [2, 3])
def test_bounded_cut_substitution_keeps_the_chained_terms_in_order(p):
    # the bound skips only parts whose four products the chain gives as
    # {}, so numerator and denominator have the chain's terms in the
    # chain's order: with no cut, at a cut below every part's bound, at
    # each part's own bound and at drawn cuts, for weights that tie the
    # images' least terms (wx = wy; 2 * wx = wy for x^2 + y; 2 * wy = wx
    # for y^2 + x at p = 2) and ones that do not.  A part's truncated
    # product is empty exactly when its bound passes the cut (initial
    # forms multiply in a domain), so a one-term f at its own bound keeps
    # a term: a skip at a bound equal to the cut fails here
    rng = random.Random(p)
    skipped = 0
    for ring, images in _image_sets(p):
        for wx, wy in [(1, 1), (2, 2), (1, 2), (2, 1), (1, 3), (3, 2)]:
            for n in range(10):
                terms = 1 if n < 3 else rng.randint(2, 5)
                f = Poly(ring, {(rng.randrange(6), rng.randrange(6)): rng.randrange(1, p) for _ in range(terms)})
                bounds = _part_bounds(f, images, wx, wy)
                for top in [None, min(bounds) - 1, *bounds, rng.randrange(30)]:
                    if top is not None and top < 0:
                        continue
                    cut = None if top is None else (wx, wy, top)
                    num, den = _substitute_terms(f, images, cut)
                    want_num, want_den = _chained_terms(f, images, cut)
                    assert list(num._t.items()) == list(want_num.items()), (str(f), cut)
                    assert list(den._t.items()) == list(want_den.items()), (str(f), cut)
                    if top is not None and len(bounds) == 1:
                        assert bool(num) == (top >= bounds[0]), (str(f), cut)
                    skipped += top is not None and top < max(bounds)
    assert skipped


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=2), st.booleans(), st.data())
def test_cleared_pair_is_the_substituted_fraction_unnormalized(p, which, fraction, data):
    # substitute normalizes _cleared's pair once: the same terms in the
    # same order.  The pair is the per-call build's fraction, and a Poly
    # clears through _substitute_terms alone
    ring, images = _image_sets(p)[which]
    f = data.draw(poly_strategy(ring, max_deg=6, max_terms=4))
    if fraction:
        den = data.draw(poly_strategy(ring, max_deg=4, max_terms=3))
        f = RatFunc(f, den) if den else RatFunc(f)
    num, den = _cleared(f, images)
    got, want = substitute(f, images), RatFunc(num, den)
    assert _same_terms(got.num, want.num) and _same_terms(got.den, want.den)
    oracle = _substitute_per_call(f, images)
    assert num * oracle.den == oracle.num * den
    if isinstance(f, Poly):
        n, d = _substitute_terms(f, images)
        assert _same_terms(num, n) and _same_terms(den, d)


def test_cleared_rejects_a_denominator_that_maps_to_zero():
    host = ring_xy(2)
    x = RatFunc(Poly.var(host, "x"))
    with pytest.raises(ZeroDivisionError):
        _cleared(RatFunc(Poly.one(R2), U2 + V2), {"u": x, "v": x})


def test_embedding_images_are_read_only():
    cfg = EmbeddingConfig.default(2)
    host = ring_xy(2)
    for images in (uv_images(cfg), xv_images(cfg)):
        with pytest.raises(TypeError):
            images["v"] = RatFunc(Poly.var(host, "y"))
    assert uv_images(cfg) is uv_images(EmbeddingConfig.default(2))


def _overflow(f, images, limit, build=substitute):
    # the size a budget overflow names, or None when the build finishes
    with support_limit(limit):
        try:
            build(f, images)
        except BudgetExceededError as err:
            return err.size
    return None


def test_substitute_budget_does_not_depend_on_the_memo():
    # support_limit empties the memo whenever the limit changes, and a
    # build that raised leaves no entry, so a hit stands for checks that
    # passed under the same limit: at every limit a cold memo, one warmed
    # with no limit, and one warmed in the same limit block all finish or
    # name the same size.  Over F_2, (1 + x)^7, the denominator of u^7's
    # image, checks the sizes 2, 4 and 8 as it builds: at limit 3 all name
    # 4, not the final 8.
    rng = random.Random(13)
    cases = [(uv_images(EmbeddingConfig.default(2)), U2**7)]
    for p in (2, 3):
        for ring, images in _image_sets(p):
            x, y = (Poly.var(ring, name) for name in ring.vars)
            for _ in range(3):
                f = Poly(ring, {(rng.randrange(5), rng.randrange(4)): rng.randrange(1, p) for _ in range(3)})
                cases.append((images, f))
            cases.append((images, RatFunc(y**3, x**2 + 1)))
    for images, f in cases:
        named = []
        limit = 1
        while True:
            _power.cache_clear()
            cold = _overflow(f, images, limit)
            substitute(f, images)
            with support_limit(limit):
                warm = _overflow(f, images, limit)
                again = _overflow(f, images, limit)
            assert cold == warm == again, (str(f), limit)
            if cold is None:
                break
            named.append(cold)
            limit += 1
        assert _overflow(f, images, limit + 1) is None
        if f is cases[0][1]:
            assert named == [2, 4, 4, 8, 8, 8, 8]


def test_substitute_budget_matches_the_poly_level_oracle():
    # substitute builds its products and sums on raw term dicts, and a
    # fraction's result from unnormalized pairs; at every limit up to the
    # first that passes it must overflow at the first size the Poly
    # operations of _substitute_per_call name, polynomial or fraction, and
    # past it give the same terms in the same order
    rng = random.Random(29)
    for p in (2, 3):
        for ring, images in _image_sets(p):
            x, y = (Poly.var(ring, name) for name in ring.vars)
            cases = [RatFunc(y**3, x**2 + 1), RatFunc(x * y + 1, y**2 + x**3)]
            for _ in range(3):
                f = Poly(ring, {(rng.randrange(5), rng.randrange(4)): rng.randrange(1, p) for _ in range(3)})
                den = Poly(ring, {(rng.randrange(3), rng.randrange(3)): rng.randrange(1, p) for _ in range(2)})
                cases += [f, RatFunc(f, den)]
            for f in cases:
                limit = 1
                while True:
                    want = _overflow(f, images, limit, _substitute_per_call)
                    _power.cache_clear()
                    assert _overflow(f, images, limit) == want, (p, str(f), limit)
                    if want is None:
                        break
                    limit += 1
                assert limit > 1
                got, want = substitute(f, images), _substitute_per_call(f, images)
                assert _same_terms(got.num, want.num) and _same_terms(got.den, want.den)


def test_power_memo_is_keyed_on_the_budget_limit():
    # u^5 takes the powers x^10 and (1 + x)^5 of u's image.  support_limit
    # empties the memo whenever it changes the limit: built with no limit,
    # both miss under a limit, hit when called again in the block or in a
    # nested block of the same limit, and miss again under another limit,
    # inside the block and after it
    f = Poly.var(ring_uv(2), "u") ** 5
    images = uv_images(EmbeddingConfig.default(2))

    def counts():
        info = _power.cache_info()
        return info.hits, info.misses, info.currsize

    _power.cache_clear()
    substitute(f, images)
    unlimited = counts()
    with support_limit(100):
        substitute(f, images)
        first = counts()
        substitute(f, images)
        with support_limit(100):
            substitute(f, images)
        second = counts()
        with support_limit(50):
            substitute(f, images)
            other = counts()
        back = counts()
    after = counts()
    substitute(f, images)
    assert unlimited == (0, 2, 2)
    assert first == (0, 2, 2)
    assert second == (4, 2, 2)
    assert other == (0, 2, 2)
    assert back == after == (0, 0, 0)
    assert counts() == (0, 2, 2)


def _reference_level_element(rng, level, i_cap):
    # the oracle of random_level_element: the same draws, with each key
    # power built as K ** a and each summand as the RatFunc chain
    # c * K_(k,0)^a_0 * ..., normalized after every product and added to 0
    p = level.p
    out = RatFunc(Poly.zero(level.u.ring))
    for _ in range(rng.randint(1, 3)):
        part = RatFunc(Poly.const(level.u.ring, rng.randint(1, p - 1)))
        part = part * level.keys[0] ** rng.randint(0, 2)
        budget = 2 * p ** (2 * i_cap)
        picks = rng.sample(range(1, i_cap + 1), rng.randint(0, min(2, i_cap)))
        for i in sorted(picks, reverse=True):
            w = p ** (2 * i)
            top = min(p * p - 1, budget // w)
            if top < 1:
                continue
            a = rng.randint(1, top)
            budget -= a * w
            part = part * level.keys[i] ** a
        out = out + part
    return out


# the levels the ladder workloads sample, p = 2, level 1 and p = 3, level 0,
# and the deepest the CLI's pinned sweeps sample, p = 2, level 2 and p = 3,
# level 1
_SAMPLED_LEVELS = [build_tower(2, 1, 4)[1], build_tower(3, 0, 3)[0], build_tower(2, 2, 5)[2], build_tower(3, 1, 4)[1]]


def _draw(build, level, seed, limit=None):
    # the draw, or the size its budget overflow names
    with support_limit(limit):
        try:
            return build(random.Random(seed), level, i_cap=level.k + 3)
        except BudgetExceededError as err:
            return err.size


@pytest.mark.parametrize("level", _SAMPLED_LEVELS, ids=["p2-k1", "p3-k0", "p2-k2", "p3-k1"])
def test_level_sampler_key_powers_match_the_reference(level):
    # the sampler builds each summand on raw term dicts and normalizes it
    # once; every draw has the terms, in the same order, of the reference,
    # cold and warm.  It also leaves the rng where the reference does, so
    # the draw stream a sweep replays from its seed stays prefix-stable
    for seed in range(200):
        rng = random.Random(seed)
        want = _reference_level_element(rng, level, level.k + 3)
        _power.cache_clear()
        for _ in ("cold", "warm"):
            mine = random.Random(seed)
            got = random_level_element(mine, level, i_cap=level.k + 3)
            assert _same_terms(got.num, want.num) and _same_terms(got.den, want.den), seed
            assert mine.getstate() == rng.getstate(), seed


def test_level_sampler_normalizes_once_per_summand(monkeypatch):
    # a draw of n summands builds n fractions and adds them with n - 1
    # additions, each of which builds one more: 2n - 1 in all
    built = []
    init = RatFunc.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counted)
    for level in _SAMPLED_LEVELS:
        for seed in range(20):
            del built[:]
            random_level_element(random.Random(seed), level, i_cap=level.k + 3)
            assert len(built) == 2 * random.Random(seed).randint(1, 3) - 1, (level.p, level.k, seed)


def test_level_sampler_rejects_a_level_below_its_cap():
    # a level whose top key is below i_cap used to be sampled to its top key
    # instead, under the same certificate id and params
    level = build_tower(2, 1, 3)[1]
    assert max(level.keys) == 3
    with pytest.raises(ValueError, match="level 1 holds keys up to 3, below i_cap 4"):
        random_level_element(random.Random(0), level, i_cap=4)
    assert random_level_element(random.Random(0), level, i_cap=3)


def test_level_sampler_budget_does_not_depend_on_the_memo():
    # each seed draws an element of the final size and names the sizes
    # listed on the way.  At every limit below the final size the
    # reference, a cold memo, one warmed with no limit and one warmed in
    # the same limit block all name the same size.  At p = 2, level 2 the
    # keys' numerators and denominators both grow, and at seed 58 some
    # limits sit below both of one product's sizes, so there the numerator
    # must be checked first; other limits sit below a numerator whose
    # product is not the summand's last, so its check must not be skipped
    walks = [
        (_SAMPLED_LEVELS[0], 11, [3, 9, 18, 21], 21),
        (_SAMPLED_LEVELS[1], 27, [2, 4, 6, 10, 11], 11),
        (_SAMPLED_LEVELS[2], 58, [3, 9, 18, 32, 34, 68, 80, 116], 116),
    ]
    for level, seed, sizes, final in walks:
        named = []
        limit = 1
        while True:
            want = _draw(_reference_level_element, level, seed, limit)
            _power.cache_clear()
            cold = _draw(random_level_element, level, seed, limit)
            _draw(random_level_element, level, seed)
            with support_limit(limit):
                warm = _draw(random_level_element, level, seed, limit)
                again = _draw(random_level_element, level, seed, limit)
            if not isinstance(want, int):
                assert all(_same_terms(g.num, want.num) and _same_terms(g.den, want.den) for g in (cold, warm, again))
                break
            assert cold == warm == again == want, (level.p, level.k, limit)
            named.append(want)
            limit += 1
        assert limit == final and sorted(set(named)) == sizes, (level.p, level.k)


def test_equal_polys_hash_alike_by_every_route():
    # a Poly keeps its hash after the first __hash__; equal polynomials built
    # through __init__, _make, frob and arithmetic still hash alike, and
    # the power memo hits on any of them once one has been built
    for ring, a, b, c in ((R2, U2, V2, 1), (R3, U3, V3, 2)):
        p = ring.p
        terms = {(p, 0): 1, (0, p): c}
        routes = [
            Poly(ring, terms),
            Poly._make(ring, dict(terms)),
            (a + c * b).frob(1),
            (a + c * b) ** p,
            a**p + (b + a) ** p - a**p - b**p + c * b**p,
        ]
        assert len({*routes}) == 1
        assert len({hash(f) for f in routes} | {hash(f) for f in routes}) == 1
        _power.cache_clear()
        built = [_power(f, 7) for f in routes]
        assert all(g is built[0] for g in built)
        assert (_power.cache_info().hits, _power.cache_info().misses) == (len(routes) - 1, 1)


def test_support_budget():
    dense_u = Poly(R2, {(i, 0): 1 for i in range(10)})
    dense_v = Poly(R2, {(0, i): 1 for i in range(10)})
    with support_limit(5):
        with pytest.raises(BudgetExceededError) as info:
            dense_u * dense_v
        assert info.value.limit == 5
    # limit lifted outside the block
    assert (dense_u * dense_v).support_size == 100


def test_rendering_order():
    f = V2**4 + U2
    assert str(f) == "v^4 + u"
    assert str(Poly.zero(R2)) == "0"
    assert str(2 * U3**3 * V3 + Poly.const(R3, 2)) == "2*u^3*v + 2"
    assert str(RatFunc(V2**4 + U2, V2**4)) == "(v^4 + u)/(v^4)"
