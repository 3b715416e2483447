"""Sparse polynomial and rational-function arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert.embeddings import EmbeddingConfig, uv_images, xv_images
from valcert.polys import (
    BudgetExceededError,
    NonMonicDivisorError,
    Poly,
    RatFunc,
    RingMismatchError,
    _power,
    _same_ring,
    ring_uv,
    ring_xv,
    ring_xy,
    substitute,
    support_limit,
)

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


def _rows(f: Poly) -> list[int]:
    rows = [0] * (f.deg2() + 1)
    for e1, e2 in f._t:
        rows[e2] |= 1 << e1
    return rows


def _from_rows(ring, rows: list[int]) -> Poly:
    return Poly(ring, {(e1, e2): 1 for e2, row in enumerate(rows) for e1 in range(row.bit_length()) if row >> e1 & 1})


def test_divmod_by_key_polynomials_matches_sympy():
    # the divisions value() makes: sparse monic keys with repeated
    # second-variable degrees among their lower terms.  _divmod_buckets,
    # which value() runs on sparse and odd-p inputs, consumes its dividend,
    # which becomes the remainder, and leaves no empty row.  At p = 2 the
    # row kernel value() runs on dense inputs must give the same quotient
    # and remainder, here on the host keys S_2..S_7.
    from valcert.engine import _divmod_rows
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
        rq, rr = _divmod_rows(_rows(f), *_key_data(key), 2)
        assert (_from_rows(host.ring, rq), _from_rows(host.ring, rr)) == (q, r)
        assert rq[-1] and (not rr or rr[-1])  # no zero top rows


def _tower_parts() -> list[Poly]:
    # numerators and denominators of build_tower(2, 4, 4) with 32 terms or
    # more (40 to 344), exponents near 2^16: the sparse operands of the
    # tower's identity checks
    from valcert.tower import build_tower

    parts = []
    for level in build_tower(2, 4, 4):
        for f in (*level.keys.values(), *level.unit_factors.values(), *level.drifts.values()):
            parts += [f.num, f.den]
    return [f for f in parts if f.support_size >= 32]


def test_gf2_product_matches_dict_loop_and_sympy():
    # _xor_product, the packed F_2 product RatFunc.__eq__ compares, unpacked
    # against the dict loop's support and against sympy: on the sparse
    # tower operands, and on dense ones whose products cancel so often that
    # terms leave and re-enter the dict loop's result
    from valcert.polys import _mul_dict, _xor_product

    parts = _tower_parts()
    assert len(parts) >= 4 and max(f.support_size for f in parts) > 300
    pairs = list(zip(parts, parts[1:] + parts[:1]))
    rng = random.Random("gf2-order")
    for _ in range(20):
        f, g = (Poly(R2, {(rng.randrange(9), rng.randrange(7)): 1 for _ in range(60)}) for _ in "fg")
        pairs.append((f, g))
    for f, g in pairs:
        big, small = (f._t, g._t) if len(f._t) > len(g._t) else (g._t, f._t)
        s = (f.deg2() + g.deg2()).bit_length()
        mask = (1 << s) - 1
        packed = {(k >> s, k & mask) for k in _xor_product(big, small, s)}
        assert packed == set(_mul_dict(big, small, 2))
        assert _sympy(Poly(f.ring, dict.fromkeys(packed, 1))) == _sympy(f) * _sympy(g)


def _recursion_sides() -> list[tuple[RatFunc, RatFunc]]:
    # the two sides of every k = 4 twisted- and drift-recursion identity of
    # build_tower(2, 4, 4), as the certificates hand them to RatFunc.__eq__
    from valcert.tower import build_tower, verify_drift_recursion, verify_twisted_recursion

    level = build_tower(2, 4, 4)[4]
    sides = []
    eq = RatFunc.__eq__

    def spy(a, b):
        sides.append((a, b))
        return eq(a, b)

    RatFunc.__eq__ = spy
    try:
        for i in range(2, 5):
            assert verify_twisted_recursion(level, i).passed
            assert verify_drift_recursion(level, i).passed
    finally:
        RatFunc.__eq__ = eq
    return sides


def _toggled(f: RatFunc) -> RatFunc:
    # f with the first term of its numerator removed
    (e1, e2), _ = f.num.terms()[0]
    return RatFunc(f.num + Poly.monomial(f.ring, 1, e1, e2), f.den)


def test_packed_equality_matches_poly_products():
    # at p = 2 RatFunc.__eq__ compares packed sets; the Poly products it
    # replaces are the oracle, on equal, unequal, mixed-size and zero pairs
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
    # the shift must cover the right cross product too, or u + 1 and v + 1
    # pack alike
    pairs.append((RatFunc(U2 + 1), RatFunc(V2 + 1)))
    for a, b in pairs:
        want = a.num * b.den == b.num * a.den
        assert (a == b) is want and (b == a) is want
    assert [a == b for a, b in pairs] == [True] * 6 + [False] * 6 + [True, False, True, False, False, True, False]
    assert zero == 0 and not sides[0][0] == 0


def test_packed_equality_budget_names_the_poly_product_sizes():
    # under a budget, == raises with the size the Poly products would name,
    # the left one first: below both sizes, and between them either way
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
                with pytest.raises(BudgetExceededError) as packed:
                    x == y
                with pytest.raises(BudgetExceededError) as oracle:
                    x.num * y.den == y.num * x.den
                assert packed.value.size == oracle.value.size == size
                assert packed.value.limit == limit


def test_ratfunc_equality_routes_by_characteristic(monkeypatch):
    # at p = 2 the equality builds two _xor_product sets and no Poly
    # product; at p = 3 it still multiplies
    from valcert import polys

    f2 = RatFunc(U2 * V2 + 1, V2**3 + U2)
    g2 = RatFunc((U2 * V2 + 1) * (V2 + 1), (V2**3 + U2) * (V2 + 1))
    f3 = RatFunc(U3 * V3 + 1, V3**3 + U3)
    g3 = RatFunc(2 * U3 * V3 + 2, 2 * V3**3 + 2 * U3)
    routed = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda *args: routed.append("Poly.__mul__") or mul(*args))
    xor = polys._xor_product
    monkeypatch.setattr(polys, "_xor_product", lambda *args: routed.append("_xor_product") or xor(*args))
    assert f2 == g2
    assert routed == ["_xor_product", "_xor_product"]
    routed.clear()
    assert f3 == g3
    assert routed == ["Poly.__mul__", "Poly.__mul__"]


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


def test_embedding_images_are_read_only():
    cfg = EmbeddingConfig.default(2)
    host = ring_xy(2)
    for images in (uv_images(cfg), xv_images(cfg)):
        with pytest.raises(TypeError):
            images["v"] = RatFunc(Poly.var(host, "y"))
    assert uv_images(cfg) is uv_images(EmbeddingConfig.default(2))


def _overflow(f, images, limit):
    # the size a budget overflow names, or None when substitute finishes
    with support_limit(limit):
        try:
            substitute(f, images)
        except BudgetExceededError as err:
            return err.size
    return None


def test_substitute_budget_does_not_depend_on_the_memo():
    # a memo hit replays the budget checks of its power's build, so at every
    # limit a cold and a warm memo both finish or name the same size.  Over
    # F_2, (1 + x)^7, the denominator of u^7's image, checks the sizes 2, 4
    # and 8 as it builds: at limit 3 both name 4, not the final 8.
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
            warm = _overflow(f, images, limit)
            assert cold == warm, (str(f), limit)
            if cold is None:
                break
            named.append(cold)
            limit += 1
        assert _overflow(f, images, limit + 1) is None
        if f is cases[0][1]:
            assert named == [2, 4, 4, 8, 8, 8, 8]


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
