"""Sparse polynomial and rational-function arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert.polys import (
    BudgetExceededError,
    NonMonicDivisorError,
    Poly,
    RatFunc,
    RingMismatchError,
    ring_uv,
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
    # second-variable degrees among their lower terms; at p = 2 the row
    # kernel value() runs on dense inputs must give the same quotient and
    # remainder, here on the host keys S_2..S_7
    from valcert.engine import _divmod_rows, _key_rows
    from valcert.keyseq import p_sequence, q_sequence

    for p, ring in ((2, R2), (3, R3)):
        seq = p_sequence(p)
        f = (U2 if p == 2 else U3) ** 3 * seq.poly(2) ** (p * p + 1) + seq.poly(3) + 1
        for i in (2, 3):
            q, r = divmod(f, seq.poly(i))
            assert (_sympy(q), _sympy(r)) == _sympy(f).div(_sympy(seq.poly(i)))
    host = q_sequence(2)
    x, y = Poly.var(host.ring, "x"), Poly.var(host.ring, "y")
    for i in range(2, 8):
        key = host.poly(i)
        f = (x**3 + x * y) * host.poly(i - 1) ** 5 + key * y**3 + x**5 * y ** (key.deg2() + 1) + 1
        q, r = divmod(f, key)
        assert (_sympy(q), _sympy(r)) == _sympy(f).div(_sympy(key))
        rq, rr = _divmod_rows(_rows(f), *_key_rows(key))
        assert (_from_rows(host.ring, rq), _from_rows(host.ring, rr)) == (q, r)
        assert rq[-1] and (not rr or rr[-1])  # no zero top rows


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
