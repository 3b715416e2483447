"""Expansion and value computation, with the independent oracles."""

from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert import engine
from valcert.embeddings import EmbeddingConfig, embed_uv, uv_images
from valcert.engine import (
    ValueTieError,
    cross_check,
    expand,
    multiplicativity_sweep,
    restriction_sweep,
    ultrametric_sweep,
    value,
)
from valcert.keyseq import GenSeq, p_sequence, q_sequence
from valcert.polys import BudgetExceededError, Poly, RatFunc, ring_uv, ring_xy, support_limit
from valcert.sampling import random_level_element, random_ratfunc
from valcert.tower import build_tower
from valcert.values import INFINITY

R2 = ring_uv(2)
U, V = Poly.var(R2, "u"), Poly.var(R2, "v")
X, Y = Poly.var(ring_xy(2), "x"), Poly.var(ring_xy(2), "y")
LEVEL1 = build_tower(2, 1, 3)[1]
TOWER_POLYS = [g for level in build_tower(2, 4, 4) for key in level.keys.values() for g in (key.num, key.den)]


def rnd_poly(rng, ring, max_deg=7, max_terms=5):
    while True:
        t = {
            (rng.randint(0, max_deg), rng.randint(0, max_deg)): rng.randint(1, ring.p - 1)
            for _ in range(rng.randint(1, max_terms))
        }
        f = Poly(ring, t)
        if f:
            return f


def test_expand_sees_the_cancellation():
    # the expansion of v^(p^2) - u must be the single key monomial, not a
    # term-by-term minimum
    seq = p_sequence(2)
    e = expand(V**4 + U, seq)
    assert len(e.terms) == 1
    t = e.terms[0]
    assert t.m == 0 and t.a == (0, 1) and t.coeff == 1


def test_expand_monomial():
    e = expand(U**3, p_sequence(2))
    assert len(e.terms) == 1 and e.terms[0].m == 3 and not e.terms[0].a


def test_expand_v5():
    seq = p_sequence(2)
    e = expand(V**5, seq)
    rendered = sorted(t.render() for t in e.terms)
    assert rendered == ["S0*S1", "S1*S2"]
    assert e.evaluate() == V**5


def test_expand_rejects():
    seq = p_sequence(2)
    with pytest.raises(ValueError):
        expand(Poly.zero(R2), seq)
    with pytest.raises(ValueError):
        expand(Poly.var(ring_uv(3), "u"), seq)


def test_value_examples():
    seq = p_sequence(2)
    assert value(V**4 + U, seq) == Fraction(17, 16)
    for m in (0, 1, 5):
        assert value(U**m, seq) == m
    assert value(V**5, seq) == Fraction(5, 4)
    assert value(Poly.zero(R2), seq) is INFINITY


def test_value_ratfunc():
    seq = p_sequence(2)
    assert value(RatFunc(U, V), seq) == Fraction(3, 4)
    f = RatFunc(V**3 + U, V**2 + U * V)
    assert value(f / f, seq) == 0
    assert value(RatFunc(Poly.one(R2), V**2), seq) == Fraction(-1, 2)
    assert value(RatFunc(Poly.zero(R2), V), seq) is INFINITY


def test_value_checks_the_ring_before_zero():
    # zero on a mismatched ring raises as a nonzero input does, as a Poly
    # and as a RatFunc
    seq = p_sequence(2)
    for ring in (ring_xy(2), ring_uv(3)):
        for f in (Poly.zero(ring), Poly.one(ring)):
            for g in (f, RatFunc(f)):
                with pytest.raises(ValueError, match="does not match"):
                    value(g, seq)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_reconstruction(seed):
    rng = random.Random(seed)
    seq = p_sequence(2)
    f = rnd_poly(rng, R2, max_deg=12)
    e = expand(f, seq)
    assert e.evaluate() == f
    assert all(a < 4 for t in e.terms for a in t.a)


def leaf_poly(rng, ring):
    # up to six terms of y-degree in [p^2, p^4), the closed-form base-S_2
    # digits of value(), one of them at q = e2 // p^2 >= 2, where C(q, j)
    # mod p need not be 1
    p2 = ring.p**2
    t = {(rng.randint(0, 7), rng.randrange(p2, p2 * p2)): rng.randint(1, ring.p - 1) for _ in range(5)}
    t[rng.randint(0, 7), rng.randrange(2 * p2, p2 * p2)] = rng.randint(1, ring.p - 1)
    return Poly(ring, t)


@settings(max_examples=280, deadline=None)
@given(
    st.sampled_from(["uv", "xy", "level", "sparse", "tower", "frob", "monomial"]),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=2**30),
)
def test_value_is_min_over_expansion(source, p, seed):
    # the streamed integer keys against the explicit expansion, whose
    # reconstruction test_reconstruction checks independently.  "level"
    # draws dense p = 2 host polynomials of the ladder; "sparse" spreads
    # x-exponents thousands apart, as the tower's keys do; these and
    # "tower" are p = 2 alone.  The last three reach the radix split's
    # empty digits: products of tower keys reach zero base-S_n digits inside
    # a nonzero D_b, and p^t-th powers of a multiple of S_0, S_1 or S_2,
    # bare or times a monomial, reach zero digits D_b of base S_n^p.  "uv"
    # and "xy" add a draw for the closed-form base-S_2 digits; at p = 2
    # every nonzero binomial is 1, so only p >= 3 tests their coefficients
    rng = random.Random(seed)
    if source == "level":
        seq = q_sequence(2)
        g = embed_uv(random_level_element(rng, LEVEL1, i_cap=2), EmbeddingConfig.default(2))
        inputs = [f for f in (g.num, g.den) if f]  # the draw can cancel to 0
    elif source == "sparse":
        seq = q_sequence(2)
        f = rnd_poly(rng, seq.ring, max_deg=19, max_terms=6)
        f = Poly(seq.ring, {((e1 + 1) << 12, e2): c for (e1, e2), c in f.terms()}) + Y**4
        inputs = [f]
    elif source == "tower":
        seq = p_sequence(2)
        inputs = [rng.choice(TOWER_POLYS) * rng.choice(TOWER_POLYS)]
    elif source in ("frob", "monomial"):
        seq = q_sequence(p)
        g = rnd_poly(rng, seq.ring, max_deg=p + 2) * seq.poly(rng.randint(0, 2))
        f = g.frob(rng.randint(1, max(1, 5 - p)))
        if source == "monomial":
            f = Poly.monomial(seq.ring, 1, rng.randint(0, p**3), rng.randint(0, p**3)) * f
        inputs = [f]
    else:
        seq = p_sequence(p) if source == "uv" else q_sequence(p)
        inputs = [rnd_poly(rng, seq.ring, max_deg=p**4 + 3, max_terms=6), leaf_poly(rng, seq.ring)]
    for f in inputs:
        exp = expand(f, seq)
        got = value(f, seq)
        assert got == min(exp.term_value(t) for t in exp.terms)
        # values lie in Z[1/p]: p^N is a multiple of the denominator for some N
        assert seq.p ** got.denominator.bit_length() % got.denominator == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_streamed_keys_are_the_expansion_term_values(p):
    # every key value() streams, and their count, against the term values
    # of expand(), which finds the base-S_2 digits by division, on inputs
    # of y-degree p^2 to p^4.  In S_2^j * g, with g of y-degree below p^2,
    # the binomial rows of (S_2 + x)^q collide and must cancel mod p down
    # to g's own terms times S_2^j
    from math import comb

    from valcert.polys import _bucket

    assert engine._lucas(p) == tuple(
        tuple((j, q - j, comb(q, j) % p) for j in range(q) if comb(q, j) % p) for q in range(p * p)
    )
    rng = random.Random(f"leaf-keys:{p}")
    for seq in (p_sequence(p), q_sequence(p)):
        x, y = (Poly.var(seq.ring, name) for name in seq.ring.vars)
        s2 = seq.poly(2)
        inputs = [leaf_poly(rng, seq.ring) for _ in range(4)]
        inputs += [s2 ** rng.randrange(2, p * p - 1) * rnd_poly(rng, seq.ring, max_deg=p * p - 1) for _ in range(3)]
        # y^(p^4 - 1), whose p^2 binomials C(p^2 - 1, j) are all nonzero
        inputs += [(s2 + x) ** (p * p - 1) * y ** (p * p - 1), s2 ** (p * p - 2) * (x + y + 1) ** (2 * p)]
        den, coefs = seq.value_coefs(2)
        for f in inputs:
            assert p * p <= f.deg2() < p**4
            exp = expand(f, seq)
            keys = set()
            count = engine._stream(_bucket(f._t), seq, coefs, 0, keys)
            assert count == len(exp.terms) == len(keys)
            assert {Fraction(k, den) for k in keys} == {exp.term_value(t) for t in exp.terms}


def test_multiplicativity_seeded():
    seq = p_sequence(2)
    rng = random.Random("unit:mult")
    for _ in range(60):
        f, g = rnd_poly(rng, R2), rnd_poly(rng, R2)
        assert value(f * g, seq) == value(f, seq) + value(g, seq)


def test_ultrametric_seeded():
    for seq in (p_sequence(2), q_sequence(3)):
        rng = random.Random("unit:ultra")
        for _ in range(60):
            f, g = rnd_poly(rng, seq.ring), rnd_poly(rng, seq.ring)
            s = f + g
            vf, vg, vs = value(f, seq), value(g, seq), value(s, seq)
            lo = min(vf, vg)
            if s.is_zero():
                assert vs is INFINITY
            else:
                assert vs >= lo
            if vf != vg:
                assert vs == lo


def test_sweep_certificates():
    # a passing sweep reads "<samples> <claim>" on both sides
    for cert, want in (
        (multiplicativity_sweep(p_sequence(2), 50, seed=1), "50 products split"),
        (ultrametric_sweep(q_sequence(2), 50, seed=1), "50 sums dominated"),
        (restriction_sweep(3, 2, 20, seed=1), "20 restrictions agree"),
    ):
        assert cert.passed
        assert (cert.expected, cert.actual) == (want, want)


def test_distinct_values_exhaustive_small():
    # all standard-monomial values with n <= 3, m <= 16, a_i < p^2 at p=2
    seq = p_sequence(2)
    seen = set()
    for m in range(17):
        for a1 in range(4):
            for a2 in range(4):
                for a3 in range(4):
                    val = seq.scale * m + seq.value(1) * a1 + seq.value(2) * a2 + seq.value(3) * a3
                    seen.add(val)
    assert len(seen) == 17 * 4 * 4 * 4


def test_value_builds_each_key_data_once(monkeypatch):
    # a fresh sequence builds the division data of S_n, with S_n^p's, on the
    # first value() that divides by it; later calls reuse it and agree.
    # keyseq calls polys._key_data, and engine polys._divmod_buckets, by the
    # name it imported.  Every S_n divided by has n >= 3: the base-S_2
    # digits come in closed form, so an input of y-degree below p^4 builds
    # no key data and divides nothing
    from valcert import keyseq

    built, divided = [], []
    key_data, divmod_buckets = keyseq._key_data, engine._divmod_buckets

    def spied(key):
        built.append(key)
        return key_data(key)

    def counted(levels, *args):
        divided.append(max(levels))
        return divmod_buckets(levels, *args)

    monkeypatch.setattr(keyseq, "_key_data", spied)
    monkeypatch.setattr(engine, "_divmod_buckets", counted)
    x3, y3 = Poly.var(ring_xy(3), "x"), Poly.var(ring_xy(3), "y")
    for f, shared in (
        ((U + V + 1) ** 20, p_sequence(2)),
        (TOWER_POLYS[-1], p_sequence(2)),
        ((x3 + y3 + 1) ** 10 * (y3**81 + x3), q_sequence(3)),
        ((x3 + y3 + 1) ** 10 * (y3**70 + x3), q_sequence(3)),
    ):
        seq = GenSeq(shared.ring, shared.scale, shared.name)
        want = value(f, shared)
        built.clear()
        divided.clear()
        assert [value(f, seq) for _ in range(3)] == [want] * 3
        top = seq.index_for_degree(f.deg2())
        if top == 2:
            assert not built and not divided
            continue
        # a sparse input reaches only some of S_3..S_top
        assert len(set(built)) == len(built) and seq.poly(top) in built and divided
        assert all(g.deg2() >= seq.p**4 for g in built)


def test_corrupted_value_table_aborts_loudly():
    # U + V takes the one-pass leaf, (X + Y)^5 the bucketed divisions; each
    # corrupts a private sequence, since the shared ones serve every later
    # test
    uv, xy = GenSeq(R2, Fraction(1), "uv"), GenSeq(ring_xy(2), Fraction(1, 2), "xy")
    for seq, f in ((uv, U + V), (xy, (X + Y) ** 5)):
        seq.value(1)
        seq._values[1] = seq.scale  # v(S_1) deliberately collides with v(S_0)
        with pytest.raises(ValueTieError) as info:
            value(f, seq)
        message = str(info.value)
        assert "tied term values" in message
        assert "expansion" in message  # diagnostic dump present


def test_tie_diagnostic_lists_30_terms_and_counts_the_rest():
    # the dump in a tie fault lists the first 30 terms of the expansion,
    # then how many it left out; (U + V + 1)^15 has more than 30 terms.
    # The private sequence is corrupted as criterion 10 corrupts its own
    seq = GenSeq(R2, Fraction(1), "uv")
    seq.value(1)
    seq._values[1] = seq.scale
    f = (U + V + 1) ** 15
    n = len(expand(f, seq).terms)
    assert n > 30
    with pytest.raises(ValueTieError) as info:
        value(f, seq)
    listing = str(info.value).split("\nexpansion:\n")[1].splitlines()
    assert len(listing) == 31 and all(" value " in row for row in listing[:30])
    assert listing[30] == f"  ... {n - 30} more terms"


def test_packed_value_budget_names_the_dict_size(monkeypatch):
    # value() streams a dense p = 2 input through the bucketed recursion,
    # which checks each quotient and remainder against the budget, so it
    # names the size of the first one past the limit: here the quotient of
    # the first division, by S_3^2, as Poly.__divmod__ builds it
    seq = q_sequence(2)
    f = (X + Y + 1) ** 9 * (Y**40 + X**3 * Y + X)
    assert seq.index_for_degree(f.deg2()) == 3
    stream = engine._stream
    streamed = []

    def spied(levels, *args):
        streamed.append(max(levels))
        return stream(levels, *args)

    monkeypatch.setattr(engine, "_stream", spied)
    quotient, _ = divmod(f, seq.poly(seq.index_for_degree(f.deg2())) ** 2)
    with support_limit(8), pytest.raises(BudgetExceededError) as info:
        value(f, seq)
    assert streamed == [f.deg2()]
    assert info.value.size == quotient.support_size > 8


def test_value_budget_checks_both_radix_stages():
    # value() first divides f by S_3^2, then that remainder D_0 by S_3, and
    # checks each quotient, then each remainder.  On this input the four
    # sizes rise, so each limit below reaches one more check, and value()
    # must name the size Poly.__divmod__ gives for that division.  At the
    # same limits each of the two divisions, as expand() runs them, names
    # its quotient's size before its remainder's, or passes.
    seq = q_sequence(2)
    f = Y**32 + Y**31 * (X + X**3 + X**6)
    assert seq.index_for_degree(f.deg2()) == 3
    key = seq.poly(3)
    square = key**2
    q1, d0 = divmod(f, square)
    q2, r2 = divmod(d0, key)
    sizes = [len(g.terms()) for g in (q1, d0, q2, r2)]
    assert sizes == sorted(set(sizes))
    for limit, want in zip([0] + sizes, sizes):
        with support_limit(limit), pytest.raises(BudgetExceededError) as info:
            value(f, seq)
        assert info.value.size == want, limit
        for dividend, divisor, parts in ((f, square, (q1, d0)), (d0, key, (q2, r2))):
            first = next((g.support_size for g in parts if g.support_size > limit), None)
            named = None
            with support_limit(limit):
                try:
                    divmod(dividend, divisor)
                except BudgetExceededError as err:
                    named = err.size
            assert named == first, (limit, str(divisor))


def test_key_index_one_too_low_raises_on_the_digit_exponent(monkeypatch):
    # a sequence that answers S_2 where S_3 is due writes y^(p^4) as
    # S_2^(p^2) + x^(p^2): its digit exponent p^2 is no standard exponent,
    # and value() must stop at that first out-of-range digit
    for p in (2, 3):
        seq = GenSeq(ring_xy(p), Fraction(1, p), "xy")
        index = seq.index_for_degree
        monkeypatch.setattr(seq, "index_for_degree", lambda d2, index=index: index(d2) - 1)
        with pytest.raises(AssertionError, match=rf"^digit exponent {p * p} >= p\^2 in base-S2 "):
            value(Poly.var(seq.ring, "y") ** p**4, seq)


def test_value_routes_dict_inputs_through_buckets(monkeypatch):
    # inputs of y-degree p^2 or more, sparse p = 2 ones (a tower key), dense
    # p = 2 ones and odd-p ones, run the bucketed digit recursion and build
    # no Poly per digit; small inputs take the one-pass leaf
    def no_divmod(f, g):
        raise AssertionError("value() divided a Poly")

    calls = []
    stream = engine._stream

    def counted(levels, *args):
        calls.append(max(levels))
        return stream(levels, *args)

    key = build_tower(2, 4, 4)[4].keys[2].num
    p3 = q_sequence(3)
    f3 = (Poly.var(p3.ring, "x") + Poly.var(p3.ring, "y") + 1) ** 10
    want = [value(key, p_sequence(2)), value(f3, p3), value((X + Y) ** 5, q_sequence(2))]
    monkeypatch.setattr(Poly, "__divmod__", no_divmod)
    monkeypatch.setattr(engine, "_stream", counted)
    for f, seq, routed in (
        (key, p_sequence(2), True),
        (f3, p3, True),
        (U**3 * V**3 + V, p_sequence(2), False),
        ((X + Y) ** 5, q_sequence(2), True),
    ):
        calls.clear()
        got = value(f, seq)
        assert bool(calls) == routed and (not routed or calls[0] == f.deg2())
        if routed:
            assert got == want.pop(0)
    assert not want


def test_cross_check_examples():
    seq = p_sequence(2)
    for f, label in ((U, "u"), (V, "v"), (seq.poly(3), "K3")):
        for c in (1, 2):
            cert = cross_check(RatFunc(f), c)
            assert cert.passed, (label, c, cert.actual)


def test_cross_check_values_match_spec():
    cert = cross_check(RatFunc(U), 1)
    assert cert.expected == "1"
    cert = cross_check(RatFunc(V), 1)
    assert cert.expected == "1/4"


def test_cleared_routes_build_no_ratfunc(monkeypatch):
    # the cross-check and the ceiling value the cleared pair, so neither
    # normalizes a fraction on the way, and a Poly is checked as it is:
    # its certificate is the one of the same element as a fraction.  The
    # inputs and the images are built first
    from valcert.artin_schreier import _ceiling_value

    seq = p_sequence(3)
    cfg = EmbeddingConfig(3, 2)
    rng = random.Random("no-ratfunc")
    polys = [seq.poly(2), Poly.var(seq.ring, "u")]
    cases = [RatFunc(Poly.zero(seq.ring)), RatFunc(seq.poly(2), seq.poly(1)), *polys]
    cases += [random_ratfunc(rng, seq.ring) for _ in range(4)]

    def fields(cert):
        return cert.id, cert.params, cert.expected, cert.actual, cert.status

    as_fractions = [fields(cross_check(RatFunc(f), 2)) for f in polys]
    uv_images(cfg)
    monkeypatch.setattr(RatFunc, "__init__", lambda *args: pytest.fail("built a RatFunc"))
    for f in cases:
        assert cross_check(f, 2).passed, str(f)
        _ceiling_value(f, cfg, q_sequence(3))
    assert [fields(cross_check(f, 2)) for f in polys] == as_fractions


def test_failing_sweeps_name_their_first_counterexample(monkeypatch):
    # a value() that returns a fresh number on every call breaks every
    # sweep at its first sample; each certificate must name that sample in
    # a rendering that parses back, so the CLI can replay it
    from valcert import artin_schreier
    from valcert.artin_schreier import build_approximants, gap_bound_sweep, gap_value
    from valcert.parsing import parse_expr

    cfg = EmbeddingConfig.default(2)
    tower = build_tower(2, 0, 3)
    appr = build_approximants(tower, 0, cfg)[0]

    counter = iter(range(10**6))
    monkeypatch.setattr(engine, "value", lambda f, seq: Fraction(next(counter)))
    certs = [
        (multiplicativity_sweep(p_sequence(2), 3, seed=1), ring_uv(2)),
        (ultrametric_sweep(q_sequence(3), 3, seed=1), ring_xy(3)),
        (restriction_sweep(3, 2, 3, seed=1), ring_uv(3)),
    ]
    # each engine sweep keeps its claim and counts the samples that held it
    for (cert, _), claim in zip(certs, ("products split", "sums dominated", "restrictions agree")):
        assert cert.expected == f"3 {claim}"
        first = "first failure: sample 0 (replay: --seed 1 --samples 1), "
        assert cert.actual.startswith(f"0 {claim.split()[-1]}; {first}"), cert.actual
    # the approximant attains the ladder value; every sample then beats it.
    # The approximant's gap is memoized, so the memo is cleared for the
    # first two patched calls to be that gap's, v(N - x*D) and v(D); the
    # entry they leave is 2 * (bound/2 - 0), the true gap
    bound = gap_value(2, 0)
    gaps = iter([bound / 2, 0])
    artin_schreier._attained_gap.cache_clear()
    monkeypatch.setattr(artin_schreier, "value", lambda f, seq: next(gaps, bound))
    certs.append((gap_bound_sweep(tower[0], appr, cfg, samples=3, seed=1), ring_uv(2)))
    for cert, ring in certs:
        assert not cert.passed
        head, _, named = cert.actual.partition("first failure: sample 0 (replay: --seed 1 --samples 1), ")
        assert head.startswith("0 ") and named, cert.actual
        for part in named.split(", "):
            name, _, text = part.partition(" = ")
            assert name in ("f", "g") and str(parse_expr(text, ring)) == text
