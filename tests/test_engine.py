"""Expansion and value computation, with the independent oracles."""

from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valcert import engine
from valcert.embeddings import EmbeddingConfig, embed_uv
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
from valcert.sampling import random_level_element
from valcert.tower import build_tower
from valcert.values import INFINITY

R2 = ring_uv(2)
U, V = Poly.var(R2, "u"), Poly.var(R2, "v")
X, Y = Poly.var(ring_xy(2), "x"), Poly.var(ring_xy(2), "y")
LEVEL1 = build_tower(2, 1, 3)[1]
TOWER_POLYS = [g for level in build_tower(2, 4, 4) for key in level.keys.values() for g in (key.num, key.den)]


def packed(f):
    # whether value() runs f through the p = 2 row kernel
    return f.deg2() >= 4 and engine._pack_rows(f, f.deg2()) is not None


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


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_reconstruction(seed):
    rng = random.Random(seed)
    seq = p_sequence(2)
    f = rnd_poly(rng, R2, max_deg=12)
    e = expand(f, seq)
    assert e.evaluate() == f
    assert all(a < 4 for t in e.terms for a in t.a)


@settings(max_examples=210, deadline=None)
@given(
    st.sampled_from(["uv", "xy", "level", "sparse", "tower", "frob", "monomial"]),
    st.sampled_from([2, 3]),
    st.integers(min_value=0, max_value=2**30),
)
def test_value_is_min_over_expansion(source, p, seed):
    # the streamed integer keys against the explicit expansion, whose
    # reconstruction test_reconstruction checks independently.  "level"
    # draws dense p = 2 host polynomials that take the row kernel; "sparse"
    # spreads x-exponents past its gate, onto the bucketed dict path.  The
    # last three reach the radix split's empty digits: products of tower keys
    # reach zero base-S_n digits inside a nonzero D_b, and p^t-th powers of
    # a multiple of S_0, S_1 or S_2, bare or times a monomial, reach zero
    # digits D_b of base S_n^p.
    rng = random.Random(seed)
    if source == "level":
        seq = q_sequence(2)
        g = embed_uv(random_level_element(rng, LEVEL1, i_cap=2), EmbeddingConfig.default(2))
        inputs = [f for f in (g.num, g.den) if f]  # the draw can cancel to 0
        assert all(packed(f) for f in inputs if f.deg2() >= 4)
    elif source == "sparse":
        seq = q_sequence(2)
        f = rnd_poly(rng, seq.ring, max_deg=19, max_terms=6)
        f = Poly(seq.ring, {((e1 + 1) << 12, e2): c for (e1, e2), c in f.terms()}) + Y**4
        assert not packed(f)
        inputs = [f]
    elif source == "tower":
        seq = p_sequence(2)
        inputs = [rng.choice(TOWER_POLYS) * rng.choice(TOWER_POLYS)]
    elif source in ("frob", "monomial"):
        seq = q_sequence(p)
        g = rnd_poly(rng, seq.ring, max_deg=p + 2) * seq.poly(rng.randint(0, 2))
        f = g.frob(rng.randint(1, 5 - p))
        if source == "monomial":
            f = Poly.monomial(seq.ring, 1, rng.randint(0, p**3), rng.randint(0, p**3)) * f
        inputs = [f]
    else:
        seq = p_sequence(p) if source == "uv" else q_sequence(p)
        inputs = [rnd_poly(rng, seq.ring, max_deg=p**4 + 3, max_terms=6)]
    for f in inputs:
        exp = expand(f, seq)
        got = value(f, seq)
        assert got == min(exp.term_value(t) for t in exp.terms)
        # values lie in Z[1/p]: p^N is a multiple of the denominator for some N
        assert seq.p ** got.denominator.bit_length() % got.denominator == 0


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
    assert multiplicativity_sweep(p_sequence(2), 50, seed=1).passed
    assert ultrametric_sweep(q_sequence(2), 50, seed=1).passed
    assert restriction_sweep(3, 2, 20, seed=1).passed


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
    # keyseq calls polys._key_data by the name it imported
    from valcert import keyseq

    built = []
    key_data = keyseq._key_data

    def spied(key):
        built.append(key)
        return key_data(key)

    monkeypatch.setattr(keyseq, "_key_data", spied)
    x3, y3 = Poly.var(ring_xy(3), "x"), Poly.var(ring_xy(3), "y")
    for f, shared in (
        ((U + V + 1) ** 20, p_sequence(2)),
        (TOWER_POLYS[-1], p_sequence(2)),
        ((x3 + y3 + 1) ** 10 * (y3**9 + x3), q_sequence(3)),
    ):
        seq = GenSeq(shared.ring, shared.scale, shared.name)
        want = value(f, shared)
        built.clear()
        assert [value(f, seq) for _ in range(3)] == [want] * 3
        # a sparse input reaches only some of S_2..S_top
        assert len(set(built)) == len(built) and seq.poly(seq.index_for_degree(f.deg2())) in built


def test_corrupted_value_table_aborts_loudly():
    # U + V takes the dict path, (X + Y)^5 the row kernel; each corrupts a
    # private sequence, since the shared ones serve every later test
    uv, xy = GenSeq(R2, Fraction(1), "uv"), GenSeq(ring_xy(2), Fraction(1, 2), "xy")
    for seq, f in ((uv, U + V), (xy, (X + Y) ** 5)):
        assert packed(f) == (seq.ring == X.ring)
        seq.value(1)
        seq._values[1] = seq.scale  # v(S_1) deliberately collides with v(S_0)
        with pytest.raises(ValueTieError) as info:
            value(f, seq)
        message = str(info.value)
        assert "tied term values" in message
        assert "expansion" in message  # diagnostic dump present


# value() packs rows with _pack_rows at p = 2; patched to pack nothing, it
# takes the buckets
BOTH_LAYOUTS = ((engine._pack_rows, engine._ROWS), (lambda f, d2: None, engine._BUCKETS))


def test_packed_value_budget_names_the_dict_size(monkeypatch):
    # the rows and the buckets run one recursion, which checks each
    # quotient and remainder against the budget, so both layouts name one
    # size
    seq = q_sequence(2)
    f = (X + Y + 1) ** 9 * (Y**5 + X**3 * Y + X)
    assert packed(f)
    stream = engine._stream
    sizes, kernels = [], set()

    def spied(terms, kernel, *args):
        kernels.add(kernel)
        return stream(terms, kernel, *args)

    monkeypatch.setattr(engine, "_stream", spied)
    for pack, kernel in BOTH_LAYOUTS:
        monkeypatch.setattr(engine, "_pack_rows", pack)
        kernels.clear()
        with support_limit(8), pytest.raises(BudgetExceededError) as info:
            value(f, seq)
        sizes.append(info.value.size)
        assert kernels == {kernel}
    assert sizes[0] == sizes[1] > 8


def test_value_budget_checks_both_radix_stages(monkeypatch):
    # value() first divides f by S_3^2, then that remainder D_0 by S_3, and
    # checks each quotient, then each remainder.  On this input the four
    # sizes rise, so each limit below reaches one more check, and both
    # layouts must name the size Poly.__divmod__ gives for that division.
    seq = q_sequence(2)
    f = Y**32 + Y**31 * (X + X**3 + X**6)
    assert packed(f) and seq.index_for_degree(f.deg2()) == 3
    key = seq.poly(3)
    q1, d0 = divmod(f, key**2)
    q2, r2 = divmod(d0, key)
    sizes = [len(g.terms()) for g in (q1, d0, q2, r2)]
    assert sizes == sorted(set(sizes))
    for pack, kernel in BOTH_LAYOUTS:
        monkeypatch.setattr(engine, "_pack_rows", pack)
        for limit, want in zip([0] + sizes, sizes):
            with support_limit(limit), pytest.raises(BudgetExceededError) as info:
                value(f, seq)
            assert info.value.size == want, (kernel[0].__name__, limit)


def test_key_index_one_too_low_raises_on_the_digit_exponent(monkeypatch):
    # a sequence that answers S_2 where S_3 is due writes y^(p^4) as
    # S_2^(p^2) + x^(p^2): its digit exponent p^2 is no standard exponent,
    # and both layouts must stop at that first out-of-range digit
    assert packed(Y**16)
    for p, pack in ((2, engine._pack_rows), (2, lambda f, d2: None), (3, engine._pack_rows)):
        monkeypatch.setattr(engine, "_pack_rows", pack)  # p = 3 never packs
        seq = GenSeq(ring_xy(p), Fraction(1, p), "xy")
        index = seq.index_for_degree
        monkeypatch.setattr(seq, "index_for_degree", lambda d2, index=index: index(d2) - 1)
        with pytest.raises(AssertionError, match=rf"^digit exponent {p * p} >= p\^2 in base-S2 "):
            value(Poly.var(seq.ring, "y") ** p**4, seq)


def test_value_routes_dict_inputs_through_buckets(monkeypatch):
    # sparse p = 2 inputs (a tower key) and odd-p inputs that need a
    # division run the bucketed digit recursion and build no Poly per digit;
    # small inputs take the one-pass leaf and dense p = 2 ones the rows
    def no_divmod(f, g):
        raise AssertionError("value() divided a Poly")

    calls = []
    stream = engine._stream

    def counted(terms, kernel, *args):
        if kernel is engine._BUCKETS:
            calls.append(max(terms))
        return stream(terms, kernel, *args)

    key = build_tower(2, 4, 4)[4].keys[2].num
    p3 = q_sequence(3)
    f3 = (Poly.var(p3.ring, "x") + Poly.var(p3.ring, "y") + 1) ** 10
    want = [value(key, p_sequence(2)), value(f3, p3)]
    monkeypatch.setattr(Poly, "__divmod__", no_divmod)
    monkeypatch.setattr(engine, "_stream", counted)
    for f, seq, routed in (
        (key, p_sequence(2), True),
        (f3, p3, True),
        (U**3 * V**3 + V, p_sequence(2), False),
        ((X + Y) ** 5, q_sequence(2), False),
    ):
        calls.clear()
        got = value(f, seq)
        assert bool(calls) == routed and (not routed or calls[0] == f.deg2())
        if routed:
            assert got == want.pop(0)
    assert not packed(key) and not want


def test_cross_check_examples():
    seq = p_sequence(2)
    for f, label in ((U, "u"), (V, "v"), (seq.poly(3), "K3")):
        for c in (1, 2):
            cert = cross_check(RatFunc(f), c, label=label)
            assert cert.passed, (label, c, cert.actual)


def test_cross_check_values_match_spec():
    cert = cross_check(RatFunc(U), 1)
    assert cert.expected == "1"
    cert = cross_check(RatFunc(V), 1)
    assert cert.expected == "1/4"


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
    # the approximant attains the ladder value; every sample then beats it
    bound = gap_value(2, 0)
    gaps = iter([bound / 2])
    monkeypatch.setattr(artin_schreier, "value", lambda f, seq: next(gaps, bound))
    certs.append((gap_bound_sweep(tower[0], appr, cfg, samples=3, seed=1), ring_uv(2)))
    for cert, ring in certs:
        assert not cert.passed
        head, _, named = cert.actual.partition("first failure: sample 0, ")
        assert head.startswith("0 ") and named, cert.actual
        for part in named.split(", "):
            name, _, text = part.partition(" = ")
            assert name in ("f", "g") and str(parse_expr(text, ring)) == text
