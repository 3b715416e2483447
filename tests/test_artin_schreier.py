"""The degree-p extension: generator, ladder, ceiling, dependence evidence."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from valcert import artin_schreier, polys
from valcert.artin_schreier import (
    _attained_gap,
    _ceiling_value,
    _frobenius_gap,
    _gap_exceeds,
    build_approximants,
    ceiling_check,
    ceiling_family,
    dependence_report,
    gap_bound_sweep,
    gap_element_certificates,
    gap_value,
    ladder,
    verify_approximant_gap,
)
from valcert.embeddings import EmbeddingConfig, embed_uv, uv_images, xv_images
from valcert.engine import host_value, value
from valcert.keyseq import p_sequence, q_sequence
from valcert.polys import (
    BudgetExceededError,
    Poly,
    RatFunc,
    Ring,
    _power,
    _substitute_terms,
    ring_uv,
    ring_xv,
    ring_xy,
    substitute,
    support_limit,
)
from valcert.sampling import random_level_element, random_ratfunc
from valcert.tower import build_tower
from valcert.values import omega


@pytest.fixture(scope="module")
def setup2():
    cfg = EmbeddingConfig.default(2)
    tower = build_tower(2, 2, 4)
    return cfg, tower, build_approximants(tower, 2, cfg)


@pytest.fixture(scope="module")
def setup3():
    cfg = EmbeddingConfig.default(3)
    tower = build_tower(3, 1, 3)
    return cfg, tower, build_approximants(tower, 1, cfg)


def test_embedding_config_validation():
    EmbeddingConfig(3, 2)
    EmbeddingConfig(3, 4)
    with pytest.raises(ValueError):
        EmbeddingConfig(3, 3)  # (p-1) does not divide c
    with pytest.raises(ValueError):
        EmbeddingConfig(3, 0)
    with pytest.raises(ValueError):
        EmbeddingConfig(4, 1)


def test_embeddings():
    cfg = EmbeddingConfig(2, 1)
    host = ring_xy(2)
    x, y = Poly.var(host, "x"), Poly.var(host, "y")
    u = Poly.var(ring_uv(2), "u")
    assert embed_uv(u, cfg) == RatFunc(x**2, Poly.one(host) + x)
    v_mid = Poly.var(ring_xv(2), "v")
    assert substitute(v_mid, xv_images(cfg)) == RatFunc(y**2 + x * y)
    x_mid = Poly.var(ring_xv(2), "x")
    assert substitute(x_mid, xv_images(cfg)) == RatFunc(x)


@pytest.mark.parametrize("p", [2, 3])
def test_generator(p):
    # 1/x is an Artin-Schreier generator: t^p - t - 1/u = 0 at t = 1/x
    cfg = EmbeddingConfig.default(p)
    t = 1 / RatFunc(Poly.var(ring_xy(p), "x"))
    one_over_u = 1 / embed_uv(Poly.var(ring_uv(p), "u"), cfg)
    assert host_value(t, cfg) == Fraction(-1, p)
    assert (t**p - t - one_over_u).is_zero()


def test_host_value_examples():
    cfg = EmbeddingConfig.default(2)
    host = ring_xy(2)
    x = RatFunc(Poly.var(host, "x"))
    u_img = embed_uv(Poly.var(ring_uv(2), "u"), cfg)
    assert host_value(x**2, cfg) == 1
    assert host_value(-u_img * x, cfg) == Fraction(3, 2)  # 2 - 1/p
    # accepts intermediate-field coordinates directly
    mid = ring_xv(2)
    f = RatFunc(Poly.one(mid), Poly.var(mid, "x"))
    assert host_value(f, cfg) == Fraction(-1, 2)
    # and base coordinates, where it restricts to the base valuation
    assert host_value(Poly.var(ring_uv(2), "u"), cfg) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_gap_element_certificates(p):
    for cert in gap_element_certificates(EmbeddingConfig.default(p)):
        assert cert.passed, (cert.id, cert.actual)


def test_approximant_shape(setup2):
    cfg, tower, apprs = setup2
    seq = p_sequence(2)
    v = seq.poly(1)
    assert apprs[0].element == RatFunc(v**2)
    # h_k - h_(k-1) = (-1)^k * K_(k,k+1)^p
    for k in (1, 2):
        assert apprs[k].element - apprs[k - 1].element == tower[k].keys[k + 1] ** 2


def test_gap_ladder_p2(setup2):
    cfg, _, apprs = setup2
    frozen = {0: Fraction(17, 16), 1: Fraction(273, 256), 2: Fraction(4369, 4096)}
    for appr in apprs:
        cert = verify_approximant_gap(appr, cfg)
        assert cert.passed, cert.actual
        assert gap_value(2, appr.k) == frozen[appr.k]


def test_gap_ladder_p3(setup3):
    cfg, _, apprs = setup3
    cert = verify_approximant_gap(apprs[0], cfg)
    assert cert.passed and gap_value(3, 0) == Fraction(82, 81)


def test_tail_above_omega(setup2):
    cfg, _, apprs = setup2
    host = q_sequence(2)
    for appr in apprs:
        assert value(appr.tail(cfg), host) > omega(2)


def test_gap_bound_sweep(setup2):
    cfg, tower, apprs = setup2
    host = q_sequence(2)
    for k in (0, 1):
        cert = gap_bound_sweep(tower[k], apprs[k], cfg, samples=15, seed=5, host_seq=host)
        assert cert.passed, cert.actual


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", [0, 1])
def test_frobenius_gap_oracle(p, k, setup2, setup3):
    # the sweeps and the ladder certificate take v(g^p - x^p) as
    # p * v(g - x); the direct expansion must agree
    cfg, tower, apprs = setup2 if p == 2 else setup3
    host = q_sequence(p)
    x = RatFunc(Poly.var(ring_xy(p), "x"))
    rng = random.Random(f"frobenius-oracle:{p}:{k}")
    samples = [apprs[k].element]
    # i_cap = k + 1 keeps the level-1 draws at p = 3 small; at k + 2 one
    # of them embeds to 468k terms
    samples += [random_level_element(rng, tower[k], i_cap=k + 1) for _ in range(4)]
    for g in samples:
        e = embed_uv(g, cfg)
        assert value(e**p - x**p, host) == p * value(e - x, host)
    assert value(embed_uv(apprs[k].element, cfg) ** p - x**p, host) == gap_value(p, k)


def _spy_values(monkeypatch) -> list:
    # the list of every input artin_schreier values from now on
    valued = []

    def spied(f, seq):
        valued.append(f)
        return value(f, seq)

    monkeypatch.setattr(artin_schreier, "value", spied)
    return valued


@pytest.mark.parametrize("p,k", [(2, 0), (2, 1), (3, 0)])
def test_gap_exceeds_matches_the_frobenius_gap(p, k, setup2, setup3, monkeypatch):
    # the sweep's truncated decision against the full value it replaces, on
    # the sweep's own draws.  Bound -1 leaves no term of weight <= T, so
    # only D is ever valued; the gap itself answers no and the gap less
    # p^-10 yes
    cfg, tower, apprs = setup2 if p == 2 else setup3
    host = q_sequence(p)
    x = RatFunc(Poly.var(ring_xy(p), "x"))
    rng = random.Random(f"gap-exceeds:{p}:{k}")
    valued = _spy_values(monkeypatch)
    answers = set()
    for _ in range(40):
        g = random_level_element(rng, tower[k], i_cap=k + 3)
        gap = _frobenius_gap(g, cfg, host)
        den = (embed_uv(g, cfg) - x).den
        tiny = Fraction(1, p**10)
        for bound in (Fraction(-1), Fraction(0), gap - tiny, gap, gap + tiny, gap_value(p, k)):
            valued.clear()
            got = _gap_exceeds(g, cfg, host, bound)
            assert got == (gap > bound), (g, bound)
            if bound == -1:
                assert all(f == den for f in valued)
            answers.add(got)
    assert answers == {True, False}


def test_gap_exceeds_values_a_tied_denominator(monkeypatch):
    # g = 1/(v^4 + u) at p = 2: the denominator of g - x is v^4 + u
    # embedded, whose least weight 1 both y^8 and x^2 have, while its value
    # is 17/16.  So the least weight is not v(D), and only value(D) gives
    # the right T
    cfg = EmbeddingConfig.default(2)
    host = q_sequence(2)
    u, v = Poly.var(ring_uv(2), "u"), Poly.var(ring_uv(2), "v")
    g = RatFunc(Poly.one(ring_uv(2)), v**4 + u)
    den = (embed_uv(g, cfg) - RatFunc(Poly.var(ring_xy(2), "x"))).den
    weights = [Fraction(a, 2) + Fraction(b, 8) for a, b in den._t]
    assert sorted(weights)[:2] == [1, 1] and {(0, 8), (2, 0)} <= set(den._t)
    assert value(den, host) == Fraction(17, 16)
    valued = _spy_values(monkeypatch)
    gap = _frobenius_gap(g, cfg, host)
    tiny = Fraction(1, 2**10)
    for bound in (Fraction(-1), Fraction(0), gap - tiny, gap, gap + tiny):
        valued.clear()
        assert _gap_exceeds(g, cfg, host, bound) == (gap > bound), bound
        assert valued[0] == den


@pytest.mark.parametrize("p,c", [(p, m * (p - 1)) for p in (2, 3, 5, 7) for m in (1, 2)])
def test_gap_exceeds_premise_the_cleared_denominator_has_value_zero(p, c):
    # _gap_exceeds takes v(D) = v(n2) because d1, what a numerator clears
    # to, has value 0: v's image has denominator 1, so d1 is a power of u's
    # image denominator, whose constant is its one term of least weight
    cfg = EmbeddingConfig(p, c)
    images = uv_images(cfg)
    host = q_sequence(p)
    _, (wx, wy) = host.value_coefs(1)
    assert images["v"].den == 1
    den = images["u"].den
    weights = sorted((wx * a + wy * b, (a, b)) for a, b in den._t)
    assert weights[0] == (0, (0, 0)) and weights[1][0] > 0
    assert value(den, host) == 0


def _full_route(g, cfg, seq, bound):
    # g - x embedded whole, T, and the terms of weight <= T of its
    # normalized numerator
    diff = embed_uv(g, cfg) - RatFunc(Poly.var(ring_xy(cfg.p), "x"))
    den, (wx, wy) = seq.value_coefs(1)
    weights = [wx * a + wy * b for a, b in diff.den._t]
    least = min(weights)
    v_den = Fraction(least, den) if weights.count(least) == 1 else value(diff.den, seq)
    t = v_den + Fraction(bound, cfg.p)
    cut = math.floor(t * den)
    low = {e: c for e, c in diff.num._t.items() if wx * e[0] + wy * e[1] <= cut}
    return diff, t, Poly(seq.ring, low)


def _gap_exceeds_full(g, cfg, seq, bound):
    # the sweep's decision by the full route
    _, t, low = _full_route(g, cfg, seq, bound)
    return low.is_zero() or value(low, seq) > t


# At p = 3, level 1, the full route of most of the sweep's draws builds
# polynomials of 10^5 terms and more, and some embed to 10^6 terms in
# seconds.  The slow oracle is what limits the comparison there, so it runs
# only on the draws whose full route fits this many terms: 12 of the first
# 40 at seed 0
_ORACLE_TERMS = 20_000


@pytest.mark.parametrize("p,k,draws", [(2, 0, 30), (2, 1, 30), (3, 0, 30), (3, 1, 40), (2, 2, 14)])
def test_gap_exceeds_matches_the_full_route(p, k, draws):
    # the truncated build against the full one on the draws of the sweep at
    # seed 0, at the ladder bound and at bounds around each draw's gap.  At
    # p = 2, level 2 most draws have a numerator of positive u-degree, so
    # d1 != 1, over a denominator whose image n2 has two terms of least
    # weight: 7 of the 11 of the first 14 draws that fit the oracle.  Only
    # such draws value v(D) = v(n2) by value() while d1 is not one, and no
    # other level here has them
    cfg, tower, _ = _ladder(p, k)
    host = q_sequence(p)
    images = uv_images(cfg)
    _, (wx, wy) = host.value_coefs(1)
    rng = random.Random(f"0:gapbound:k={k}")
    ladder_bound = gap_value(p, k)
    answers, compared, compared_tied = set(), 0, 0
    for _ in range(draws):
        g = random_level_element(rng, tower[k], i_cap=k + 3)
        try:
            with support_limit(_ORACLE_TERMS):
                gap = _frobenius_gap(g, cfg, host)
        except BudgetExceededError:
            continue
        tiny = Fraction(1, p**12)
        for bound in (Fraction(-1), Fraction(0), gap - tiny, gap, gap + tiny, ladder_bound):
            got = _gap_exceeds(g, cfg, host, bound)
            assert got == _gap_exceeds_full(g, cfg, host, bound) == (gap > bound), (str(g), bound)
            answers.add(got)
        compared += 1
        weights = [wx * a + wy * b for a, b in _substitute_terms(g.den, images)[0]._t]
        d1 = _substitute_terms(g.num, images)[1]
        compared_tied += weights.count(min(weights)) > 1 and d1 != 1
    assert compared >= 10
    assert compared_tied >= (3 if (p, k) == (2, 2) else 0)
    assert answers == {True, False}


@pytest.mark.parametrize("p,k", [(2, 0), (2, 1), (3, 0)])
def test_gap_exceeds_values_the_low_part_of_the_full_numerator(p, k, monkeypatch):
    # the numerator the truncated build values, over D = d1 * n2, against
    # the full route's low part over its normalized denominator.  d1 and d2
    # agree modulo x^(p-1), and x^p has value 1 > v(g - x) for every g of
    # the base field, so a build that mixes them up still decides every
    # bound alike; only its terms above v(D) + 1, which a bound >= p
    # keeps, show it
    cfg, tower, appr = _ladder(p, k)
    host = q_sequence(p)
    images = uv_images(cfg)
    rng = random.Random(f"0:gapbound:k={k}")
    valued = _spy_values(monkeypatch)
    compared = 0
    for g in [appr.element] + [random_level_element(rng, tower[k], i_cap=k + 3) for _ in range(8)]:
        d = _substitute_terms(g.num, images)[1] * _substitute_terms(g.den, images)[0]
        for bound in (gap_value(p, k), Fraction(p), Fraction(2 * p)):
            try:
                with support_limit(_ORACLE_TERMS):
                    diff, _, low = _full_route(g, cfg, host, bound)
            except BudgetExceededError:
                continue
            valued.clear()
            _gap_exceeds(g, cfg, host, bound)
            assert RatFunc(valued[-1], d) == RatFunc(low, diff.den), (str(g), bound)
            compared += 1
    assert compared >= 15, compared


def _ladder(p, k):
    cfg = EmbeddingConfig.default(p)
    tower, apprs = ladder(cfg, k)
    return cfg, tower, apprs[k]


@pytest.mark.parametrize("p,k", [(3, 0), (2, 1)])
def test_cut_substitution_forms_no_empty_product(p, k, monkeypatch):
    # each of the uv images' numerators and denominators has one term of
    # least weight, so a part's least-weight bound is the least weight of
    # its product: _substitute_terms skips every part the cut empties
    # before its first product and forms no empty one.  Over the seed-0
    # draws of the sweep, no truncated product made through polys._times
    # is empty; one that is shows a skip that stopped firing
    cfg, tower, appr = _ladder(p, k)
    _, (wx, wy) = q_sequence(p).value_coefs(1)
    for image in uv_images(cfg).values():
        for h in (image.num, image.den):
            weights = [wx * a + wy * b for a, b in h._t]
            assert weights.count(min(weights)) == 1, str(h)
    sizes = []
    mul_cut = polys._mul_cut

    def spy(*args):
        t = mul_cut(*args)
        sizes.append(len(t))
        return t

    monkeypatch.setattr(polys, "_mul_cut", spy)
    assert gap_bound_sweep(tower[k], appr, cfg, samples=100, seed=0).passed
    assert sizes and 0 not in sizes, (len(sizes), sizes.count(0))


@pytest.mark.parametrize("p,k_max", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_ladder_levels_hold_the_keys_the_sweep_samples(p, k_max):
    # the shape is a function of the level: level j holds keys 0..j + 3 at
    # least, whatever the deepest level, so a sweep at j never meets a short
    # level; the approximants are those of the same tower
    cfg = EmbeddingConfig.default(p)
    tower, apprs = ladder(cfg, k_max)
    assert [level.k for level in tower] == [a.k for a in apprs] == list(range(k_max + 1))
    for j, level in enumerate(tower):
        assert set(range(j + 4)) <= set(level.keys), j
        random_level_element(random.Random(j), level, i_cap=j + 3)
    assert [a.element for a in apprs] == [a.element for a in build_approximants(tower, k_max, cfg)]


@pytest.mark.parametrize("p,k", [(2, 0), (2, 1), (3, 0)])
def test_attained_gap_memo_matches_a_fresh_computation(p, k):
    cfg, _, appr = _ladder(p, k)
    seq = q_sequence(p)
    h = appr.element
    fresh = _frobenius_gap(h, cfg, seq)
    assert fresh == gap_value(p, k)
    _attained_gap.cache_clear()
    cold = _attained_gap(h.num, h.den, cfg, seq)
    warm = _attained_gap(h.num, h.den, cfg, seq)
    info = _attained_gap.cache_info()
    assert cold == warm == fresh
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # the entry built with no limit is not hit under a limit, and a
    # computation that raised leaves no entry, so it raises again
    with support_limit(1):
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                _attained_gap(h.num, h.den, cfg, seq)
        info = _attained_gap.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)
    # nor is anything built under the limit hit after it
    assert _attained_gap(h.num, h.den, cfg, seq) == fresh
    info = _attained_gap.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)


def _sweep_record(ladder, seed, limit):
    cfg, tower, appr = ladder
    with support_limit(limit):
        return gap_bound_sweep(tower[appr.k], appr, cfg, samples=1, seed=seed).to_record()


@pytest.mark.parametrize("p,k,seed", [(2, 0, 1), (2, 1, 6), (3, 0, 3)])
def test_gap_bound_sweep_budget_does_not_depend_on_the_memo(p, k, seed):
    # support_limit empties the attained-gap memo whenever the limit
    # changes, and a computation that raised leaves no entry: at every limit
    # a cold memo, one warmed with no limit, and one warmed in the same
    # limit block all finish or name the same size.  Both regimes occur: an
    # overflow in the approximant's own gap, which then has no entry, and
    # one in the sample after it.  Each seed draws a sample whose truncated
    # build outgrows some limit the approximant's gap fits
    ladder = _ladder(p, k)
    stored_on_overflow = set()
    limit = 1
    while True:
        _attained_gap.cache_clear()
        _power.cache_clear()
        with support_limit(limit):
            cold = _sweep_record(ladder, seed, limit)
            stored = _attained_gap.cache_info().currsize
        _sweep_record(ladder, seed, None)
        with support_limit(limit):
            warm = _sweep_record(ladder, seed, limit)
            again = _sweep_record(ladder, seed, limit)
        assert cold == warm == again, limit
        if cold["status"] != "budget-exceeded":
            break
        stored_on_overflow.add(stored)
        limit += 1
    assert cold["status"] == "pass"
    assert stored_on_overflow == {0, 1}


def test_gap_bound_sweep_fails_an_approximant_off_the_bound(setup2):
    # h_k + v no longer attains the ladder bound, so the sweep fails before
    # it samples, and says what the approximant attained
    cfg, tower, apprs = setup2
    v = Poly.var(ring_uv(2), "v")
    for k in (0, 1):
        off = replace(apprs[k], element=apprs[k].element + v)
        cert = gap_bound_sweep(tower[k], off, cfg, samples=3, seed=5)
        assert (cert.status, cert.expected, cert.actual) == ("fail", f"attained {gap_value(2, k)}", "attained 1/2")


def test_library_entry_points_reject_bad_arguments(setup2):
    cfg, tower, _ = setup2
    with pytest.raises(ValueError, match="tower has 2 levels, need 3"):
        build_approximants(tower[:2], 2, cfg)
    odd = Poly.var(Ring(2, ("a", "b")), "a")
    with pytest.raises(ValueError, match=r"no embedding from ring F2\[a,b\]"):
        host_value(odd, cfg)


def test_gap_bound_zero_element(setup2):
    cfg, _, _ = setup2
    host = ring_xy(2)
    xp = RatFunc(Poly.var(host, "x")) ** 2
    assert host_value(-xp, cfg) == 1
    assert Fraction(1) <= gap_value(2, 0)


def test_ceiling_frozen_values(setup2):
    cfg, _, apprs = setup2
    host = q_sequence(2)
    uv = ring_uv(2)
    cases = [
        ("0", RatFunc(Poly.zero(uv)), "-1/2"),
        ("1/h0", 1 / apprs[0].element, "-15/32"),
        ("1/h1", 1 / apprs[1].element, "-239/512"),
    ]
    for label, f, want in cases:
        got, cert = ceiling_check(f, cfg, label, host)
        assert cert.passed, cert.actual
        assert str(got) == want


def _ceiling_oracle(f, cfg, seq):
    # v(1/x - f) by RatFunc arithmetic on the normalized image: the oracle
    # of _ceiling_value, which values the cleared pair
    return value(1 / xv_images(cfg)["x"] - embed_uv(f, cfg), seq)


def _outcome(route, limit):
    # the route's value under the limit, or the size its overflow names
    with support_limit(limit):
        try:
            return route()
        except BudgetExceededError as err:
            return ("overflow", err.size)


def _same_at_every_limit(route, oracle, label):
    # at every limit from 1 to the first that passes, route overflows at
    # the size oracle names, and there both give the same value.  Each
    # runs in its own limit block, so each starts from an empty power memo
    limit = 1
    while True:
        got = _outcome(route, limit)
        assert got == _outcome(oracle, limit), (label, limit)
        if not isinstance(got, tuple):
            return got
        limit += 1


# The limit walk runs both routes once per limit up to the largest size
# either checks, so the sampled level elements whose g - x the walk covers
# are those that fit this many terms
_WALK_TERMS = 100


@pytest.mark.parametrize("p,c", [(p, m * (p - 1)) for p in (2, 3, 5, 7) for m in (1, 2)])
def test_cleared_routes_match_the_ratfunc_routes(p, c):
    # every route that values a cleared pair N/D (polys._cleared), never
    # normalized, against the oracle that values the normalized RatFunc:
    # the ceiling's D - x*N and D, and host_value's N and D, against
    # embed_uv's image, on the ceiling family of a level-1 ladder (f = 0,
    # both approximant reciprocals, two pinned and two generic draws) and
    # the key polynomial K_2 as one Poly input; the Frobenius gap's
    # N - x*D and D against p * value(embed_uv(g) - x), on both
    # approximants and on level-0 and level-1 draws; and host_value on
    # (x,v) elements against their image by substitute
    cfg = EmbeddingConfig(p, c)
    seq, base = q_sequence(p), p_sequence(p)
    tower = build_tower(p, 1, 3)
    apprs = build_approximants(tower, 1, cfg)
    family = ceiling_family(random.Random(f"cleared:{p}:{c}"), apprs, 2, 2) + [("K2", base.poly(2))]
    for label, f in family:
        got = _same_at_every_limit(lambda: _ceiling_value(f, cfg, seq), lambda: _ceiling_oracle(f, cfg, seq), label)
        assert got == _ceiling_oracle(f, cfg, seq), label
        got = _same_at_every_limit(lambda: host_value(f, cfg), lambda: value(embed_uv(f, cfg), seq), label)
        assert got == value(embed_uv(f, cfg), seq) == value(f, base), label
    x = xv_images(cfg)["x"]
    rng = random.Random(f"cleared-gap:{p}:{c}")
    draws = [random_level_element(rng, level, i_cap=1) for level in tower[:2] for _ in range(3)]
    walked = 0
    for g in [a.element for a in apprs] + draws:
        def gap_oracle(g=g):
            return p * value(embed_uv(g, cfg) - x, seq)

        if isinstance(_outcome(gap_oracle, _WALK_TERMS), tuple):
            continue
        assert _same_at_every_limit(lambda: _frobenius_gap(g, cfg, seq), gap_oracle, str(g)) == gap_oracle()
        walked += 1
    assert walked >= 5, walked
    mid = ring_xv(p)
    rng_xv = random.Random(f"cleared-xv:{p}:{c}")
    elements = [RatFunc(Poly.zero(mid)), Poly.var(mid, "v") ** p + Poly.var(mid, "x")]
    elements += [1 / RatFunc(Poly.var(mid, "x")) + Poly.var(mid, "v")]
    elements += [random_ratfunc(rng_xv, mid) for _ in range(3)]
    for f in elements:
        def xv_oracle(f=f):
            return value(substitute(f, xv_images(cfg)), seq)

        assert _same_at_every_limit(lambda: host_value(f, cfg), xv_oracle, str(f)) == xv_oracle()
    # closed forms: v(1/x) = -v(x) = -1/p, and 1/x - 1/h_k has the value
    # gap_k/p - 2/p, where 1/x - f cancels, so a slip in the sign of x*N
    # shows at odd p; each approximant attains its ladder gap
    family = dict(family)
    assert _ceiling_value(family["0"], cfg, seq) == Fraction(-1, p)
    for k in (0, 1):
        got = _ceiling_value(family[f"1/approximant[{k}]"], cfg, seq)
        assert got == gap_value(p, k) / p - Fraction(2, p)
        assert _frobenius_gap(apprs[k].element, cfg, seq) == gap_value(p, k)
    assert host_value(elements[2], cfg) == -Fraction(1, p)


def test_embedding_images_are_built_under_the_limit_in_force():
    # the image memos are budget memos, emptied whenever the limit changes,
    # so images built with no limit are not hit under limit 1: there the
    # constant 1 overflows at size 2, the terms of u's denominator 1 + x,
    # as it does cold, and each image set names the size it names cold
    cfg = EmbeddingConfig.default(2)
    one = Poly.const(ring_uv(2), 1)

    def overflows():
        sizes = []
        with support_limit(1):
            for build in (lambda: host_value(one, cfg), lambda: uv_images(cfg), lambda: xv_images(cfg)):
                with pytest.raises(BudgetExceededError) as info:
                    build()
                sizes.append(info.value.size)
        return sizes

    uv_images.cache_clear()
    xv_images.cache_clear()
    cold = overflows()
    uv_images(cfg), xv_images(cfg)
    assert overflows() == cold == [2, 2, 2]
    # nor is anything built under the limit hit after it
    assert host_value(one, cfg) == 0


def test_ceiling_chain_identity(setup2):
    # two routes: direct engine value vs (1/p) * gap - 2/p
    cfg, _, apprs = setup2
    host = q_sequence(2)
    for appr in apprs:
        got, _ = ceiling_check(1 / appr.element, cfg, f"1/h{appr.k}", host)
        chain = gap_value(2, appr.k) / 2 - 1
        assert got == chain


def test_ladder_increasing_and_bounded(setup2):
    cfg, _, apprs = setup2
    host = q_sequence(2)
    ceiling = Fraction(-2, 2) + omega(2) / 2
    seen = []
    for appr in apprs:
        got, cert = ceiling_check(1 / appr.element, cfg, f"1/h{appr.k}", host)
        assert cert.passed
        seen.append(got)
    assert seen == sorted(seen)
    assert all(v < ceiling for v in seen)


@pytest.mark.parametrize("p", [2, 3])
def test_dependence_report(p):
    cfg = EmbeddingConfig.default(p)
    k_max = 2 if p == 2 else 1
    tower = build_tower(p, k_max, k_max + 2)
    apprs = build_approximants(tower, k_max, cfg)
    entries, cert = dependence_report(cfg, apprs, samples=10, seed=11)
    assert cert.passed
    assert cert.actual.startswith(f"verdict {artin_schreier.verdict(True)}; ")
    assert cert.params == {"p": p, "c": cfg.c, "m": 2, "entries": len(entries)}
    ceiling = Fraction(-2, p) + omega(p) / p
    assert all(got < ceiling < Fraction(-1, p * p) for _, got in entries)
    assert [label for label, _ in entries][: k_max + 2] == ["0", *(f"1/approximant[{k}]" for k in range(k_max + 1))]
    assert "falsifiable" in artin_schreier.NOTE


def test_dependence_budget_is_per_certificate():
    # the ladder is built without a budget; an overflow inside the sweep
    # lands on the as/dependence certificate instead of raising
    cfg = EmbeddingConfig.default(2)
    apprs = build_approximants(build_tower(2, 0, 2), 0, cfg)
    with support_limit(30):
        entries, cert = dependence_report(cfg, apprs, samples=5, seed=0)
    assert entries is None
    assert cert.id == "as/dependence"
    assert cert.status == "budget-exceeded"
    assert cert.params == {"p": 2, "c": 1, "m": 2, "entries": 12}
    assert "exceeds budget 30" in cert.actual


def test_restriction_c_independence():
    # base-field values agree under both admissible exponents c
    p = 3
    seq = p_sequence(p)
    rng = random.Random("c-independence")
    for _ in range(25):
        f = random_ratfunc(rng, seq.ring)
        base = value(f, seq)
        for c in (p - 1, 2 * (p - 1)):
            cfg = EmbeddingConfig(p, c)
            assert host_value(f, cfg) == base
