"""Tower construction: exact identities, value formulas, bounds."""

from dataclasses import fields, replace
from fractions import Fraction

import pytest

from valcert.engine import value
from valcert.keyseq import p_sequence
from valcert.parsing import parse_expr
from valcert.polys import BudgetExceededError, Poly, RatFunc, ring_uv, support_limit
from valcert.tower import (
    TowerLevel,
    build_tower,
    drift_bound,
    key_value_formula,
    verify_drift_recursion,
    verify_twisted_recursion,
    verify_unit_descent,
    verify_value_formula,
)


@pytest.fixture(scope="module")
def tower2():
    return build_tower(2, 2, 4)


@pytest.fixture(scope="module")
def tower3():
    return build_tower(3, 1, 3)


@pytest.fixture(scope="module")
def tower4():
    return build_tower(2, 4, 4)


@pytest.fixture(scope="module")
def tower3_deep():
    return build_tower(3, 3, 4)


def _chart_shift(level):
    # s_k = u_(k-1) / u_k^(p^2) - 1, the chart coordinate of level k >= 1
    return level.prev.u / level.u ** (level.p**2) - 1


def test_level_one_explicit(tower2):
    R = ring_uv(2)
    L1 = tower2[1]
    assert L1.u == RatFunc(parse_expr("v", R))
    assert L1.v == parse_expr("(v^4 + u)/(v^4)", R)
    assert _chart_shift(L1) == parse_expr("(u + v^4)/(v^4)", R)  # u/v^4 + 1 over F_2
    assert L1.descent_unit == parse_expr("(u)/(v^4)", R)


def test_level_one_unit_factors(tower2):
    # one recursion step from all-ones: gamma_(1,i) = s_1^(p^(2(i-1))) + 1
    L1 = tower2[1]
    s1 = _chart_shift(L1)
    for i in (2, 3, 4):
        assert L1.unit_factor(i) == s1 ** (2 ** (2 * (i - 1))) + 1


def test_tower_build_holds_no_derived_objects():
    # a level holds its keys, its descent unit and its link; unit factors
    # are built by the certificates that read them, and a drift only by the
    # fallback that compares it.  So under a budget of 8 terms
    # build_tower(2, 2, 4) fits, and so does every drift certificate on it:
    # the drifts at k = 2, i = 3 and 4 would have 9 terms each
    assert [f.name for f in fields(TowerLevel)] == ["k", "keys", "descent_unit", "prev"]
    with support_limit(8):
        tower = build_tower(2, 2, 4)
        certs = [verify_drift_recursion(level, i) for level in tower for i in (2, 3, 4)]
    assert [c.status for c in certs] == ["pass"] * 9
    assert [tower[2].drift(i).num.support_size for i in (3, 4)] == [9, 9]


def test_unit_descent(tower2, tower3):
    for tw in (tower2, tower3):
        for level in tw:
            cert = verify_unit_descent(level)
            assert cert.passed, cert.actual


def _direct_unit(level):
    # u == u_k^(p^(2k)) * unit and the unit valued whole: the oracle of the
    # chart chain, and the text verify_unit_descent prints when it declines
    seq = p_sequence(level.p)
    identity = RatFunc(seq.poly(0)) == level.u.frob(2 * level.k) * level.descent_unit
    return identity, value(level.descent_unit, seq)


def _unit_text(identity, unit_val):
    return f"{'identity' if identity else 'mismatch'}; unit value {unit_val}"


def _chain(level):
    from valcert import tower

    seq = p_sequence(level.p)
    return tower._unit_chain(level, RatFunc(seq.poly(0)), seq)


def test_unit_chain_matches_direct_check(tower3_deep):
    # on every intact level the chart chain proves the identity the direct
    # check compares and gives the value the whole unit has
    for tw in (build_tower(2, 5, 2), tower3_deep):
        for level in tw:
            assert _direct_unit(level) == (True, 0), (level.p, level.k)
            assert _chain(level) == 0, (level.p, level.k)


def test_unit_chain_values_a_rerooted_tower():
    # a chain of levels with other parameters u_j, each descent unit built
    # as r_j^(p^(2(j-1))) * unit_(j-1), so every chain step holds but the
    # units have nonzero values, which weight each v(r_j) by p^(2(j-1))
    for p in (2, 3):
        R = ring_uv(p)
        level = TowerLevel(k=0, keys={0: RatFunc(parse_expr("u", R))}, descent_unit=RatFunc(Poly.one(R)))
        for k, u_k in enumerate(("v^2", "v", "v^3 + u"), start=1):
            u_k = RatFunc(parse_expr(u_k, R))
            r = level.u / u_k ** (p**2)
            level = TowerLevel(k=k, keys={0: u_k}, descent_unit=r.frob(2 * (k - 1)) * level.descent_unit, prev=level)
            identity, unit_val = _direct_unit(level)
            assert identity and unit_val != 0, (p, k)
            assert _chain(level) == unit_val, (p, k)


def _relinked(level, j, change):
    # the tower below level with level j replaced by change(level j), every
    # level above it relinked to the replacement
    if level.k == j:
        return change(level)
    return replace(level, prev=_relinked(level.prev, j, change))


def _unit_corruptions(level):
    # (name, corrupted level, whether the direct identity still holds): a
    # toggled term in the stored descent unit of level k or of the level
    # below, and u_k or u_(k-1) replaced by itself with a toggled term.  A
    # change below level k leaves its direct identity, which reads only u_k
    # and unit_k, holding
    def unit(lv):
        return replace(lv, descent_unit=_toggled(lv.descent_unit))

    def u(lv):
        return replace(lv, keys={**lv.keys, 0: _toggled(lv.keys[0])})

    yield "unit", _relinked(level, level.k, unit), False
    yield "u", _relinked(level, level.k, u), False
    if level.k:
        yield "unit below", _relinked(level, level.k - 1, unit), True
        yield "u below", _relinked(level, level.k - 1, u), True


def test_unit_chain_declines_on_corruption(tower4, tower3_deep):
    # a toggled unit term or a replaced u_j breaks a chain step, so the
    # certificate falls back to the direct check and prints its text
    for tw in (tower4, tower3_deep):
        for level in tw:
            for name, bent, holds in _unit_corruptions(level):
                assert _chain(bent) is None, (level.p, level.k, name)
                identity, unit_val = _direct_unit(bent)
                assert identity is holds, (level.p, level.k, name)
                cert = verify_unit_descent(bent)
                assert cert.actual == _unit_text(identity, unit_val), (level.p, level.k, name)
                assert cert.passed is (identity and unit_val == 0), (level.p, level.k, name)
        # level 0 labelled level 1 holds u and the unit 1, but a one-level
        # chain proves only u = u_0 * 1, not u = u_1^(p^2) * 1
        bent = replace(tw[0], k=1)
        assert _chain(bent) is None
        assert verify_unit_descent(bent).actual == _unit_text(*_direct_unit(bent)) == "mismatch; unit value 0"


def _textbook_twisted(level, i):
    # the recursion as written, K_i == K_(i-1)^(p^2) - gamma * ..., with
    # both values taken on gamma as the level holds it: the oracle of
    # verify_twisted_recursion's verdict and actual text
    p, k, keys, gamma = level.p, level.k, level.keys, level.unit_factor(i)
    if i == 2:
        identity = keys[2] == keys[1].frob(2) - gamma * keys[0]
    else:
        identity = keys[i] == keys[i - 1].frob(2) - gamma * keys[0] ** (p ** (2 * (i - 2))) * keys[i - 2]
    seq = p_sequence(p)
    unit_val, dist = value(gamma, seq), value(gamma - 1, seq)
    passed = identity and unit_val == 0 and dist >= Fraction(2, p ** (2 * (k + 1)))
    return passed, f"{'identity' if identity else 'mismatch'}; unit value {unit_val}; offset value {dist}"


def _compared_twisted(level, i):
    # K_i - K_(i-1)^(p^2) == -gamma * ..., which verify_twisted_recursion
    # compares when the denominators differ: the oracle of the budget of
    # its numerators' comparison
    p, keys, gamma = level.p, level.keys, level.unit_factor(i)
    twist = gamma * keys[0] if i == 2 else gamma * keys[0] ** (p ** (2 * (i - 2))) * keys[i - 2]
    return keys[i] - keys[i - 1].frob(2) == -twist


def _toggled(f):
    # f with 1 added to the coefficient of its leading numerator term
    (e1, e2), _ = f.num.terms()[0]
    return RatFunc(f.num + Poly.monomial(f.ring, 1, e1, e2), f.den)


def _bent(level, i):
    # level with one corrupted input of the index-i identity: K_(k,i) with
    # one numerator term toggled; K_(k,i-1) with one term added to its
    # denominator, which leaves every numerator of the identity as it was;
    # and K_(k,1) = v_k with one numerator term toggled, which at k >= 1
    # corrupts the unit factor and the drift built from it
    prior = level.keys[i - 1]
    grown = RatFunc(prior.num, prior.den + Poly.monomial(prior.ring, 1, prior.den.deg1() + 1, 0))
    yield replace(level, keys={**level.keys, i: _toggled(level.keys[i])})
    yield replace(level, keys={**level.keys, i - 1: grown})
    yield replace(level, keys={**level.keys, 1: _toggled(level.keys[1])})


def _reads_v(level, i):
    # whether the index-i identities read K_(k,1): through the unit factor
    # and the drift at k >= 1, and as K_(i-1) or K_(i-2) at i <= 3
    return level.k >= 1 or i <= 3


def test_twisted_recursion(tower4, tower3):
    # every certificate agrees with the textbook arrangement, verdict and
    # actual text, on the intact level and on each corruption of it.  Only
    # a toggled K_(k,1) that the identity does not read leaves it holding
    for tw, i_max in ((tower4, 4), (tower3, 3)):
        for level in tw:
            for i in range(2, i_max + 1):
                for n, bent in enumerate((level, *_bent(level, i))):
                    want = _textbook_twisted(bent, i)
                    cert = verify_twisted_recursion(bent, i)
                    assert (cert.passed, cert.actual) == want, (level.k, i, cert.actual)
                    assert want[0] is (n == 0 or (n == 3 and not _reads_v(level, i))), (level.k, i, n)


def _twisted_branches(monkeypatch) -> list:
    # one entry per _twisted call from now on: True where it decided on the
    # numerators, which compares no fractions, and False where it fell back
    # to comparing the two fractions.  Only equalities made inside _twisted
    # count, so the link comparison the certificates make before it does not
    from valcert import tower

    taken, compared = [], []
    twisted, eq = tower._twisted, RatFunc.__eq__

    def spied(*args):
        compared.clear()
        holds = twisted(*args)
        taken.append(not compared)
        return holds

    monkeypatch.setattr(RatFunc, "__eq__", lambda a, b: compared.append(b) or eq(a, b))
    monkeypatch.setattr(tower, "_twisted", spied)
    return taken


def test_closed_form_route(tower4, tower3_deep, monkeypatch):
    # gamma_(k,i) = 1 - w, w = v_k^(p^(2(i-1))), over the denominator that
    # K_i and K_(i-1)^(p^2) share.  _twisted's numerators' comparison, which
    # compares no fractions, decides exactly when K_i, K_(i-1)^(p^2) and
    # gamma share one denominator: on every intact level, level 0 included,
    # at both characteristics, and under a toggled K_i or K_(k,1).  The
    # grown prior denominator takes the fallback, which compares the two
    # fractions.  Either way the certificate agrees with the textbook
    # arrangement
    taken = _twisted_branches(monkeypatch)
    for tw in (tower4, tower3_deep):
        for level in tw:
            for i in range(2, 5):
                if level.k >= 1:
                    key, gamma, w = level.keys[i], level.unit_factor(i), level.v.frob(2 * i - 2)
                    assert key.den == level.keys[i - 1].frob(2).den == w.den == gamma.den, (level.k, i)
                    assert gamma - 1 == -w, (level.k, i)
                for n, bent in enumerate((level, *_bent(level, i))):
                    taken.clear()
                    cert = verify_twisted_recursion(bent, i)
                    shared = bent.keys[i].den == bent.keys[i - 1].frob(2).den == bent.unit_factor(i).den
                    assert shared is (n != 2), (level.k, i, n)
                    assert taken == [shared], (level.k, i, n)
                    assert (cert.passed, cert.actual) == _textbook_twisted(bent, i), (level.k, i, n)


def _terms(f):
    return len(f.num.terms()) + len(f.den.terms())


def test_closed_form_route_is_taken_where_gamma_outgrows_v(tower4, monkeypatch):
    # at level 4 of build_tower(2, 4, 4) gamma (30 terms) outgrows v_k (22),
    # and below it does not; the numerators' comparison decides on every
    # level all the same, so a certificate that silently fell back would
    # show here
    assert [_terms(level.unit_factor(2)) > _terms(level.v) for level in tower4] == [False] * 4 + [True]
    taken = _twisted_branches(monkeypatch)
    for level in tower4:
        for i in range(2, 5):
            taken.clear()
            assert verify_twisted_recursion(level, i).passed, (level.k, i)
            assert taken == [True], (level.k, i)


def _fraction_twisted(level, i, gamma, m):
    # _twisted with the shared-denominator identity compared as two
    # normalized fractions, RatFunc(diff) == RatFunc(-gamma.num) * m: the
    # oracle of the budget records of the numerators' comparison
    key, prior = level.keys[i], level.keys[i - 1].frob(2)
    if key.den == prior.den == gamma.den:
        return RatFunc(key.num - prior.num) == RatFunc(-gamma.num) * m
    return key - prior == -(gamma * m)


def test_numerators_comparison_keeps_every_budget_record(tower4, monkeypatch):
    # the twisted and drift certificates of levels 3 and 4 of
    # build_tower(2, 4, 4), at each of the 41 limits floor(1.15^j),
    # j = 5..49, give the records they give through the fractions: the
    # numerators' comparison checks diff, then gamma.num * -m.num, then
    # diff * m.den, so its first overflow names the size the fractions'
    # first overflow names.  Many of the overflows are raised in the route,
    # by the link comparison (_link) or inside the numerators' comparison
    # itself, and the top limit reaches every verdict
    from valcert import tower

    limits = sorted({int(1.15**j) for j in range(5, 50)})
    inner = {"_link": tower._link, "_twisted": tower._twisted}
    raised = []

    def spy(name):
        def spied(*args):
            try:
                return inner[name](*args)
            except BudgetExceededError:
                raised.append(name)
                raise

        return spied

    # each intact level and index, and the level with K_(k,i) toggled,
    # which keeps the shared denominator but not the identity, so that the
    # two sides of the comparison differ in size
    cases = [(case, i) for level in tower4[3:] for i in range(2, len(level.keys)) for case in (level, next(_bent(level, i)))]

    def records():
        out = []
        for limit in limits:
            with support_limit(limit):
                for case, i in cases:
                    out += [verify(case, i).to_record() for verify in (verify_twisted_recursion, verify_drift_recursion)]
        return out

    for name in inner:
        monkeypatch.setattr(tower, name, spy(name))
    now = records()
    assert len(now) == 1148 and len(raised) >= 100 and raised.count("_twisted") >= 80
    assert [r["status"] for r in now[-28:]] == ["pass", "pass", "fail", "fail"] * 7
    inner["_twisted"] = _fraction_twisted
    assert records() == now


def test_twisted_recursion_fits_a_budget_the_textbook_arrangement_overflows(tower4):
    # at k = 4, i = 3 the largest support built is 276 terms in the
    # certificate and 1,024 in the textbook arrangement
    level = tower4[4]
    with support_limit(300):
        cert = verify_twisted_recursion(level, 3)
        assert cert.passed, cert.actual
        with pytest.raises(BudgetExceededError):
            _textbook_twisted(level, 3)


def test_closed_form_route_fits_a_budget_the_compared_arrangement_overflows(tower4):
    # at k = 4, i = 3 the largest support the certificate builds is 276
    # terms, against 828 in the compared arrangement
    level = tower4[4]
    with support_limit(300):
        cert = verify_twisted_recursion(level, 3)
        assert cert.passed, cert.actual
        with pytest.raises(BudgetExceededError):
            _compared_twisted(level, 3)


def test_twisted_recursion_offset_value(tower2):
    # v(gamma_(1,2) - 1) = v(s_1^4) = 4 * 1/16 = 1/4, above the floor 1/8
    seq = p_sequence(2)
    gamma = tower2[1].unit_factor(2)
    assert value(gamma - 1, seq) == Fraction(1, 4)


def _recursion_unit(prev, level, i):
    # the unit factor as the level step derives it: level k-1's at index i+1
    # times s_k^(p^(2(i-1))) + 1.  It is the oracle of the closed form
    # TowerLevel.unit_factor builds
    return prev.unit_factor(i + 1) * (_chart_shift(level) ** (level.p ** (2 * (i - 1))) + 1)


def test_unit_closed_form_matches_recursion(tower4, tower3_deep):
    for tw in (tower4, tower3_deep):
        for prev, level in zip(tw, tw[1:]):
            for i in range(2, len(level.keys)):
                gamma = level.unit_factor(i)
                assert _recursion_unit(prev, level, i) == gamma, (level.k, i)
                assert gamma.den == level.keys[i].den, (level.k, i)


def _recursion_drift(prev, level, i):
    # the drift as the level step derives it, fresh - carried: level k-1's
    # recursion at index i+1 divided by u_k^(p^(2i)).  It is the oracle of
    # the closed form TowerLevel.drift builds, and carried must be zero
    p, u_k, v_k = level.p, level.keys[0], level.keys[1]
    carried = (prev.drift(2).frob(2 * i - 2) * prev.keys[i - 1] - prev.drift(i + 1)) / u_k ** (p ** (2 * i))
    if i == 2:
        fresh = u_k * v_k.frob(2)
    else:
        fresh = u_k ** (p ** (2 * (i - 2))) * v_k.frob(2 * i - 2) * level.keys[i - 2]
    return fresh, carried


def test_drift_closed_form_matches_recursion(tower4, tower3_deep):
    for tw in (tower4, tower3_deep):
        for prev, level in zip(tw, tw[1:]):
            for i in range(2, len(level.keys)):
                fresh, carried = _recursion_drift(prev, level, i)
                assert carried.num.is_zero(), (level.k, i)
                assert fresh - carried == level.drift(i), (level.k, i)


def _textbook_drift(level, i):
    # the recursion as written, K_i == K_(i-1)^(p^2) - K_0^... * K_(i-2) +
    # drift: the oracle of the arrangement verify_drift_recursion compares
    p, keys, drift = level.p, level.keys, level.drift(i)
    if i == 2:
        return keys[2] == keys[1].frob(2) - keys[0] + drift
    return keys[i] == keys[i - 1].frob(2) - keys[0] ** (p ** (2 * (i - 2))) * keys[i - 2] + drift


def _drift_bent(level, i):
    # level with one corrupted input of the index-i drift identity: each
    # corruption of _bent, and at k >= 1 K_(k-1,i-1) on the linked level
    # with one numerator term toggled, which the drift is built from and
    # the route's check m == K_(k-1,i-1) reads
    yield from _bent(level, i)
    if level.prev is not None:
        prev = level.prev
        yield replace(level, prev=replace(prev, keys={**prev.keys, i - 1: _toggled(prev.keys[i - 1])}))


def test_drift_recursion(tower4, tower3_deep):
    # every certificate agrees with the textbook arrangement on the intact
    # level and on each corruption of it.  The identity breaks under every
    # corruption but a toggled K_(k,1) that it does not read
    for tw in (tower4, tower3_deep):
        for level in tw:
            for i in range(2, 5):
                bents = [level, *_drift_bent(level, i)]
                assert len(bents) == (5 if level.k else 4)
                for n, bent in enumerate(bents):
                    holds = _textbook_drift(bent, i)
                    assert holds is (n == 0 or (n == 3 and not _reads_v(level, i))), (level.k, i, n)
                    cert = verify_drift_recursion(bent, i)
                    assert cert.passed is holds, (level.k, i, n, cert.actual)
                    assert cert.actual.startswith("identity;") is holds, (level.k, i, n, cert.actual)


def test_drift_route_decides_every_intact_level(tower4, tower3_deep, monkeypatch):
    # on every level, level 0 included, at every index, the route proves the
    # identity and the compared fallback never runs: its two fraction
    # subtractions are the only ones the certificate makes, and it alone
    # builds the drift
    from valcert import tower

    route, sub, drift = tower._drift_route, RatFunc.__sub__, TowerLevel.drift
    decided, subtracted, drifts = [], [], []
    monkeypatch.setattr(tower, "_drift_route", lambda *args: decided.append(route(*args)) or decided[-1])
    monkeypatch.setattr(RatFunc, "__sub__", lambda a, b: subtracted.append(b) or sub(a, b))
    monkeypatch.setattr(TowerLevel, "drift", lambda level, i: drifts.append(i) or drift(level, i))
    for tw in (tower4, tower3_deep):
        assert all(level.prev is below for below, level in zip([None, *tw], tw))
        for level in tw:
            for i in range(2, len(level.keys)):
                decided.clear()
                subtracted.clear()
                drifts.clear()
                assert verify_drift_recursion(level, i).passed, (level.k, i)
                assert decided == [True], (level.k, i)
                assert subtracted == [] and drifts == [], (level.k, i)


def test_twisted_operand_is_the_linked_key(tower4, tower3_deep, monkeypatch):
    # both certificates hand _twisted K_(k-1,i-1) itself on every intact
    # level k >= 1, and m = _twist_base(level, i) at level 0.  On a level
    # whose K_(k-1,i-1) has one numerator term toggled, the twisted
    # certificate proves its identity on m and still agrees with the
    # textbook arrangement, and the drift certificate takes its fraction
    # fallback, which builds the drift
    from valcert import tower

    twisted, drift = tower._twisted, TowerLevel.drift
    operands, drifts = [], []
    monkeypatch.setattr(tower, "_twisted", lambda *args: operands.append(args[3]) or twisted(*args))
    monkeypatch.setattr(TowerLevel, "drift", lambda level, i: drifts.append(i) or drift(level, i))

    def same(f, g):
        return f.num == g.num and f.den == g.den

    for tw in (tower4, tower3_deep):
        for level in tw:
            for i in range(2, len(level.keys)):
                m = tower._twist_base(level, i)
                for verify in (verify_twisted_recursion, verify_drift_recursion):
                    operands.clear()
                    drifts.clear()
                    assert verify(level, i).passed, (level.k, i)
                    assert len(operands) == 1 and drifts == [], (level.k, i)
                    if level.prev is None:
                        assert same(operands[0], m), (level.k, i)
                    else:
                        assert operands[0] is level.prev.keys[i - 1], (level.k, i)
                if level.prev is None:
                    continue
                *_, bent = _drift_bent(level, i)
                operands.clear()
                cert = verify_twisted_recursion(bent, i)
                assert len(operands) == 1 and same(operands[0], m), (level.k, i)
                assert operands[0] is not bent.prev.keys[i - 1], (level.k, i)
                assert (cert.passed, cert.actual) == _textbook_twisted(bent, i), (level.k, i)
                operands.clear()
                drifts.clear()
                cert = verify_drift_recursion(bent, i)
                assert operands == [] and drifts == [i], (level.k, i)
                assert not cert.passed and cert.passed is _textbook_drift(bent, i), (level.k, i)


def test_drift_exact_value_k1_i2(tower2):
    # drift_(1,2) = u_1 * v_1^(p^2), value 1/4 + 4/16 = 1/2, equal to the bound
    seq = p_sequence(2)
    L1 = tower2[1]
    assert L1.drift(2) == L1.u * L1.v.frob(2)
    assert value(L1.drift(2), seq) == Fraction(1, 2)
    assert drift_bound(2, 1, 2) == Fraction(1, 2)


def _tower_objects(level):
    # every key, unit factor, unit factor - 1, drift and the descent unit
    indices = range(2, len(level.keys))
    gammas = [level.unit_factor(i) for i in indices]
    return [*level.keys.values(), *gammas, *(g - 1 for g in gammas), *map(level.drift, indices), level.descent_unit]


def test_root_value_matches_value():
    # the Frobenius-root value of each side of every tower object against
    # value() of that side, which reads no Frobenius structure
    from valcert.tower import root_value

    for p, k_max, i_max in ((2, 5, 6), (3, 2, 4)):
        seq = p_sequence(p)
        sides = {f for level in build_tower(p, k_max, i_max) for g in _tower_objects(level) for f in (g.num, g.den)}
        roots = 0
        for f in sides:
            assert root_value(f, seq) == value(f, seq), (p, str(f)[:80])
            roots += f.support_size > 1 and all(e % p == 0 for term in f._t for e in term)
        assert roots >= 10, (p, roots)
    # t = 0: a corrupted denominator with a term of exponent 1, and constants
    seq = p_sequence(2)
    key = build_tower(2, 2, 4)[2].keys[3]
    bent = RatFunc(key.num, key.den + Poly.monomial(key.ring, 1, 1, 0))
    assert root_value(bent, seq) == value(bent, seq)
    assert root_value(bent.den, seq) == value(bent.den, seq)
    for c in (1, 0):
        f = Poly.const(key.ring, c)
        assert root_value(f, seq) == value(f, seq)
        assert root_value(RatFunc(f), seq) == value(RatFunc(f), seq)


def test_drift_value_matches_value(tower4, tower3_deep):
    # the value of a drift from its two factors against the drift valued
    # whole, on every level: at level 0 the drift is zero
    from valcert.tower import _drift_value

    for tw in (tower4, tower3_deep):
        seq = p_sequence(tw[0].p)
        for level in tw:
            for i in range(2, len(level.keys)):
                assert _drift_value(level, i, seq) == value(level.drift(i), seq), (level.p, level.k, i)


def test_value_formulas(tower2, tower3):
    for tw, i_max in ((tower2, 4), (tower3, 3)):
        for level in tw:
            for i in range(i_max + 1):
                cert = verify_value_formula(level, i)
                assert cert.passed, (level.k, i, cert.actual)


def test_value_formula_two_routes():
    # v(K_(1,2)) both by closed form and by the division route
    seq = p_sequence(2)
    assert key_value_formula(2, 1, 2) == Fraction(17, 64)
    assert seq.value(3) - Fraction(1, 4) * 16 == Fraction(17, 64)


def test_chart_shift_positive_value(tower2, tower3):
    for tw in (tower2, tower3):
        seq = p_sequence(tw[0].p)
        for level in tw[1:]:
            assert value(_chart_shift(level), seq) > 0


def test_value_collapse_across_levels(tower2):
    # v(K_(k,i)) = p^(2(i-1)) * v(u_(k+1)) + v(K_(k+1,i-1)), from the
    # division identity that defines the next level
    seq = p_sequence(2)
    for k in (0, 1):
        lo, hi = tower2[k], tower2[k + 1]
        for i in (2, 3, 4):
            left = value(lo.keys[i], seq)
            right = value(hi.u, seq) * 2 ** (2 * (i - 1)) + value(hi.keys[i - 1], seq)
            assert left == right, (k, i)


def test_division_spot_check(tower2):
    # the next level's key elements absorb exactly p^(2(i-1)) factors of
    # u_(k+1).  The division identity is exact for every index; maximality
    # is value-provable only at i=2, where dividing the quotient once more
    # drops its value below zero and out of the valuation ring
    seq = p_sequence(2)
    for k in (0, 1):
        lo, hi = tower2[k], tower2[k + 1]
        for i in (2, 3, 4):
            assert lo.keys[i] == hi.u ** (2 ** (2 * (i - 1))) * hi.keys[i - 1]
        assert value(hi.keys[1] / hi.u, seq) < 0


def test_budget_aborts_build():
    with support_limit(3), pytest.raises(BudgetExceededError):
        build_tower(2, 2, 4)


def test_build_validation(tower2):
    with pytest.raises(ValueError):
        build_tower(2, -1, 4)
    with pytest.raises(ValueError):
        build_tower(2, 1, 1)
    with pytest.raises(ValueError, match="twisted recursion starts at index 2"):
        verify_twisted_recursion(tower2[1], 1)
    with pytest.raises(ValueError, match="drift recursion starts at index 2"):
        verify_drift_recursion(tower2[1], 1)
    with pytest.raises(ValueError, match="value formula starts at index 0"):
        verify_value_formula(tower2[1], -1)
    # level 0 of build_tower(2, 1, 3) holds keys 0..4, one past i_max
    level = build_tower(2, 1, 3)[0]
    for verify, what in (
        (verify_value_formula, "value formula"),
        (verify_twisted_recursion, "twisted recursion"),
        (verify_drift_recursion, "drift recursion"),
    ):
        assert verify(level, 4).passed
        with pytest.raises(ValueError, match=rf"^level 0 holds keys 0\.\.4; {what} has no index 5$"):
            verify(level, 5)
