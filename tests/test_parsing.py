"""Expression grammar and the render/parse round trip."""

import random

import pytest

from valcert.parsing import MAX_DEPTH, ParseError, parse_expr
from valcert.polys import Poly, RatFunc, ring_uv, ring_xy

R2 = ring_uv(2)
R3 = ring_uv(3)


def test_parse_examples():
    f = parse_expr("v^4 + u", R2)
    assert f == Poly.var(R2, "v") ** 4 + Poly.var(R2, "u")
    assert parse_expr("3*u", R3).is_zero()
    assert parse_expr("2", R3) == Poly.const(R3, 2)


def test_syntax_error_position():
    with pytest.raises(ParseError) as info:
        parse_expr("u + )", R2)
    assert info.value.position == 4


def test_unknown_variable():
    with pytest.raises(ParseError) as info:
        parse_expr("u * z", R2)
    assert "unknown variable" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("x + y", R2)  # wrong ring


def test_negative_exponent():
    with pytest.raises(ParseError) as info:
        parse_expr("u^-2", R2)
    assert "negative exponent" in str(info.value)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_non_ascii_digit_is_not_an_int(digit):
    # str.isdigit takes both: int() rejects the superscript two and reads
    # the Arabic-Indic three as 3
    with pytest.raises(ParseError) as info:
        parse_expr("u^" + digit, R3)
    assert info.value.position == 2
    assert str(info.value) == f"unexpected character {digit!r} at offset 2"


def test_caret_binds_tightest():
    f = parse_expr("u*v^2", R2)
    assert f == Poly.var(R2, "u") * Poly.var(R2, "v") ** 2
    g = parse_expr("(u + v)^2", R2)
    assert g == Poly.var(R2, "u") ** 2 + Poly.var(R2, "v") ** 2


def test_unary_minus():
    assert parse_expr("-u", R3) == -Poly.var(R3, "u")
    assert parse_expr("2 - u", R3) == Poly.const(R3, 2) - Poly.var(R3, "u")


def test_fraction():
    f = parse_expr("(v^4 + u)/(v^4)", R2)
    assert isinstance(f, RatFunc)
    assert f == RatFunc(parse_expr("v^4 + u", R2), parse_expr("v^4", R2))
    with pytest.raises(ParseError):
        parse_expr("u/v/u", R2)  # only one top-level fraction
    with pytest.raises(ParseError) as info:
        parse_expr("u/(v + v)", R2)
    assert "denominator is zero" in str(info.value)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expr("u + v w", R2)
    with pytest.raises(ParseError):
        parse_expr("", R2)
    with pytest.raises(ParseError):
        parse_expr("u @ v", R2)


def test_nesting_depth_is_bounded():
    # MAX_DEPTH nested parentheses parse; one more is a ParseError at the
    # parenthesis that passes the limit, in a sum, a power, a fraction's
    # denominator or far past the limit, never a RecursionError
    u = Poly.var(R2, "u")
    assert parse_expr("(" * MAX_DEPTH + "u" + ")" * MAX_DEPTH, R2) == u
    assert parse_expr("*".join(["(u)"] * 500), R2) == u**500  # siblings do not nest
    for prefix, n in (("", MAX_DEPTH + 1), ("v + ", MAX_DEPTH + 1), ("u/", MAX_DEPTH + 1), ("", 100_000)):
        text = prefix + "(" * n + "u" + ")" * n + "^2"
        with pytest.raises(ParseError) as info:
            parse_expr(text, R2)
        assert info.value.position == len(prefix) + MAX_DEPTH
        assert str(info.value) == f"parentheses nested deeper than {MAX_DEPTH} at offset {len(prefix) + MAX_DEPTH}"


def rnd_poly(rng, ring):
    t = {
        (rng.randint(0, 9), rng.randint(0, 9)): rng.randint(1, ring.p - 1)
        for _ in range(rng.randint(0, 6))
    }
    return Poly(ring, t)


@pytest.mark.parametrize("ring", [R2, R3, ring_xy(5)])
def test_render_parse_round_trip(ring):
    rng = random.Random(f"roundtrip:{ring}")
    for _ in range(80):
        f = rnd_poly(rng, ring)
        assert parse_expr(str(f), ring) == f
    for _ in range(40):
        num, den = rnd_poly(rng, ring), rnd_poly(rng, ring)
        if den.is_zero():
            continue
        f = RatFunc(num, den)
        assert parse_expr(str(f), ring) == f
