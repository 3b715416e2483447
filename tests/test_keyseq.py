"""Generating sequences: recursion shape, degrees, closed-form values."""

from fractions import Fraction

import pytest

from valcert.acceptance import criterion_10_uniqueness
from valcert.engine import value
from valcert.keyseq import GenSeq, p_sequence, q_sequence
from valcert.polys import Poly, ring_uv


@pytest.mark.parametrize("p", [2, 3])
def test_second_key_polynomial(p):
    seq = p_sequence(p)
    u, v = seq.poly(0), seq.poly(1)
    assert seq.poly(2) == v ** (p * p) - u
    host = q_sequence(p)
    x, y = host.poly(0), host.poly(1)
    assert host.poly(2) == y ** (p * p) - x


def test_third_key_polynomial_p2():
    seq = p_sequence(2)
    u, v = seq.poly(0), seq.poly(1)
    assert seq.poly(3) == v**16 + u**4 * v + u**4


@pytest.mark.parametrize("p", [2, 3])
def test_recursion_identity(p):
    seq = p_sequence(p)
    for i in range(2, 7):
        got = seq.poly(i + 1)
        want = seq.poly(i).frob(2) - seq.poly(0).frob(2 * i - 2) * seq.poly(i - 1)
        assert got == want


@pytest.mark.parametrize("p", [2, 3])
def test_monic_and_degree(p):
    seq = p_sequence(p)
    for i in range(1, 7):
        f = seq.poly(i)
        d = p ** (2 * (i - 1))
        assert f.deg2() == d
        assert f.coefficient(0, d) == 1


def test_values_p2():
    seq = p_sequence(2)
    assert seq.value(0) == 1
    assert seq.value(1) == Fraction(1, 4)
    assert seq.value(2) == Fraction(17, 16)
    assert seq.value(3) == Fraction(273, 64)


def test_host_sequence_scale():
    host = q_sequence(2)
    assert host.value(0) == Fraction(1, 2)
    assert host.value(1) == Fraction(1, 8)


@pytest.mark.parametrize("p", [2, 3])
def test_value_collision_law(p):
    # v(S_i^(p^2)) == v(S_0^(p^(2i-2)) * S_(i-1)), and the next key value
    # climbs strictly above the colliding pair
    seq = p_sequence(p)
    for i in range(2, 7):
        collide_left = seq.value(i) * (p * p)
        collide_right = seq.scale * p ** (2 * i - 2) + seq.value(i - 1)
        assert collide_left == collide_right
        assert seq.value(i + 1) > collide_left


def test_index_for_degree():
    seq = p_sequence(2)
    assert seq.index_for_degree(1) == 1
    assert seq.index_for_degree(3) == 1
    assert seq.index_for_degree(4) == 2
    assert seq.index_for_degree(1023) == 5
    assert seq.index_for_degree(1024) == 6
    with pytest.raises(ValueError):
        seq.index_for_degree(0)


def test_lazy_extension_is_consistent():
    a, b = p_sequence(2), GenSeq(ring_uv(2), Fraction(1), "uv")
    b.poly(6)  # extend eagerly
    assert a.poly(6) == b.poly(6)
    assert isinstance(a.poly(5), Poly)


def test_sequences_are_shared_per_characteristic():
    assert p_sequence(2) is p_sequence(2)
    assert q_sequence(3) is q_sequence(3)
    assert p_sequence(2) is not q_sequence(2)
    # the corrupted-table check must leave the shared sequence intact
    assert all(c.passed for c in criterion_10_uniqueness())
    seq = p_sequence(2)
    assert 1 in seq._values
    for i, got in seq._values.items():
        want = seq.scale if i == 0 else Fraction((2 ** (4 * i) - 1) // 15, 2 ** (2 * i))
        assert got == want
    assert value(seq.poly(0) + seq.poly(1), seq) == Fraction(1, 4)


def test_negative_index_is_rejected():
    seq = p_sequence(2)
    for lookup in (seq.poly, seq.value):
        with pytest.raises(IndexError, match="^negative sequence index$"):
            lookup(-1)
