"""Acceptance suite: one test per exit criterion, one printed line each.

All arithmetic is exact; every comparison is equality or a strict
inequality with zero tolerance.  Stated runtime limits are asserted where
the criterion pins one.
"""

import time
from fractions import Fraction

import pytest

from valcert import acceptance
from valcert.certificates import Certificate

REPORTED = {}


def _run(n, seed=0, k_max=2):
    description, fn = acceptance.CRITERIA[n - 1]
    t0 = time.perf_counter()
    certs = fn(seed=seed, k_max=k_max)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in certs)
    line = f"criterion {n:>2} {'PASS' if ok else 'FAIL'}  {description} ({len(certs)} certificates, {elapsed:.1f}s)"
    REPORTED[n] = line
    print(line)
    failed = [c for c in certs if not c.passed]
    assert not failed, [(c.id, c.expected, c.actual) for c in failed]
    return certs, elapsed


def test_criterion_1_key_values():
    certs, elapsed = _run(1)
    assert elapsed < 5
    by_id = {c.id: c for c in certs}
    assert by_id["accept1/key-value/p=2/i=1"].actual == "1/4"
    assert by_id["accept1/key-value/p=2/i=2"].actual == "17/16"
    assert by_id["accept1/key-value/p=2/i=3"].actual == "273/64"


def test_criterion_2_tower_values():
    certs, elapsed = _run(2)
    assert elapsed < 60
    ids = {c.id for c in certs}
    assert "tower/value-formula/k=2/i=4" in ids  # p=2 range
    assert "tower/value-formula/k=1/i=3" in ids  # p=3 range


def test_criterion_3_exact_identities():
    certs, elapsed = _run(3)
    assert elapsed < 120
    ids = {c.id for c in certs}
    for k in (0, 1, 2):
        assert f"tower/unit-descent/k={k}" in ids
        for i in (2, 3, 4):
            assert f"tower/twisted-recursion/k={k}/i={i}" in ids
            assert f"tower/drift-recursion/k={k}/i={i}" in ids


def test_criterion_4_drift_bound():
    certs, _ = _run(4)
    exact = next(c for c in certs if c.id == "accept4/drift-exact/k=1/i=2")
    assert "value 1/2" in exact.actual


def test_criterion_5_approximant_gaps():
    certs, _ = _run(5)
    gaps = {c.params["p"]: [] for c in certs}
    for c in certs:
        gaps[c.params["p"]].append(c.actual)
    assert any("17/16" in a for a in gaps[2])
    assert any("273/256" in a for a in gaps[2])
    assert any("4369/4096" in a for a in gaps[2])
    assert any("82/81" in a for a in gaps[3])


def test_criterion_5_fast_profile():
    # the shallow-ladder profile must come back fast
    t0 = time.perf_counter()
    certs = acceptance.criterion_5_approximant_gaps(k_max=1)
    elapsed = time.perf_counter() - t0
    print(f"criterion  5 fast profile: {elapsed:.1f}s (limit 30s)")
    assert all(c.passed for c in certs)
    assert elapsed < 30


def test_criterion_6_gap_bound_sweep():
    certs, elapsed = _run(6)
    assert elapsed < 300
    assert sum(c.params["samples"] for c in certs) == 200


def test_criterion_7_ceiling():
    certs, _ = _run(7)
    assert len(certs) == 103
    by_id = {c.id: c for c in certs}
    assert by_id["as/ceiling/0"].actual == "-1/2"
    assert by_id["as/ceiling/1/approximant[0]"].actual == "-15/32"
    assert by_id["as/ceiling/1/approximant[1]"].actual == "-239/512"


def test_criterion_7_fails_a_moved_frozen_value(monkeypatch):
    # a ceiling check that passes but reads another value than the frozen
    # one fails criterion 7, and the certificate names the frozen value
    def moved(f, cfg, label):
        return Fraction(-1, 4), Certificate(id=f"as/ceiling/{label}", actual="-1/4")

    monkeypatch.setattr(acceptance, "ceiling_check", moved)
    certs = acceptance.criterion_7_ceiling()
    assert len(certs) == 103
    assert {c.id: c.actual for c in certs if not c.passed} == {
        "as/ceiling/0": "-1/4 (expected the frozen value -1/2)",
        "as/ceiling/1/approximant[0]": "-1/4 (expected the frozen value -15/32)",
        "as/ceiling/1/approximant[1]": "-1/4 (expected the frozen value -239/512)",
    }


def test_criterion_8_dependence():
    certs, _ = _run(8)
    for c in certs:
        assert "dependent-consistent" in c.actual


def test_criterion_9_oracles():
    certs, elapsed = _run(9)
    assert elapsed < 120
    ids = {c.id for c in certs}
    assert {"engine/multiplicative/engine=uv", "engine/multiplicative/engine=xy"} <= ids
    assert {"engine/ultrametric/engine=uv", "engine/ultrametric/engine=xy"} <= ids
    assert {"engine/restriction-sweep/c=1", "engine/restriction-sweep/c=2"} <= ids


def test_criterion_10_uniqueness():
    certs, _ = _run(10)
    by_id = {c.id: c for c in certs}
    assert by_id["accept10/exhaustive-distinct"].actual == "1088 distinct values"
    assert by_id["accept10/corrupted-table-aborts"].actual == "tie fault raised"


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print()
    for n in sorted(REPORTED):
        print(REPORTED[n])
