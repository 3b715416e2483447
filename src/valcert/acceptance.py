"""The acceptance suite: every exit criterion as a list of certificates.

Each criterion function is self-contained (it pins its own primes, ranges,
sample counts and tolerances — all tolerances are zero, the arithmetic is
exact) and returns the certificates it checked.  The pytest suite and the
``selftest`` CLI command both run these.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .artin_schreier import (
    ceiling_check,
    ceiling_family,
    dependence_report,
    gap_bound_sweep,
    ladder,
    verify_approximant_gap,
)
from .certificates import FAIL, Certificate, check
from .embeddings import EmbeddingConfig
from .engine import (
    ValueTieError,
    multiplicativity_sweep,
    restriction_sweep,
    ultrametric_sweep,
    value,
)
from .keyseq import GenSeq, p_sequence, q_sequence
from .polys import ring_uv
from .tower import (
    build_tower,
    drift_bound,
    root_value,
    verify_drift_recursion,
    verify_twisted_recursion,
    verify_unit_descent,
    verify_value_formula,
)

__all__ = ["CRITERIA", "run_all"]


def criterion_1_key_values(seed=0, k_max=2) -> list[Certificate]:
    """Engine values of the base key polynomials match the closed form, p in {2,3}, i <= 5."""
    certs = []
    for p in (2, 3):
        seq = p_sequence(p)
        for i in range(6):

            def run():
                got = value(seq.poly(i), seq)
                want = Fraction(1) if i == 0 else sum(
                    Fraction(p ** (4 * j), p ** (2 * i)) for j in range(i)
                )
                return str(want), str(got), got == want

            certs.append(check(f"accept1/key-value/p={p}/i={i}", {"p": p, "i": i}, run))
    return certs


def criterion_2_tower_values(seed=0, k_max=2) -> list[Certificate]:
    """Tower value formulas, p=2 up to (k,i)=(2,4) and p=3 up to (1,3)."""
    certs = []
    for p, km, im in ((2, min(2, k_max), 4), (3, min(1, k_max), 3)):
        seq = p_sequence(p)
        tower = build_tower(p, km, im)
        for level in tower:
            for i in range(im + 1):
                certs.append(verify_value_formula(level, i, seq))
    return certs


def criterion_3_exact_identities(seed=0, k_max=2) -> list[Certificate]:
    """Unit descent, twisted recursion and drift identity, p=2, k <= 2, i <= 4."""
    certs = []
    seq = p_sequence(2)
    tower = build_tower(2, min(2, k_max), 4)
    for level in tower:
        certs.append(verify_unit_descent(level, seq))
        for i in (2, 3, 4):
            certs.append(verify_twisted_recursion(level, i, seq))
            certs.append(verify_drift_recursion(level, i, seq))
    return certs


def criterion_4_drift_bound(seed=0, k_max=2) -> list[Certificate]:
    """Drift value bound over the criterion-3 range; exact value 1/2 at (k,i)=(1,2)."""
    certs = []
    seq = p_sequence(2)
    tower = build_tower(2, min(2, k_max), 4)
    if len(tower) > 1:

        def run():
            got = root_value(tower[1].drift(2), seq)
            bound = drift_bound(2, 1, 2)
            ok = got == Fraction(1, 2) and bound == Fraction(1, 2)
            return f"value 1/2, bound {bound}", f"value {got}", ok

        certs.append(check("accept4/drift-exact/k=1/i=2", {"p": 2, "k": 1, "i": 2}, run))
    for level in tower:
        for i in (2, 3, 4):
            certs.append(verify_drift_recursion(level, i, seq))
    return certs


def criterion_5_approximant_gaps(seed=0, k_max=2) -> list[Certificate]:
    """Ladder values 17/16, 273/256, 4369/4096 at p=2 and 82/81 at p=3; tails above omega."""
    certs = []
    for p, km in ((2, min(2, k_max)), (3, 0)):
        cfg = EmbeddingConfig.default(p)
        certs += [verify_approximant_gap(appr, cfg) for appr in ladder(cfg, km)[1]]
    return certs


def criterion_6_gap_bound_sweep(seed=0, k_max=2) -> list[Certificate]:
    """200 seeded local-ring samples never beat the ladder bound; h_k attains it."""
    cfg = EmbeddingConfig.default(2)
    tower, apprs = ladder(cfg, 1)
    return [gap_bound_sweep(tower[k], apprs[k], cfg, samples=100, seed=seed) for k in (0, 1)]


def criterion_7_ceiling(seed=0, k_max=2) -> list[Certificate]:
    """v(1/x - f) < -2/p + omega/p < -1/p^2 for the pinned family and 100 samples."""
    cfg = EmbeddingConfig.default(2)
    _, apprs = ladder(cfg, 1)
    certs = []
    expect = {"0": "-1/2", "1/approximant[0]": "-15/32", "1/approximant[1]": "-239/512"}
    family = ceiling_family(random.Random(f"{seed}:accept7"), apprs, 50, 50)
    for label, f in family:
        got, cert = ceiling_check(f, cfg, label)
        if label in expect and cert.passed and str(got) != expect[label]:
            cert.status = FAIL
            cert.actual = f"{got} (expected the frozen value {expect[label]})"
        certs.append(cert)
    return certs


def criterion_8_dependence(seed=0, k_max=2) -> list[Certificate]:
    """Dependence verdict with m=2 for p in {2,3}."""
    certs = []
    for p in (2, 3):
        cfg = EmbeddingConfig.default(p)
        _, apprs = ladder(cfg, min(2, k_max) if p == 2 else 1)
        _, cert = dependence_report(cfg, apprs, samples=20, seed=seed)
        cert.id = f"accept8/dependence/p={p}"
        certs.append(cert)
    return certs


def criterion_9_oracles(seed=0, k_max=2) -> list[Certificate]:
    """500 multiplicativity and 500 ultrametric pairs per engine; 100 restrictions per c."""
    certs = []
    for seq in (p_sequence(2), q_sequence(2)):
        certs.append(multiplicativity_sweep(seq, 500, seed))
        certs.append(ultrametric_sweep(seq, 500, seed))
    for c in (1, 2):
        certs.append(restriction_sweep(2, c, 100, seed))
    return certs


def criterion_10_uniqueness(seed=0, k_max=2) -> list[Certificate]:
    """Exhaustive distinctness of standard-monomial values; corrupted table aborts."""

    def distinct():
        seq = p_sequence(2)
        seen = set()
        total = 0
        for m in range(17):
            for a1 in range(4):
                for a2 in range(4):
                    for a3 in range(4):
                        val = seq.scale * m + seq.value(1) * a1 + seq.value(2) * a2 + seq.value(3) * a3
                        seen.add(val)
                        total += 1
        return f"{total} distinct values", f"{len(seen)} distinct values", len(seen) == total

    def aborts():
        # a private sequence: corrupting the shared one would poison every
        # later caller in the process
        corrupted = GenSeq(ring_uv(2), Fraction(1), "uv")
        corrupted.value(1)
        corrupted._values[1] = corrupted.scale  # force v(S_1) == v(S_0)
        u_plus_v = corrupted.poly(0) + corrupted.poly(1)
        try:
            value(u_plus_v, corrupted)
            actual = "no fault raised"
        except ValueTieError as e:
            actual = "tie fault raised" if "tied term values" in str(e) else "fault lacked diagnostics"
        return "tie fault raised", actual, actual == "tie fault raised"

    return [
        check("accept10/exhaustive-distinct", {"p": 2, "m_max": 16, "a_max": 3, "n": 3}, distinct),
        check("accept10/corrupted-table-aborts", {"p": 2}, aborts),
    ]


CRITERIA = [
    ("key-polynomial values match the closed form", criterion_1_key_values),
    ("tower value formulas", criterion_2_tower_values),
    ("exact tower identities", criterion_3_exact_identities),
    ("drift value bound", criterion_4_drift_bound),
    ("approximant gap ladder", criterion_5_approximant_gaps),
    ("gap bound sample sweep", criterion_6_gap_bound_sweep),
    ("approximation ceiling", criterion_7_ceiling),
    ("dependence verdict", criterion_8_dependence),
    ("engine oracle sweeps", criterion_9_oracles),
    ("uniqueness of the minimum", criterion_10_uniqueness),
]


def run_all(seed: int = 0, k_max: int = 2):
    """Yield (criterion number, description, certificates) for every criterion."""
    for n, (description, fn) in enumerate(CRITERIA, start=1):
        yield n, description, fn(seed=seed, k_max=k_max)
