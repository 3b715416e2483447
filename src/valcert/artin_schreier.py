"""The degree-p extension by x, its approximants, and dependence evidence.

The intermediate field adjoins x to the base field, and 1/x is an
Artin-Schreier generator: it satisfies X^p - X - 1/u = 0.  The unique
extension of the base valuation is computed by the host engine on (x,y).

The certificates here cover, in order:

* the gap h = x^p - u: its exact shape -u*x^(p-1), its value 2 - 1/p,
  and the fact that this exceeds the tail constant omega = p^4/(p^4-1);
* the approximant ladder h_k: the gap h_k^p - x^p has value
  1 + p^-4 + ... + p^(-4(k+1)) exactly, with everything above the leading
  key polynomial staying above omega;
* maximality: no sampled element g of the level-k local ring beats the
  ladder, and g = h_k attains the bound;
* the approximation ceiling: for every sampled base-field element f,
  v(1/x - f) < -2/p + omega/p < -1/p^2.

The last inequality, quantified over all of the base field, is the value
criterion for the extension being a *dependent* Artin-Schreier defect
extension.  A sampled sweep cannot prove the universal statement; the
report says so and presents the sweep as falsifiable evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .certificates import Certificate, check
from .embeddings import EmbeddingConfig, embed, embed_uv
from .engine import _first_failure, value
from .keyseq import GenSeq, p_sequence, q_sequence
from .polys import Poly, RatFunc, ring_uv, ring_xy
from .sampling import random_level_element, random_ratfunc, random_value_pinned
from .tower import TowerLevel
from .values import INFINITY, omega

__all__ = [
    "Approximant",
    "DefectEvidence",
    "EvidenceEntry",
    "extended_value",
    "gap_element_certificates",
    "build_approximants",
    "verify_approximant_gap",
    "gap_bound_sweep",
    "ceiling_family",
    "ceiling_check",
    "dependence_report",
]


def extended_value(g: Poly | RatFunc, cfg: EmbeddingConfig) -> Fraction:
    """Value of an element of the base, intermediate or host field.

    Inputs on (u,v) or (x,v) coordinates are embedded into (x,y) first;
    one engine computes all three valuations, since each is the restriction
    of the host value.
    """
    return value(embed(g, cfg), q_sequence(cfg.p))


def gap_value(p: int, k: int) -> Fraction:
    """Closed-form ladder value 1 + p^-4 + ... + p^(-4(k+1))."""
    series = (p ** (4 * (k + 2)) - 1) // (p**4 - 1)
    return Fraction(series, p ** (4 * (k + 1)))


def ceiling(p: int) -> Fraction:
    """The approximation ceiling -2/p + omega/p."""
    return Fraction(-2, p) + omega(p) / p


def gap_element_certificates(cfg: EmbeddingConfig) -> list[Certificate]:
    """Exact facts about h = x^p - u, and the two rational inequalities."""
    p = cfg.p
    seq = q_sequence(p)
    host = ring_xy(p)
    x = RatFunc(Poly.var(host, "x"))
    u_img = embed_uv(Poly.var(ring_uv(p), "u"), cfg)
    gap = x**p - u_img
    om = omega(p)
    certs = []

    def identity():
        rhs = -u_img * x ** (p - 1)
        ok = gap == rhs
        return "x^p - u == -u*x^(p-1)", "identity" if ok else "mismatch", ok

    certs.append(check("as/gap-identity", {"p": p, "c": cfg.c}, identity))

    def gapval():
        expect = Fraction(2 * p - 1, p)  # 2 - 1/p
        got = value(gap, seq)
        return str(expect), str(got), got == expect

    certs.append(check("as/gap-value", {"p": p, "c": cfg.c}, gapval))

    def above_tail():
        got = value(gap, seq)
        return f"> {om}", str(got), got > om

    certs.append(check("as/gap-above-tail", {"p": p, "c": cfg.c}, above_tail))

    def ceiling_strict():
        lhs = ceiling(p)
        rhs = Fraction(-1, p * p)
        return f"{lhs} < {rhs}", f"{lhs} < {rhs}" if lhs < rhs else f"{lhs} >= {rhs}", lhs < rhs

    certs.append(check("as/ceiling-strict", {"p": p, "c": cfg.c}, ceiling_strict))
    return certs


@dataclass
class Approximant:
    """Level-k approximant h_k, with the tail of its p-th-power gap.

    h_0 = v^p and h_k = h_(k-1) + (-1)^k * K_(k,k+1)^p.  The tail is
    h_k^p - x^p - (-1)^k * K_(k,k+2), an element of the host field whose
    value stays above the tail constant.
    """

    k: int
    element: RatFunc  # h_k over (u,v)
    tail: RatFunc  # over (x,y)


def build_approximants(tower: list[TowerLevel], k_max: int, cfg: EmbeddingConfig) -> list[Approximant]:
    if len(tower) <= k_max:
        raise ValueError(f"tower has {len(tower)} levels, need {k_max + 1}")
    p = cfg.p
    host = ring_xy(p)
    x = RatFunc(Poly.var(host, "x"))
    xp = x**p
    out = []
    h = tower[0].keys[1] ** p
    for k in range(k_max + 1):
        if k > 0:
            sign = 1 if k % 2 == 0 else -1
            h = h + sign * tower[k].keys[k + 1] ** p
        sign_k = 1 if k % 2 == 0 else -1
        lead = tower[k].keys[k + 2]
        tail = embed_uv(h, cfg) ** p - xp - sign_k * embed_uv(lead, cfg)
        out.append(Approximant(k=k, element=h, tail=tail))
    return out


def verify_approximant_gap(appr: Approximant, cfg: EmbeddingConfig) -> Certificate:
    """Gap value of h_k^p - x^p against the ladder closed form; tail above omega."""
    p = cfg.p
    seq = q_sequence(p)

    def run():
        host = ring_xy(p)
        x = RatFunc(Poly.var(host, "x"))
        # h^p - x^p = (h - x)^p in characteristic p
        got = p * value(embed_uv(appr.element, cfg) - x, seq)
        expect = gap_value(p, appr.k)
        tail_val = value(appr.tail, seq)
        om = omega(p)
        ok = got == expect and tail_val > om
        return (
            f"gap {expect}; tail > {om}",
            f"gap {got}; tail {tail_val}",
            ok,
        )

    return check(f"as/approximant-gap/k={appr.k}", {"p": p, "c": cfg.c, "k": appr.k}, run)


def gap_bound_sweep(
    level: TowerLevel,
    appr: Approximant,
    cfg: EmbeddingConfig,
    samples: int,
    seed: int,
    host_seq: GenSeq | None = None,
) -> Certificate:
    """No sampled local-ring element beats the ladder bound; h_k attains it."""
    p = cfg.p
    k = level.k
    host_seq = host_seq or q_sequence(p)
    bound = gap_value(p, k)

    def run():
        x = RatFunc(Poly.var(ring_xy(p), "x"))

        def gap_of(g: RatFunc) -> Fraction:
            # v(g^p - x^p) = p * v(g - x): the Frobenius is additive in
            # characteristic p, and g - x expands at 1/p of the depth
            return p * value(embed_uv(g, cfg) - x, host_seq)

        attained = gap_of(appr.element)
        if attained != bound:
            return f"attained {bound}", f"attained {attained}", False
        rng = random.Random(f"{seed}:gapbound:k={k}")
        over, first = 0, ""
        for n in range(samples):
            g = random_level_element(rng, level, i_cap=k + 3)
            if gap_of(g) > bound:
                over += 1
                first = first or f"; {_first_failure(n, g=g)}"
        ok = over == 0
        return (
            f"{samples} samples <= {bound}; attained by approximant",
            f"{samples - over} samples <= bound; attained {attained}{first}",
            ok,
        )

    params = {"p": p, "c": cfg.c, "k": k, "samples": samples, "seed": seed}
    return check(f"as/gap-bound-sweep/k={k}", params, run)


def ceiling_family(
    rng: random.Random,
    base_seq: GenSeq,
    approximants: list[Approximant],
    pinned: int,
    generic: int,
) -> list[tuple[str, RatFunc]]:
    """The labelled base-field elements whose ceiling is checked.

    f = 0; the reciprocals of every approximant supplied; ``pinned`` seeded
    random elements of value -1/p (the only regime where the ceiling needs
    the ladder bound); and ``generic`` seeded random elements, drawn in that
    order from ``rng``.
    """
    uv = base_seq.ring
    family = [("0", RatFunc(Poly.zero(uv)))]
    family += [(f"1/approximant[{a.k}]", 1 / a.element) for a in approximants]
    family += [(f"pinned[{n}]", random_value_pinned(rng, base_seq)) for n in range(pinned)]
    family += [(f"generic[{n}]", random_ratfunc(rng, uv)) for n in range(generic)]
    return family


def ceiling_check(
    f: RatFunc,
    cfg: EmbeddingConfig,
    label: str,
    host_seq: GenSeq | None = None,
) -> tuple[Fraction | None, Certificate]:
    """v(1/x - f) < -2/p + omega/p < -1/p^2 for a base-field element f.

    Returns the value with its certificate; the value is None when the
    certificate is budget-exceeded.
    """
    p = cfg.p
    host_seq = host_seq or q_sequence(p)
    bound = ceiling(p)
    crit = Fraction(-1, p * p)
    got = None

    def run():
        nonlocal got
        x = RatFunc(Poly.var(ring_xy(p), "x"))
        got = value(1 / x - embed_uv(f, cfg), host_seq)
        ok = got < bound and bound < crit
        return f"< {bound} < {crit}", str(got), ok

    cert = check(f"as/ceiling/{label}", {"p": p, "c": cfg.c, "f": label}, run)
    return got, cert


@dataclass
class EvidenceEntry:
    label: str
    value: Fraction
    below_ceiling: bool
    below_criterion: bool


@dataclass
class DefectEvidence:
    """Sweep evidence for the dependence criterion with exponent m.

    The criterion asks that v(1/x - f) < -1/p^m for *every* base-field
    element f.  A finite sweep can only falsify that, never prove it; the
    verdict is "dependent-consistent" when no sampled element violated the
    bound, and every entry is retained so a violation would be visible.
    """

    p: int
    c: int
    m: int
    entries: list[EvidenceEntry]
    verdict: str

    note = (
        "finite sweep: falsifiable evidence for, not a proof of, the "
        "universally quantified criterion"
    )


def dependence_report(
    cfg: EmbeddingConfig,
    approximants: list[Approximant],
    samples: int = 40,
    seed: int = 0,
) -> tuple[DefectEvidence | None, Certificate]:
    """Run the ceiling check over the ceiling family, ``samples`` of each kind.

    The criterion exponent is m = 2.  Returns the evidence with its
    ``as/dependence`` certificate; the evidence is None when the
    certificate is budget-exceeded.
    """
    p = cfg.p
    m = 2
    seq = q_sequence(p)
    crit = Fraction(-1, p**m)
    bound = ceiling(p)
    evidence = None

    def run():
        nonlocal evidence
        rng = random.Random(f"{seed}:dependence")
        family = ceiling_family(rng, p_sequence(p), approximants, samples, samples)
        inv_x = 1 / RatFunc(Poly.var(ring_xy(p), "x"))
        entries = []
        for label, f in family:
            got = value(inv_x - embed_uv(f, cfg), seq)
            entries.append(EvidenceEntry(label, got, got < bound, got < crit))
        ok = all(e.below_criterion for e in entries)
        verdict = "dependent-consistent" if ok else "criterion-violated"
        evidence = DefectEvidence(p, cfg.c, m, entries, verdict)
        worst = max((e.value for e in entries if e.value is not INFINITY), default=None)
        return f"all sampled values < -1/p^{m}", f"verdict {verdict}; supremum observed {worst}", ok

    params = {"p": p, "c": cfg.c, "m": m, "entries": 1 + len(approximants) + 2 * samples}
    cert = check("as/dependence", params, run)
    return evidence, cert
