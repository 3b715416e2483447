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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certificates import Certificate, check, failures
from .embeddings import EmbeddingConfig, embed_uv, uv_images, xv_images
from .engine import value
from .keyseq import GenSeq, p_sequence, q_sequence
from .polys import Poly, RatFunc, _budget_memo, _cleared, _mul_cut, _substitute_terms
from .sampling import random_level_element, random_ratfunc, random_value_pinned
from .tower import TowerLevel, build_tower
from .values import INFINITY, omega

__all__ = [
    "Approximant",
    "gap_element_certificates",
    "build_approximants",
    "ladder",
    "verify_approximant_gap",
    "gap_bound_sweep",
    "ceiling_family",
    "ceiling_check",
    "NOTE",
    "verdict",
    "dependence_report",
]


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
    x = xv_images(cfg)["x"]
    u_img = uv_images(cfg)["u"]
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
    """Level-k approximant h_k, with the lead K_(k,k+2) of its p-th-power gap.

    h_0 = v^p and h_k = h_(k-1) + (-1)^k * K_(k,k+1)^p.  The tail
    h_k^p - x^p - (-1)^k * K_(k,k+2) is an element of the host field whose
    value stays above the tail constant; ``tail`` builds it on demand, so
    only a check that reads it pays for it, under its own budget.
    """

    k: int
    element: RatFunc  # h_k over (u,v)
    lead: RatFunc  # K_(k,k+2) over (u,v)

    def tail(self, cfg: EmbeddingConfig) -> RatFunc:
        """h_k^p - x^p - (-1)^k * K_(k,k+2), over (x,y)."""
        p = cfg.p
        return embed_uv(self.element, cfg) ** p - xv_images(cfg)["x"] ** p - (-1) ** self.k * embed_uv(self.lead, cfg)


def build_approximants(tower: list[TowerLevel], k_max: int, cfg: EmbeddingConfig) -> list[Approximant]:
    if len(tower) <= k_max:
        raise ValueError(f"tower has {len(tower)} levels, need {k_max + 1}")
    out = []
    h = tower[0].keys[1] ** cfg.p
    for k in range(k_max + 1):
        if k > 0:
            h = h + (-1) ** k * tower[k].keys[k + 1] ** cfg.p
        out.append(Approximant(k=k, element=h, lead=tower[k].keys[k + 2]))
    return out


def ladder(cfg: EmbeddingConfig, k_max: int) -> tuple[list[TowerLevel], list[Approximant]]:
    """build_tower(p, k_max, k_max + 3) and its approximants; level k holds the keys to k + 3 its sweep samples."""
    tower = build_tower(cfg.p, k_max, k_max + 3)
    return tower, build_approximants(tower, k_max, cfg)


def _times_x(terms: dict) -> dict:
    # the terms of x * f, for the terms of f: x = S_0 is one exponent shift
    return {(e1 + 1, e2): c for (e1, e2), c in terms.items()}


def _frobenius_gap(g: Poly | RatFunc, cfg: EmbeddingConfig, seq: GenSeq) -> Fraction:
    # v(g^p - x^p) = p * v(g - x): the Frobenius is additive in
    # characteristic p, and g - x expands at 1/p of the depth.  With g's
    # image cleared to N/D (polys._cleared), g - x is (N - x*D)/D, valued
    # unnormalized as _ceiling_value values its pair
    num, den = _cleared(g, uv_images(cfg))
    return cfg.p * (value(num - Poly._make(num.ring, _times_x(den._t)), seq) - value(den, seq))


def _gap_exceeds(g: Poly | RatFunc, cfg: EmbeddingConfig, seq: GenSeq, bound: Fraction) -> bool:
    """Whether _frobenius_gap(g) > bound, building only low-weight terms of g - x.

    Since x = S_0 and y = S_1, x^a * y^b has the exact value a*v(x) + b*v(y),
    its weight, and both weights are positive.  Write g = a/b and let the
    embedding send a to n1/d1 and b to n2/d2 (``_substitute_terms``); then
    g - x = N/D with N = n1*d2 - x*d1*n2 and D = d1*n2, and the question is
    v(N) > T = v(D) + bound/p.  A scalar or a monomial common to N and D
    shifts both sides alike, so the unnormalized pair decides it as the
    normalized one would.

    v's image has denominator 1, so d1 is a power of u's image denominator
    1 - x^(p-1), whose one term of least weight is the constant 1.  So
    v(d1) = 0 and v(D) = v(n2): n2's least weight when one term holds it
    alone, else value(n2).  Let N_T be the terms of N of weight <= T:
    v(N) = v(N_T) if v(N_T) <= T, and v(N) > T otherwise.  Dropping the
    terms above T is a ring homomorphism, so N_T is built with every
    product and sum truncated as it is formed; b is substituted in full.
    """
    g = g if isinstance(g, RatFunc) else RatFunc(g)
    p, ring = cfg.p, seq.ring
    images = uv_images(cfg)
    scale, (wx, wy) = seq.value_coefs(1)  # weights as integers over scale
    n2, d2 = _substitute_terms(g.den, images)
    weights = [wx * e1 + wy * e2 for e1, e2 in n2._t]
    least = min(weights)
    t = (Fraction(least, scale) if weights.count(least) == 1 else value(n2, seq)) + Fraction(bound, p)
    cut = math.floor(t * scale)
    n1, d1 = _substitute_terms(g.num, images, (wx, wy, cut))
    low = Poly._make(ring, _mul_cut(n1._t, d2._t, p, wx, wy, cut))
    low -= Poly._make(ring, _mul_cut(_times_x(d1._t), n2._t, p, wx, wy, cut))
    return low.is_zero() or value(low, seq) > t


# Each entry holds the gap p * v(h - x) of one approximant h = num/den.  A
# command or benchmark run meets one approximant per ladder level and
# embedding config, so 64 entries are far more than one run uses.
@_budget_memo
@lru_cache(maxsize=64)
def _attained_gap(num: Poly, den: Poly, cfg: EmbeddingConfig, seq: GenSeq) -> Fraction:
    return _frobenius_gap(RatFunc(num, den), cfg, seq)


def _ceiling_value(f: Poly | RatFunc, cfg: EmbeddingConfig, seq: GenSeq) -> Fraction:
    # v(1/x - f) for a base-field element f, the value the ceiling bounds.
    # With f's image cleared to N/D (polys._cleared), 1/x - f is
    # (D - x*N)/(x*D), so its value is v(D - x*N) - v(x) - v(D), where
    # v(x) = v(S_0) is the scale.  Each side is valued unnormalized, as
    # engine.host_value values its pair: the value is multiplicative, and
    # a common monomial or scalar moves both sides alike
    num, den = _cleared(f, uv_images(cfg))
    return value(den - Poly._make(den.ring, _times_x(num._t)), seq) - seq.scale - value(den, seq)


def verify_approximant_gap(appr: Approximant, cfg: EmbeddingConfig) -> Certificate:
    """Gap value of h_k^p - x^p against the ladder closed form; tail above omega.

    The gap comes from the memo ``_attained_gap``, shared with
    ``gap_bound_sweep``; the tail's value is computed on every call.
    """
    p = cfg.p
    seq = q_sequence(p)
    h = appr.element

    def run():
        got = _attained_gap(h.num, h.den, cfg, seq)
        expect = gap_value(p, appr.k)
        tail_val = value(appr.tail(cfg), seq)
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
    """No sampled local-ring element beats the ladder bound; h_k attains it.

    The approximant's gap comes from the memo ``_attained_gap``, shared
    with ``verify_approximant_gap``; every sample's gap is compared with
    the bound afresh, by ``_gap_exceeds``.
    """
    p = cfg.p
    k = level.k
    host_seq = host_seq or q_sequence(p)
    bound = gap_value(p, k)
    h = appr.element

    def run():
        attained = _attained_gap(h.num, h.den, cfg, host_seq)
        if attained != bound:
            return f"attained {bound}", f"attained {attained}", False
        rng = random.Random(f"{seed}:gapbound:k={k}")
        over, first = failures(
            samples,
            seed,
            lambda: {"g": random_level_element(rng, level, i_cap=k + 3)},
            lambda g: _gap_exceeds(g, cfg, host_seq, bound),
        )
        return (
            f"{samples} samples <= {bound}; attained by approximant",
            f"{samples - over} samples <= bound; attained {attained}" + (f"; {first}" if over else ""),
            over == 0,
        )

    params = {"p": p, "c": cfg.c, "k": k, "samples": samples, "seed": seed}
    return check(f"as/gap-bound-sweep/k={k}", params, run)


def ceiling_family(
    rng: random.Random,
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
    base_seq = p_sequence(approximants[0].element.ring.p)
    uv = base_seq.ring
    family = [("0", RatFunc(Poly.zero(uv)))]
    family += [(f"1/approximant[{a.k}]", 1 / a.element) for a in approximants]
    family += [(f"pinned[{n}]", random_value_pinned(rng, base_seq)) for n in range(pinned)]
    family += [(f"generic[{n}]", random_ratfunc(rng, uv)) for n in range(generic)]
    return family


def ceiling_check(
    f: Poly | RatFunc,
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
        got = _ceiling_value(f, cfg, host_seq)
        ok = got < bound and bound < crit
        return f"< {bound} < {crit}", str(got), ok

    cert = check(f"as/ceiling/{label}", {"p": p, "c": cfg.c, "f": label}, run)
    return got, cert


NOTE = "finite sweep: falsifiable evidence for, not a proof of, the universally quantified criterion"


def verdict(passed: bool) -> str:
    """The dependence verdict of an ``as/dependence`` certificate that passed or failed."""
    return "dependent-consistent" if passed else "criterion-violated"


def dependence_report(
    cfg: EmbeddingConfig,
    approximants: list[Approximant],
    samples: int,
    seed: int,
) -> tuple[list[tuple[str, Fraction]] | None, Certificate]:
    """Run the ceiling check over the ceiling family, ``samples`` of each kind.

    The criterion asks that v(1/x - f) < -1/p^m, m = 2, for *every*
    base-field element f.  A finite sweep can only falsify that, never
    prove it (``NOTE``): the ``as/dependence`` certificate passes, with the
    verdict "dependent-consistent", when no sampled element violated the
    bound.  Returns every (label, v(1/x - f)) entry, so a violation would be
    visible, with the certificate; the entries are None when the
    certificate is budget-exceeded.
    """
    p = cfg.p
    m = 2
    seq = q_sequence(p)
    crit = Fraction(-1, p**m)
    entries = None

    def run():
        nonlocal entries
        rng = random.Random(f"{seed}:dependence")
        family = ceiling_family(rng, approximants, samples, samples)
        entries = [(label, _ceiling_value(f, cfg, seq)) for label, f in family]
        ok = all(got < crit for _, got in entries)
        worst = max((got for _, got in entries if got is not INFINITY), default=None)
        return f"all sampled values < -1/p^{m}", f"verdict {verdict(ok)}; supremum observed {worst}", ok

    params = {"p": p, "c": cfg.c, "m": m, "entries": 1 + len(approximants) + 2 * samples}
    cert = check("as/dependence", params, run)
    return entries, cert
