"""The four benchmark workloads: set-up, elements and output checks.

A workload's set-up builds everything its elements need (key sequences,
tower, approximants, inputs) and returns a ``Setup``.  An element is one
call into valcert's public API; the run loop times it, and the element's
``check`` then compares the result, untimed, with values the benchmark
computes itself with ``fractions.Fraction``.  Nothing is compared with a
stored copy of earlier output.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import inf
from pathlib import Path
from typing import Callable

STRATA_FILE = Path(__file__).with_name("strata.json")

# Host key polynomials built in set-up, so no element pays for extending
# the sequence: S_7 has y-degree 4^6 at p = 2 and S_5 has 3^8 at p = 3.
HOST_KEYS = {2: 7, 3: 5}


@dataclass
class Element:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    record: Callable[[object], object]  # JSON-able form, compared across repeats


@dataclass
class Setup:
    elements: list[Element]
    # Elements run again, untimed, after the timed rounds: their records
    # must repeat, and their mul/divmod operands feed the sympy check.
    recheck: list[int]
    # Further untimed checks: returns (element index, message) per failure.
    extra: Callable[[], list[tuple[int, str]]] = field(default=lambda: [])


# -- closed forms, computed here and never taken from valcert -------------------


def ladder_value(p: int, k: int) -> Fraction:
    """1 + p^-4 + ... + p^(-4(k+1))."""
    return sum((Fraction(1, p ** (4 * j)) for j in range(k + 2)), Fraction(0))


def key_value(p: int, k: int, i: int) -> Fraction:
    """Value of the level-k key of index i: p^(-2k) for i = 0, else sum_(j<i) p^(4j-2i-2k)."""
    if i == 0:
        return Fraction(1, p ** (2 * k))
    return sum((Fraction(p ** (4 * j), p ** (2 * i + 2 * k)) for j in range(i)), Fraction(0))


def drift_floor(p: int, k: int, i: int) -> Fraction:
    """sum_(j=1..i-1) p^(4j-2i-2k) + p^(4-2i-2k)."""
    return key_value(p, k, i) - Fraction(1, p ** (2 * i + 2 * k)) + Fraction(p**4, p ** (2 * i + 2 * k))


def ceiling(p: int) -> Fraction:
    """-2/p + omega/p with omega = p^4/(p^4 - 1)."""
    return Fraction(-2, p) + Fraction(p**4, p**4 - 1) / p


def _frac(text: str) -> Fraction | float:
    return inf if text == "inf" else Fraction(text)


def _num(v) -> Fraction | float:
    return _frac(str(v))


# -- element checks -------------------------------------------------------------


def _passed(cert) -> str | None:
    return None if cert.status == "pass" else f"status {cert.status}: {cert.actual}"


def _check_sweep(bound: Fraction, cert) -> str | None:
    bad = _passed(cert)
    if bad:
        return bad
    claimed = re.search(r"<= (\S+);", cert.expected)
    attained = re.search(r"attained (\S+)$", cert.actual)
    if not claimed or _frac(claimed.group(1)) != bound:
        return f"bound {cert.expected!r}, closed form {bound}"
    if not attained or _frac(attained.group(1)) != bound:
        return f"attained {cert.actual!r}, closed form {bound}"
    return None


def _check_tower(kind: str, p: int, k: int, i: int, cert) -> str | None:
    bad = _passed(cert)
    if bad:
        return bad
    if kind == "value":
        want = key_value(p, k, i)
        return None if _frac(cert.actual) == want else f"value {cert.actual}, closed form {want}"
    if not cert.actual.startswith("identity"):
        return f"identity not certified: {cert.actual}"
    if kind == "unit":
        return None if cert.actual == "identity; unit value 0" else f"unit: {cert.actual}"
    if kind == "twisted":
        m = re.fullmatch(r"identity; unit value 0; offset value (\S+)", cert.actual)
        floor = Fraction(2, p ** (2 * (k + 1)))
        return None if m and _frac(m.group(1)) >= floor else f"offset below {floor}: {cert.actual}"
    m = re.fullmatch(r"identity; drift value (\S+)", cert.actual)
    floor = drift_floor(p, k, i)
    return None if m and _frac(m.group(1)) >= floor else f"drift below {floor}: {cert.actual}"


def _check_cross(cert) -> str | None:
    bad = _passed(cert)
    if bad:
        return bad
    return None if _frac(cert.expected) == _frac(cert.actual) else f"{cert.expected} != {cert.actual}"


def _check_mult(vals) -> str | None:
    vf, vg, vfg = map(_num, vals)
    return None if vfg == vf + vg else f"v(fg) = {vfg}, v(f) + v(g) = {vf + vg}"


def _check_ultra(vals) -> str | None:
    vf, vg, vs = map(_num, vals)
    lo = min(vf, vg)
    if vs < lo or (vf != vg and vs != lo):
        return f"v(f+g) = {vs} with v(f) = {vf}, v(g) = {vg}"
    return None


def _check_ceiling(p: int, is_zero: bool, out) -> str | None:
    got, cert = out
    bad = _passed(cert)
    if bad:
        return bad
    ceil, crit = ceiling(p), Fraction(-1, p * p)
    stated = re.fullmatch(r"< (\S+) < (\S+)", cert.expected)
    if not stated or (_frac(stated.group(1)), _frac(stated.group(2))) != (ceil, crit):
        return f"stated ceiling {cert.expected!r}, closed form < {ceil} < {crit}"
    v = _num(got)
    if not v < ceil:
        return f"v(1/x - f) = {v} not below {ceil}"
    if is_zero and v != Fraction(-1, p):
        return f"v(1/x) = {v}, closed form {Fraction(-1, p)}"
    return None


def _cert_record(cert):
    return cert.to_record()


def _values_record(vals):
    return [str(v) for v in vals]


def _ceiling_record(out):
    got, cert = out
    return [str(got), cert.to_record()]


# -- ladder sweeps ------------------------------------------------------------------


@dataclass(frozen=True)
class Ladder:
    """A gap_bound_sweep workload and the make-up of its rounds.

    The pool's sweep seeds are ranked by work in strata.json.  Below rank
    ``cut`` (a share of the pool) a round draws one seed, by the benchmark
    seed, from each run of ``group`` consecutive ranks; group 1 takes every
    seed.  From ``cut`` to ``top`` it takes the fixed seed in the middle of
    each run of ``step`` ranks.  Fixed ranks keep the heavy tail, which sets
    the round time, elem_tail_ms and peak_rss_mb, out of the seed's reach:
    there one draw moves a figure by more than its bound.
    """

    p: int
    k: int
    shape: tuple[int, int]  # build_tower(p, k_max, i_max)
    pool: int
    cut: float
    group: int
    step: int
    top: float


LADDERS = {
    # Costs run from 1 ms to 11 s; the 50th to 90th percentile of the pool
    # spans 20 ms to 6 s.  Every seed below the 70th percentile runs, so the
    # median is an order statistic of many close costs; above it, one seed
    # in 8 up to the 90th percentile.  The top 10% take 4 to 11 s each and
    # would double the round.  No part is seeded.
    "ladder-sweep-p2-l1": Ladder(2, 1, (1, 4), 240, cut=0.7, group=1, step=8, top=0.9),
    "ladder-sweep-p3-l0": Ladder(3, 0, (0, 3), 2400, cut=0.95, group=6, step=6, top=1.0),
}


def load_pool(name: str) -> list[int]:
    """Sweep seeds of a ladder workload's pool, cheapest first (see make_strata.py)."""
    with open(STRATA_FILE) as f:
        return [s for s, _work in json.load(f)[name]["ranked"]]


def ladder_inputs(name: str, seed: int) -> list[tuple[int, int]]:
    """(pool rank, sweep seed) of each element of one round, in run order.

    The order is a fixed shuffle of the ranks, the same for every seed, so
    heavy elements are spread through the round.
    """
    lad = LADDERS[name]
    pool = load_pool(name)
    cut, top = int(len(pool) * lad.cut), int(len(pool) * lad.top)
    rng = random.Random(f"{seed}:{name}")
    ranks = [rng.randrange(i, min(i + lad.group, cut)) for i in range(0, cut, lad.group)]
    ranks += list(range(cut + lad.step // 2, top, lad.step))
    random.Random(name).shuffle(ranks)
    return [(r, pool[r]) for r in ranks]


def ladder_parts(name: str):
    """Tower, level-k approximant, embedding and prepared host sequence of a ladder workload."""
    from valcert import q_sequence
    from valcert.artin_schreier import build_approximants
    from valcert.embeddings import EmbeddingConfig
    from valcert.tower import build_tower

    lad = LADDERS[name]
    cfg = EmbeddingConfig.default(lad.p)
    tower = build_tower(lad.p, *lad.shape)
    appr = build_approximants(tower, lad.k, cfg)[lad.k]
    host = q_sequence(lad.p)
    host.poly(HOST_KEYS[lad.p])
    return tower, appr, cfg, host


def ladder(name: str, seed: int) -> Setup:
    """Each element is gap_bound_sweep(tower[k], appr[k], cfg, samples=1, seed=s, host)."""
    from valcert import Poly, RatFunc, embed_uv, ring_xy, value
    from valcert.artin_schreier import gap_bound_sweep
    from valcert.sampling import random_level_element

    p, k = LADDERS[name].p, LADDERS[name].k
    tower, appr, cfg, host = ladder_parts(name)
    bound = ladder_value(p, k)
    inputs = ladder_inputs(name, seed)
    elements = [
        Element(
            f"{name}/s={s}",
            partial(gap_bound_sweep, tower[k], appr, cfg, samples=1, seed=s, host_seq=host),
            partial(_check_sweep, bound),
            _cert_record,
        )
        for _rank, s in inputs
    ]
    by_rank = sorted(range(len(inputs)), key=lambda j: inputs[j][0])
    recheck = sorted(by_rank[: len(inputs) // 2])

    def frobenius() -> list[tuple[int, str]]:
        # v(g^p - x^p) = p * v(g - x) in characteristic p, on the sample each
        # cheap sweep drew (the sweep seeds its generator the same way).
        x = RatFunc(Poly.var(ring_xy(p), "x"))
        bad = []
        for j in recheck:
            rng = random.Random(f"{inputs[j][1]}:gapbound:k={k}")
            g = embed_uv(random_level_element(rng, tower[k], i_cap=k + 3), cfg)
            direct = _num(value(g**p - x**p, host))
            shallow = _num(value(g - x, host))
            if direct != p * shallow:
                bad.append((j, f"v(g^p - x^p) = {direct}, p * v(g - x) = {p * shallow}"))
            elif direct > bound:
                bad.append((j, f"sample gap {direct} beats the ladder bound {bound}"))
        return bad

    return Setup(elements, recheck, frobenius)


# -- tower-deep ---------------------------------------------------------------------


def tower_deep(seed: int) -> Setup:
    """Every unit-descent, value-formula, twisted and drift certificate of build_tower(2, 5, 6).

    The tower has no random inputs, so the seed changes nothing here.
    """
    from valcert import p_sequence
    from valcert.tower import (
        build_tower,
        verify_drift_recursion,
        verify_twisted_recursion,
        verify_unit_descent,
        verify_value_formula,
    )

    p, i_max = 2, 6
    seq = p_sequence(p)
    tower = build_tower(p, 5, i_max)
    jobs = []
    for level in tower:
        k = level.k
        jobs.append(("unit", k, 0, partial(verify_unit_descent, level, seq)))
        jobs += [("value", k, i, partial(verify_value_formula, level, i, seq)) for i in range(i_max + 1)]
        jobs += [("twisted", k, i, partial(verify_twisted_recursion, level, i, seq)) for i in range(2, i_max + 1)]
        jobs += [("drift", k, i, partial(verify_drift_recursion, level, i, seq)) for i in range(2, i_max + 1)]
    # A fixed shuffle spreads the sub-millisecond certificates of the low
    # levels through the round; run level by level, they all fell in its
    # first half second, and one busy moment of the machine moved the
    # median by half.
    random.Random("tower-deep").shuffle(jobs)
    elements = [
        Element(f"tower/{kind}/k={k}/i={i}", call, partial(_check_tower, kind, p, k, i), _cert_record)
        for kind, k, i, call in jobs
    ]
    # levels 0-4 take a few percent of the round; level 5 the rest
    recheck = [j for j, (_kind, k, _i, _call) in enumerate(jobs) if k < 5]
    return Setup(elements, recheck)


# -- oracle-mix ---------------------------------------------------------------------

# elements per characteristic and round
CROSS, MULT, ULTRA, PINNED, GENERIC = 400, 200, 200, 200, 200


def _poly(rng: random.Random, ring, max_deg: int, max_terms: int):
    from valcert import Poly

    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = rng.randint(1, ring.p - 1)
        f = Poly(ring, terms)
        if f:
            return f


def oracle_mix(seed: int) -> Setup:
    """Small seeded base-field elements at p = 2 and 3 through three kinds of call.

    engine.cross_check over both engines and embed_uv; value multiplicativity
    and ultrametric pairs on each engine; artin_schreier.ceiling_check over
    the ceiling family (zero, approximant reciprocals, pinned, generic).
    """
    from valcert import Poly, RatFunc, p_sequence, q_sequence, value
    from valcert.artin_schreier import build_approximants, ceiling_check
    from valcert.embeddings import EmbeddingConfig
    from valcert.engine import cross_check
    from valcert.sampling import random_ratfunc, random_value_pinned
    from valcert.tower import build_tower

    rng = random.Random(f"{seed}:oracle-mix")
    elements = []
    for p in (2, 3):
        base, host = p_sequence(p), q_sequence(p)
        cfg = EmbeddingConfig.default(p)
        apprs = build_approximants(build_tower(p, 1, 3), 1, cfg)
        uv = base.ring
        for n in range(CROSS):
            f = RatFunc(_poly(rng, uv, 5, 4), _poly(rng, uv, 5, 3))
            c = (p - 1) * (1 + n % 2)
            elements.append(Element(f"cross/p={p}/c={c}/{n}", partial(cross_check, f, c), _check_cross, _cert_record))
        for kind, count, check in (("mult", MULT, _check_mult), ("ultra", ULTRA, _check_ultra)):
            for n in range(count):
                seq = (base, host)[n % 2]
                f, g = _poly(rng, seq.ring, 8, 5), _poly(rng, seq.ring, 8, 5)
                while kind == "ultra" and not f + g:
                    g = _poly(rng, seq.ring, 8, 5)

                def call(f=f, g=g, seq=seq, kind=kind):
                    other = f * g if kind == "mult" else f + g
                    return value(f, seq), value(g, seq), value(other, seq)

                elements.append(Element(f"{kind}/p={p}/{seq.name}/{n}", call, check, _values_record))
        family = [("0", RatFunc(Poly.zero(uv)))]
        family += [(f"1/approximant[{a.k}]", 1 / a.element) for a in apprs]
        family += [(f"pinned[{n}]", random_value_pinned(rng, base)) for n in range(PINNED)]
        family += [(f"generic[{n}]", random_ratfunc(rng, uv)) for n in range(GENERIC)]
        for label, f in family:
            elements.append(
                Element(
                    f"ceiling/p={p}/{label}",
                    partial(ceiling_check, f, cfg, label, host),
                    partial(_check_ceiling, p, label == "0"),
                    _ceiling_record,
                )
            )
    rng.shuffle(elements)
    return Setup(elements, list(range(len(elements) // 4)))


WORKLOADS: dict[str, Callable[[int], Setup]] = {
    "ladder-sweep-p2-l1": partial(ladder, "ladder-sweep-p2-l1"),
    "ladder-sweep-p3-l0": partial(ladder, "ladder-sweep-p3-l0"),
    "oracle-mix": oracle_mix,
    "tower-deep": tower_deep,
}
