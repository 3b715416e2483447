"""Differential check of Poly multiplication and division against sympy.

While the benchmark re-runs some elements after its timed rounds, an
OperandCapture keeps a seeded sample of the operands that reach
``Poly.__mul__`` and ``Poly.__divmod__``.  ``sympy_check`` then recomputes
each product and each (quotient, remainder) with sympy's sparse polynomials
over GF(p), with y ordered before x so that division is by the y-degree as
in valcert.  The sparse ring is used rather than the dense ``sympy.Poly``
because tower operands carry exponents near 2^20.
"""

from __future__ import annotations

import random

KEEP = 40  # sampled operations of each kind
MAX_SUPPORT = 400  # largest operand or result support sampled


class OperandCapture:
    """Reservoir sample of (element, a, b, result) for Poly * and divmod.

    ``element`` is the index of the benchmark element that was running,
    set by the caller, so a disagreement fails that element.
    """

    def __init__(self, poly_cls, seed: int):
        self._cls = poly_cls
        self.element = -1
        self._rng = random.Random(f"{seed}:operands")
        self.samples = {"mul": [], "divmod": []}
        self._seen = {"mul": 0, "divmod": 0}
        self._saved = {}

    def _keep(self, kind: str, item) -> None:
        self._seen[kind] += 1
        kept = self.samples[kind]
        if len(kept) < KEEP:
            kept.append(item)
        else:
            j = self._rng.randrange(self._seen[kind])
            if j < KEEP:
                kept[j] = item

    def install(self) -> None:
        cls = self._cls
        mul, dm = cls.__mul__, cls.__divmod__
        self._saved = {"__mul__": mul, "__rmul__": cls.__rmul__, "__divmod__": dm}
        small = MAX_SUPPORT

        def captured_mul(a, b):
            out = mul(a, b)
            if isinstance(b, cls) and out is not NotImplemented:
                if max(a.support_size, b.support_size, out.support_size) <= small:
                    self._keep("mul", (self.element, a, b, out))
            return out

        def captured_divmod(a, b):
            out = dm(a, b)
            if out is not NotImplemented:
                q, r = out
                if max(a.support_size, b.support_size, q.support_size, r.support_size) <= small:
                    self._keep("divmod", (self.element, a, b, out))
            return out

        cls.__mul__ = cls.__rmul__ = captured_mul
        cls.__divmod__ = captured_divmod

    def remove(self) -> None:
        for attr, fn in self._saved.items():
            setattr(self._cls, attr, fn)
        self._saved = {}


def sympy_check(samples: dict) -> tuple[str, list[tuple[int, str]]]:
    """Recompute every sampled operation with sympy; returns (summary, (element, message) failures)."""
    try:
        from sympy.polys.domains import GF
        from sympy.polys.orderings import lex
        from sympy.polys.rings import ring
    except ImportError:
        return "sympy check skipped: sympy is not importable", []
    rings = {}

    def conv(f):
        p = f.ring.p
        if p not in rings:
            rings[p] = ring("y,x", GF(p), lex)[0]
        return rings[p].from_dict({(e2, e1): c for (e1, e2), c in f.terms()})

    bad = []
    for j, a, b, out in samples["mul"]:
        if conv(a) * conv(b) != conv(out):
            bad.append((j, f"Poly.__mul__ disagrees with sympy on ({a}) * ({b})"))
    for j, a, b, (q, r) in samples["divmod"]:
        if conv(a).div(conv(b)) != (conv(q), conv(r)):
            bad.append((j, f"Poly.__divmod__ disagrees with sympy on ({a}) by ({b})"))
    n_mul, n_div = len(samples["mul"]), len(samples["divmod"])
    return f"sympy check: {n_mul} products and {n_div} divisions compared, {len(bad)} disagree", bad
