"""Span tracing installed from outside the program.

The tracer replaces chosen valcert functions and methods with wrappers that
open a span on entry and close it on exit.  ``src/`` is never edited: every
attribute of every loaded valcert module or class that refers to a wrapped
function is swapped, so a function imported by name into another module
(``embed_uv`` into ``engine``, ``value`` into ``tower``) and an alias such as
``Poly.__rmul__ = __mul__`` are traced too.  ``remove()`` puts the originals
back.

Each span records its name, start, end, parent span, the element it belongs
to, and one work count (terms or term products).  Spans are kept in compact
arrays in memory and written out by ``write()`` once the run has ended.  A
span's self time is its duration minus the time its child spans cover; the
tracer accumulates it per name as spans close.  Times are CPU time of the
thread, as in run.py.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, module, attribute path, work count) for every traced layer;
# the work count is worked out from the call's arguments or result.
LAYERS = [
    ("polys.mul", "valcert.polys", "Poly.__mul__", "term_products"),
    ("polys.divmod", "valcert.polys", "Poly.__divmod__", "dividend_terms"),
    ("polys.pow", "valcert.polys", "Poly.__pow__", None),
    ("polys.substitute", "valcert.polys", "substitute", None),
    ("embeddings.embed_uv", "valcert.embeddings", "embed_uv", None),
    ("engine.value", "valcert.engine", "value", None),
    ("engine.expand", "valcert.engine", "expand", "terms"),
    ("keyseq.genseq", "valcert.keyseq", "p_sequence", None),
    ("keyseq.genseq", "valcert.keyseq", "q_sequence", None),
    ("keyseq.poly", "valcert.keyseq", "GenSeq.poly", None),
    ("tower.build_tower", "valcert.tower", "build_tower", None),
    ("tower.verify", "valcert.tower", "verify_unit_descent", None),
    ("tower.verify", "valcert.tower", "verify_twisted_recursion", None),
    ("tower.verify", "valcert.tower", "verify_drift_recursion", None),
    ("tower.verify", "valcert.tower", "verify_value_formula", None),
    ("artin_schreier.build_approximants", "valcert.artin_schreier", "build_approximants", None),
    ("artin_schreier.gap_bound_sweep", "valcert.artin_schreier", "gap_bound_sweep", None),
    ("artin_schreier.ceiling_check", "valcert.artin_schreier", "ceiling_check", None),
    ("sampling", "valcert.sampling", "random_poly", None),
    ("sampling", "valcert.sampling", "random_ratfunc", None),
    ("sampling", "valcert.sampling", "random_level_element", None),
    ("sampling", "valcert.sampling", "random_value_pinned", None),
]


def _support(x) -> int:
    size = getattr(x, "support_size", None)
    if size is not None:
        return size
    return 1 if isinstance(x, int) else 0


class Tracer:
    """Span recorder; ``install()`` patches valcert, ``remove()`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_elem = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_count = array("q")
        # open spans: [span index, start, time covered by children]
        self._stack: list[list] = []
        self.element = -1
        # per name: [calls, total seconds, self seconds, work count]
        self.totals: dict[str, list] = {}
        self.peak_support = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0, 0]
        return nid

    def open(self, nid: int) -> None:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_elem.append(self.element)
        self.span_end.append(0.0)
        self.span_count.append(0)
        start = time.thread_time()
        self.span_start.append(start)
        self._stack.append([idx, start, 0.0])

    def close(self, count: int) -> None:
        end = time.thread_time()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        self.span_count[idx] = count
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        tot = self.totals[self.names[self.span_name[idx]]]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        tot[3] += count

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(0)

    # -- counts --------------------------------------------------------------

    def _count(self, what: str | None, args, result) -> int:
        if what == "term_products":
            a, b = _support(args[0]), _support(args[1])
            self.peak_support = max(self.peak_support, a, b)
            return a * b
        if what == "dividend_terms":
            a, b = _support(args[0]), _support(args[1])
            self.peak_support = max(self.peak_support, a, b)
            return a
        if what == "terms":
            return len(result.terms)
        return 0

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, what: str | None):
        tracer, nid = self, self.name_id(name)

        def traced(*args, **kwargs):
            tracer.open(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(tracer._count(what, args, result) if result is not None else 0)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer in LAYERS wherever valcert refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module in {layer[1] for layer in LAYERS}:
            importlib.import_module(module)
        owners = {}
        for n, m in list(sys.modules.items()):
            if n == "valcert" or n.startswith("valcert."):
                owners[id(m)] = m
                for v in vars(m).values():
                    if isinstance(v, type) and v.__module__.startswith("valcert"):
                        owners[id(v)] = v
        for name, module, path, what in LAYERS:
            owner = sys.modules[module]
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            fn = vars(owner)[path.split(".")[-1]]
            traced = self._wrap(name, fn, what)
            for obj in owners.values():
                for attr, val in list(vars(obj).items()):
                    if val is fn:
                        self._patched.append((obj, attr, fn))
                        setattr(obj, attr, traced)

    def remove(self) -> None:
        for obj, attr, fn in reversed(self._patched):
            setattr(obj, attr, fn)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as tab-separated rows: id, parent, element, name, start, end, count."""
        with open(path, "w") as out:
            out.write("id\tparent\telement\tname\tstart\tend\tcount\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_elem[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t{self.span_count[i]}\n"
                )
