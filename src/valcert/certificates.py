"""Machine-checked certificate records, sampled sweeps and report rendering.

``check`` runs one exact check as a timed certificate, and ``failures``
runs the sampled sweep inside one: it counts the samples that fail and names
the first in a form the command line can replay.  ``sweep`` is the two in
one, for a sweep whose report is its count alone.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from . import __version__
from .polys import BudgetExceededError

__all__ = ["Certificate", "Report", "check", "failures", "sweep", "PASS", "FAIL", "BUDGET"]

PASS = "pass"
FAIL = "fail"
BUDGET = "budget-exceeded"


@dataclass
class Certificate:
    """Outcome of one named check: expected vs actual, exact.

    ``status`` is "pass" only when the expected value or identity matched
    exactly (or the asserted inequality held); "budget-exceeded" means the
    check was abandoned because a polynomial outgrew the size budget.
    """

    id: str
    params: dict = field(default_factory=dict)
    expected: str = ""
    actual: str = ""
    status: str = PASS
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def to_record(self) -> dict:
        # elapsed is deliberately excluded: structured reports must be
        # byte-identical for identical run configurations.
        return {
            "id": self.id,
            "params": self.params,
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status,
        }

    def text_row(self) -> str:
        status = self.status.upper()
        return f"{status:<16} {self.id:<44} expected {self.expected}  actual {self.actual}"


def check(id_: str, params: dict, fn) -> Certificate:
    """Run ``fn() -> (expected, actual, ok)`` as the timed certificate ``id_``.

    A BudgetExceededError raised inside ``fn`` becomes a budget-exceeded
    record on this certificate alone, so the rest of the run goes on.
    """
    t0 = time.perf_counter()
    try:
        expected, actual, ok = fn()
        status = PASS if ok else FAIL
    except BudgetExceededError as e:
        expected, actual, status = "within budget", str(e), BUDGET
    elapsed = time.perf_counter() - t0
    return Certificate(id=id_, params=params, expected=expected, actual=actual, status=status, elapsed=elapsed)


def failures(samples: int, seed: int, draw, fails) -> tuple[int, str]:
    """Run ``samples`` draws; return how many failed and the first failure.

    ``draw()`` returns one sample as a dict of named elements, and
    ``fails(**sample)`` says whether it breaks the checked property.  The
    first failure is "" when none failed, else "first failure: sample n
    (replay: --seed S --samples n+1), " and its elements.  The draws are
    prefix-stable, so the sweep's own command with those flags draws the
    same first n + 1 samples and reports the same first failure, also where
    an element is too long to print whole.  An element of at most 400
    characters is printed whole, in a form parse_expr reads back; a longer
    one is cut there and ends " ...".
    """
    count, first = 0, ""
    for n in range(samples):
        sample = draw()
        if fails(**sample):
            count += 1
            if not first:
                shown = ", ".join(f"{name} = {_clip(str(x))}" for name, x in sample.items())
                first = f"first failure: sample {n} (replay: --seed {seed} --samples {n + 1}), {shown}"
    return count, first


def sweep(id_: str, params: dict, samples: int, rng_key: str, draw, fails, claim: str) -> Certificate:
    """Run ``failures`` as the certificate ``id_``, drawing from one seeded rng.

    ``draw(rng)`` returns one sample from the rng seeded with ``rng_key``
    inside the check, and the first failure's replay names
    ``params["seed"]``.  Both sides read "<samples> <claim>" when no sample
    fails; else the actual reads "<passed> <last word of claim>; " and the
    first failure.
    """

    def run():
        rng = random.Random(rng_key)
        bad, first = failures(samples, params["seed"], lambda: draw(rng), fails)
        want = f"{samples} {claim}"
        return want, f"{samples - bad} {claim.split()[-1]}; {first}" if bad else want, bad == 0

    return check(id_, params, run)


def _clip(text: str) -> str:
    return text if len(text) <= 400 else text[:400] + " ..."


@dataclass
class Report:
    """A flat list of certificates plus the run header."""

    config: dict
    certificates: list[Certificate] = field(default_factory=list)

    @property
    def warnings(self) -> list[str]:
        return [f"budget exceeded in {c.id}" for c in self.certificates if c.status == BUDGET]

    def exit_code(self) -> int:
        return 1 if any(c.failed for c in self.certificates) else 0

    def to_json(self) -> str:
        doc = {
            "tool": "valcert",
            "version": __version__,
            "config": self.config,
            "warnings": self.warnings,
            "certificates": [c.to_record() for c in self.certificates],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"valcert {__version__}  config={self.config}"]
        lines += [c.text_row() + f"  [{c.elapsed:.3f}s]" for c in self.certificates]
        n_pass = sum(c.passed for c in self.certificates)
        n_fail = sum(c.failed for c in self.certificates)
        n_budget = len(self.certificates) - n_pass - n_fail
        summary = f"{n_pass} passed, {n_fail} failed"
        if n_budget:
            summary += f", {n_budget} budget-exceeded"
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append(summary)
        return "\n".join(lines) + "\n"
