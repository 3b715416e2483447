"""Rank the sweep-seed pools of the ladder workloads by work; writes strata.json.

    python3 perfbench/make_strata.py

For every sweep seed s of a pool, one gap_bound_sweep(samples=1, seed=s)
call runs under the span tracer, and its work is the number of dividend
terms entering Poly.__divmod__ plus the number of standard monomials
expand() produced.  Both counts are exact, so the ranking does not depend
on the machine.  The pools take about 5 minutes (p = 2) and 1 minute
(p = 3) on a 2-core x86 box.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402
from workloads import LADDERS, STRATA_FILE, ladder_parts  # noqa: E402


def rank(name: str) -> list[list[int]]:
    from valcert.artin_schreier import gap_bound_sweep

    k = LADDERS[name].k
    tower, appr, cfg, host = ladder_parts(name)
    work = []
    for s in range(LADDERS[name].pool):
        tracer = Tracer()
        tracer.install()
        try:
            cert = gap_bound_sweep(tower[k], appr, cfg, samples=1, seed=s, host_seq=host)
        finally:
            tracer.remove()
        if cert.status != "pass":
            raise SystemExit(f"{name}: sweep seed {s} did not pass: {cert.actual}")
        t = tracer.totals
        work.append([s, t["polys.divmod"][3] + t["engine.expand"][3]])
        print(f"{name} s={s} work={work[-1][1]}", file=sys.stderr, flush=True)
    work.sort(key=lambda sw: (sw[1], sw[0]))
    return work


def main() -> None:
    doc = {name: {"pool": LADDERS[name].pool, "ranked": rank(name)} for name in LADDERS}
    with open(STRATA_FILE, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
