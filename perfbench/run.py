"""valcert benchmark: one workload, closed loop, one element in flight.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

A run times SETUP_REPEATS set-ups, each in a fresh interpreter, sets the
workload up once more itself, then runs whole rounds of its elements, one
call into valcert at a time, until another round would end after --seconds
(at least one round).  Meanwhile a SpeedProbe measures the machine's speed,
and every time is reported at reference speed.  Each element's output is
checked after its round, untimed.  After the rounds, part of the elements
run again, untimed, to check that their records repeat exactly and to
sample operands for the sympy check.  With --trace 1 the run
instead times one round untraced, then traces one set-up and one round and
reports per-layer figures, in plain CPU time.  The last line of standard
output is one JSON object.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 7  # set-ups, each in a fresh interpreter, per run
SETUP_PROBES = 20  # speed probes made right after each of them

# Every time is measured as CPU time of the benchmark's one thread.  valcert
# does no I/O and starts no threads, so on an idle core this equals wall
# time.  On a shared virtual machine it leaves out the time the host gives
# the virtual CPU to others (steal); on a 2-core VM with a quarter of its
# time stolen, one loop took 1.95 s of wall time and 0.35 s of CPU time.
# CPU time still stretches when the host is busy, so untraced runs report it
# at reference speed (see speed.py).  Wall time only decides when a run stops.
CLOCK = time.thread_time
NAMES = ["ladder-sweep-p2-l1", "ladder-sweep-p3-l0", "oracle-mix", "tower-deep"]

# (metric, unit, span name, field); field is calls, self_s or the span's work count
PER_LAYER = [
    ("polys.divmod.calls", "count", "polys.divmod", "calls"),
    ("polys.divmod.dividend_terms", "count", "polys.divmod", "work"),
    ("polys.divmod.self_s", "s", "polys.divmod", "self_s"),
    ("engine.value.calls", "count", "engine.value", "calls"),
    ("engine.value.self_s", "s", "engine.value", "self_s"),
    ("engine.expand.calls", "count", "engine.expand", "calls"),
    ("engine.expand.terms", "count", "engine.expand", "work"),
    ("engine.expand.self_s", "s", "engine.expand", "self_s"),
    ("polys.mul.calls", "count", "polys.mul", "calls"),
    ("polys.mul.term_products", "count", "polys.mul", "work"),
    ("polys.mul.self_s", "s", "polys.mul", "self_s"),
    ("polys.pow.calls", "count", "polys.pow", "calls"),
    ("polys.pow.self_s", "s", "polys.pow", "self_s"),
    ("polys.substitute.calls", "count", "polys.substitute", "calls"),
    ("polys.substitute.self_s", "s", "polys.substitute", "self_s"),
    ("embeddings.embed_uv.calls", "count", "embeddings.embed_uv", "calls"),
    ("embeddings.embed_uv.self_s", "s", "embeddings.embed_uv", "self_s"),
    ("keyseq.genseq.built", "count", "keyseq.genseq", "calls"),
    ("keyseq.poly.self_s", "s", "keyseq.poly", "self_s"),
    ("tower.build_tower.self_s", "s", "tower.build_tower", "self_s"),
    ("tower.verify.calls", "count", "tower.verify", "calls"),
    ("tower.verify.self_s", "s", "tower.verify", "self_s"),
    ("artin_schreier.build_approximants.self_s", "s", "artin_schreier.build_approximants", "self_s"),
    ("artin_schreier.gap_bound_sweep.self_s", "s", "artin_schreier.gap_bound_sweep", "self_s"),
    ("artin_schreier.ceiling_check.self_s", "s", "artin_schreier.ceiling_check", "self_s"),
    ("sampling.self_s", "s", "sampling", "self_s"),
]
FIELDS = {"calls": 0, "self_s": 2, "work": 3}


def load_valcert() -> None:
    """Import valcert from this checkout's src/, never from anywhere else."""
    pkg = SRC / "valcert"
    if not (pkg / "__init__.py").is_file():
        print(f"error: {pkg} not found; run the benchmark from a valcert checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import valcert

    if Path(valcert.__file__).resolve().parent != pkg.resolve():
        print(f"error: imported valcert from {valcert.__file__}, not {pkg}", file=sys.stderr)
        sys.exit(2)


# Runs in a fresh interpreter and prints two numbers: the CPU time of
# import valcert and one set-up, and the mean speed of probes made right after.
SETUP_CHILD = """import sys, time
t = time.thread_time()
sys.path.insert(0, {src!r})
import valcert
sys.path.insert(0, {here!r})
from workloads import WORKLOADS
WORKLOADS[{workload!r}]({seed})
dt = time.thread_time() - t
import statistics
from speed import SpeedProbe
probe = SpeedProbe()
probe.sample({probes})
print(dt, statistics.fmean(probe.speed))
"""


def setup_seconds(workload: str, seed: int) -> float:
    """Median time, at reference speed, to import valcert and set the workload up in a fresh interpreter.

    Each interpreter times its own import and set-up, so caches of the
    benchmark's process do not make repeated set-ups look cheap.  The
    interpreter's start-up is not counted.
    """
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed, probes=SETUP_PROBES)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
        cpu, speed = map(float, out.stdout.split())
        times.append(cpu * speed)
    return statistics.median(times)


class Round:
    """One timed pass over the elements: latencies, outputs and failures.

    ``latency`` holds each element's CPU time.  With a SpeedProbe, the
    probes' own time is taken out of it, and once the round is over it is
    scaled to reference speed by the probes made during and around the
    element.  ``wall`` is then the latencies' sum, the round from the start
    of its first element to the end of its last; ``cpu`` and ``elapsed``
    are that span in unscaled CPU time and in wall-clock time.
    """

    def __init__(self, elements, tracer=None, speed=None):
        n = len(elements)
        self.latency = [0.0] * n
        self.output = [None] * n
        self.error: dict[int, str] = {}
        probes = [(0, 0)] * n  # speed.speed indices of the probes during each element
        span = tracer and tracer.name_id("element")
        clock = CLOCK
        first, first_wall = clock(), time.perf_counter()
        for j, e in enumerate(elements):
            if tracer:
                tracer.element = j
                tracer.open(span)
            if speed:
                made, spent = len(speed.speed), speed.spent
            t = clock()
            try:
                self.output[j] = e.call()
            except Exception as exc:  # recorded as a failed element; the run goes on
                self.error[j] = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            self.latency[j] = clock() - t
            if speed:
                self.latency[j] -= speed.spent - spent
                probes[j] = (made, len(speed.speed))
            if tracer:
                tracer.close(0)
        self.cpu = clock() - first
        self.elapsed = time.perf_counter() - first_wall
        if speed:
            self.latency = [x * speed.around(a, b) for x, (a, b) in zip(self.latency, probes)]
            self.wall = math.fsum(self.latency)
        else:
            self.wall = self.cpu

    def check(self, elements, reference=None) -> list:
        """Check every output; returns the records, compared with reference when given."""
        records = []
        for j, e in enumerate(elements):
            if j in self.error:
                records.append(None)
                continue
            bad = e.check(self.output[j])
            rec = e.record(self.output[j])
            if bad is None and reference is not None and rec != reference[j]:
                bad = "record differs from the first round"
            if bad is not None:
                self.error[j] = bad
            records.append(rec)
        self.output = None  # later rounds must not add to peak_rss_mb
        return records


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of n elements beyond it."""
    return 100.0 * max(n - 10, n // 2) / n


def report_failures(elements, failures: dict[int, str], limit: int = 10) -> None:
    for j in sorted(failures)[:limit]:
        print(f"FAILED {elements[j].label}: {failures[j]}")
    if len(failures) > limit:
        print(f"... {len(failures) - limit} more failed elements")


def recheck(setup, reference, seed: int) -> dict[int, str]:
    """Untimed re-run of setup.recheck, the workload's extra checks and the sympy check."""
    from checks import OperandCapture, sympy_check
    from valcert.polys import Poly

    failures: dict[int, str] = {}
    capture = OperandCapture(Poly, seed)
    capture.install()
    try:
        for j in setup.recheck:
            e = setup.elements[j]
            capture.element = j
            try:
                out = e.call()
            except Exception as exc:
                failures[j] = f"raised on re-run {type(exc).__name__}: {exc}"
                continue
            bad = e.check(out)
            if bad is None and e.record(out) != reference[j]:
                bad = "record differs on the untimed re-run"
            if bad is not None:
                failures[j] = bad
    finally:
        capture.remove()
    summary, disagreements = sympy_check(capture.samples)
    print(summary)
    for j, msg in setup.extra() + disagreements:
        failures.setdefault(j, msg)
    print(f"re-checked {len(setup.recheck)} elements untimed")
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    load_valcert()
    setup_s = None if trace else setup_seconds(workload, seed)
    build = WORKLOADS[workload]
    setup = build(seed)
    elements = setup.elements
    n = len(elements)
    # Untraced runs scale every time to reference speed; the traced run
    # reports plain CPU time, since its spans are timed in CPU time.
    speed = None if trace else SpeedProbe()
    if speed:
        speed.start()
    try:
        started = time.perf_counter()
        rounds = [Round(elements, speed=speed)]
        reference = rounds[0].check(elements)
        while not trace and time.perf_counter() - started + rounds[-1].elapsed <= seconds:
            rounds.append(Round(elements, speed=speed))
            rounds[-1].check(elements, reference)
    finally:
        if speed:
            speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                traced_setup = build(seed)
            traced = Round(traced_setup.elements, tracer)
        finally:
            tracer.remove()
        traced.check(traced_setup.elements, reference)
        rounds.append(traced)
        metrics = {}
        for name, unit, span, field in PER_LAYER:
            metrics[name] = {"value": tracer.totals[span][FIELDS[field]], "unit": unit}
        metrics["polys.peak_support"] = {"value": tracer.peak_support, "unit": "count"}
        metrics["trace.overhead_s"] = {"value": traced.wall - rounds[0].wall, "unit": "s"}
        SPAN_DIR.mkdir(exist_ok=True)
        out = SPAN_DIR / f"spans-{workload}-seed{seed}.tsv"
        tracer.write(out)
        print(f"traced round {traced.wall:.3f} s, untraced {rounds[0].wall:.3f} s; {len(tracer.span_start)} spans in {out}")
    else:
        latencies = [x for r in rounds for x in r.latency]
        q = tail_percentile(n)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
            "elem_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "elem_tail_ms": {"value": percentile(latencies, q) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"elem_tail_ms is p{q:.2f} of {len(latencies)} latencies ({len(rounds)} rounds of {n})")
        print(f"{len(speed.speed)} speed probes: median speed {statistics.median(speed.speed):.3f}, "
              f"quartiles {' '.join(f'{x:.3f}' for x in statistics.quantiles(speed.speed, n=4))}")
        print("rounds, at reference speed s: " + " ".join(f"{r.wall:.3f}" for r in rounds))
        print("rounds, CPU s: " + " ".join(f"{r.cpu:.3f}" for r in rounds))
        print("rounds, wall-clock s: " + " ".join(f"{r.elapsed:.3f}" for r in rounds))

    digest = hashlib.sha256(json.dumps(reference, sort_keys=True).encode()).hexdigest()
    print(f"records sha256 {digest}")
    post = recheck(setup, reference, seed)
    # an element that fails an untimed check counts as failed in every round
    failed = sum(len(set(r.error) | set(post)) for r in rounds)
    for r in rounds:
        report_failures(elements, r.error)
    report_failures(elements, post)
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    attempted = n * len(rounds)
    print(f"{workload}: {attempted} elements attempted, {failed} failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    return total


def main() -> None:
    ap = argparse.ArgumentParser(description="valcert benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=15.0, help="measured time per run (default 15)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
