"""Command-line front end: parse expressions, run checks, emit reports.

Subcommands:

    value      print the valuation of an expression on a chosen ring
    expand     print the standard expansion of a polynomial with term values
    tower      build the quadratic-transform tower and certify its identities
    ascheck    approximant ladder (t1), approximation ceiling (t2), and the
               dependence evidence report (report)
    fuzz       engine oracles: multiplicativity, ultrametric, cross-engine
    selftest   the full acceptance suite

A flag that some runs ignore (FLAG_READERS) may follow the subcommand of any
command that reads it, except --p, which comes before it only; given to a
run that does not read it, it exits 2.

Exit codes: 0 all certificates passed (budget-exceeded alone still exits 0,
with a warning in the report), 1 any certificate failed, 2 malformed input
(a usage, parse or configuration error, a non-integer VALCERT_SEED, a negative
--k, a flag given to a run that does not read it, expand of zero, an --out
that cannot be opened, an output that cannot be written, such as a full
disk), named in an "error:" line.  A reader that closes stdout early
changes no exit code and prints no traceback.
An --out that is empty, whose directory is missing, that names a directory,
or that cannot be written (an existing file that is read-only, or a new file
in a read-only directory) exits 2 before the command runs.
"""

from __future__ import annotations

import argparse
import errno
import os
import random
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from .acceptance import run_all
from .artin_schreier import (
    NOTE,
    ceiling_check,
    ceiling_family,
    dependence_report,
    gap_bound_sweep,
    gap_element_certificates,
    ladder,
    verdict,
    verify_approximant_gap,
)
from .certificates import BUDGET, Report, check
from .embeddings import EmbeddingConfig
from .engine import (
    expand,
    host_value,
    multiplicativity_sweep,
    restriction_sweep,
    ultrametric_sweep,
    value,
)
from .keyseq import p_sequence, q_sequence
from .parsing import ParseError, parse_expr
from .polys import RatFunc, ring_uv, ring_xv, ring_xy, support_limit
from .tower import (
    build_tower,
    root_value,
    verify_drift_recursion,
    verify_twisted_recursion,
    verify_unit_descent,
    verify_value_formula,
)

RINGS = {"uv": ring_uv, "xy": ring_xy, "xv": ring_xv}


@dataclass
class RunConfig:
    p: int
    c: int
    kmax: int
    imax: int
    samples: int
    seed: int
    budget: int

    def validate(self) -> None:
        self.embedding()  # raises if p or c breaks its rule
        if self.kmax < 0:
            raise ValueError("kmax must be >= 0")
        if self.imax < 2:
            raise ValueError("imax must be >= 2")
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        if self.budget <= 0:
            raise ValueError("budget must be positive")

    def embedding(self) -> EmbeddingConfig:
        return EmbeddingConfig(self.p, self.c)

    def echo(self) -> dict:
        # the fields, in order, are the report's config keys, which the
        # structured digests pin
        return asdict(self)


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


# The runs that read each flag some runs ignore: a command, an ascheck mode,
# or a run told apart by --k, --f, --ring or --what.  ascheck t1 sweeps at
# --k, else builds the ladder to --kmax; t2 samples a ladder's family unless
# --f names one element.  tower reads its own --dump-values, False if unset.
_SWEEPS = ("fuzz", "ascheck t1 with --k", "ascheck t2 without --f", "ascheck report")
FLAG_READERS = (
    ("k", "--k", ("ascheck t1",)),
    ("f", "--f", ("ascheck t2",)),
    ("dump_values", "--dump-values", ("tower", "ascheck report")),
    ("samples", "--samples", _SWEEPS),
    ("seed", "--seed", ("selftest", *_SWEEPS)),
    ("kmax", "--kmax", ("tower", "selftest", "ascheck t1 without --k", "ascheck t2 without --f", "ascheck report")),
    ("imax", "--imax", ("tower",)),
    ("c", "--c", ("value --ring xv", "ascheck", "fuzz --what cross")),
    ("p", "--p", ("value", "expand", "tower", "ascheck", "fuzz")),
)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: tower --k would otherwise be read as --kmax
    ap = argparse.ArgumentParser(
        prog="valcert", description="exact valuation engine and dependence certificates", allow_abbrev=False
    )
    ap.add_argument("--p", type=int, default=None, help="characteristic (prime <= 7, default 2)")
    shared = {  # the global flags that some runs ignore
        "--c": "mixed-term exponent, multiple of p-1 (default p-1)",
        "--kmax": "deepest tower level (default 2)",
        "--imax": "highest key-polynomial index per level, tower only (default 4)",
        "--samples": "sample count for sweeps (default 100)",
        "--seed": "sweep seed (overrides VALCERT_SEED)",
    }
    for flag, text in shared.items():
        ap.add_argument(flag, type=int, default=None, help=text)
    ap.add_argument("--budget", type=int, default=2_000_000, help="max polynomial support size")
    ap.add_argument("--format", choices=("text", "structured"), default="text")
    ap.add_argument("--out", default=None, help="write the report to a file instead of stdout")

    sub = ap.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="valuation of an expression", allow_abbrev=False)
    p_value.add_argument("--ring", choices=("uv", "xy", "xv"), default="uv")
    p_value.add_argument("expr")

    p_expand = sub.add_parser("expand", help="standard expansion with term values", allow_abbrev=False)
    p_expand.add_argument("--ring", choices=("uv", "xy"), default="uv")
    p_expand.add_argument("expr")

    p_tower = sub.add_parser("tower", help="tower certificates", allow_abbrev=False)
    p_tower.add_argument("--dump-values", action="store_true", help="also print the (k, i, value) table")

    p_as = sub.add_parser("ascheck", help="extension certificates", allow_abbrev=False)
    p_as.add_argument("what", choices=("t1", "t2", "report"))
    p_as.add_argument("--k", type=nonnegative_int, default=None, help="ladder level for t1")
    p_as.add_argument("--f", default=None, help="base-field expression for t2 (on (u,v))")
    p_as.add_argument("--dump-values", action="store_true", default=None, help="also print each sampled element's v(1/x - f)")

    p_fuzz = sub.add_parser("fuzz", help="engine oracles", allow_abbrev=False)
    p_fuzz.add_argument("--what", choices=("mult", "ultra", "cross"), required=True)

    sub.add_parser("selftest", help="run the acceptance suite", allow_abbrev=False)
    # each global flag may also follow the subcommand of a command that
    # reads it, where it sets nothing unless given
    for _, flag, readers in FLAG_READERS:
        if flag in shared:
            for command in dict.fromkeys(r.split()[0] for r in readers):
                sub.choices[command].add_argument(flag, type=int, default=argparse.SUPPRESS, help=shared[flag])
    return ap


def _check_flags(args) -> None:
    # a flag given to a run that does not read it is an error; an unset flag
    # is None, so --k 0 counts.  A run reads it when its command, mode or run
    # is a reader; the error names the command's own readers if any, else
    # all, and the run as finely as they do
    mode = f"ascheck {args.what}" if args.command == "ascheck" else args.command
    run = mode + {
        "ascheck t1": " with --k" if getattr(args, "k", None) is not None else " without --k",
        "ascheck t2": " with --f" if getattr(args, "f", None) is not None else " without --f",
        "value": f" --ring {getattr(args, 'ring', '')}",
        "fuzz": f" --what {getattr(args, 'what', '')}",
    }.get(mode, "")
    for attr, flag, readers in FLAG_READERS:
        if getattr(args, attr, None) is not None and {args.command, mode, run}.isdisjoint(readers):
            named = [r for r in readers if r.split()[0] == args.command] or readers
            name = run if any(r.startswith(mode + " ") for r in named) else mode
            listed = ", ".join(named[:-1]) + " and " + named[-1] if len(named) > 1 else named[0]
            raise ValueError(f"{flag} is read only by {listed}, not by {name}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("VALCERT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"VALCERT_SEED must be an integer, got {env!r}") from None


def cmd_value(cfg: RunConfig, args, report: Report) -> str | None:
    ring = RINGS[args.ring](cfg.p)
    f = parse_expr(args.expr, ring)
    if args.ring == "uv":
        got = value(f, p_sequence(cfg.p))
    else:
        got = host_value(f, cfg.embedding())
    return f"{got}\n"


def cmd_expand(cfg: RunConfig, args, report: Report) -> str | None:
    ring = RINGS[args.ring](cfg.p)
    f = parse_expr(args.expr, ring)
    if isinstance(f, RatFunc):
        raise ParseError("expand takes a polynomial, not a fraction", args.expr.find("/"))
    if f.is_zero():
        raise ParseError("expand takes a nonzero polynomial", 0)
    seq = p_sequence(cfg.p) if args.ring == "uv" else q_sequence(cfg.p)
    exp = expand(f, seq)
    lines = [f"{t.render():<32} value {exp.term_value(t)}" for t in exp.terms]
    return "\n".join(lines) + "\n"


def cmd_tower(cfg: RunConfig, args, report: Report) -> str | None:
    seq = p_sequence(cfg.p)
    levels = build_tower(cfg.p, cfg.kmax, cfg.imax)
    extra = []
    for level in levels:
        report.certificates.append(verify_unit_descent(level, seq))
        for i in range(cfg.imax + 1):
            report.certificates.append(verify_value_formula(level, i, seq))
            if args.dump_values:
                extra.append(f"k={level.k} i={i} value {root_value(level.keys[i], seq)}")
        for i in range(2, cfg.imax + 1):
            report.certificates.append(verify_twisted_recursion(level, i, seq))
            report.certificates.append(verify_drift_recursion(level, i, seq))
    return "\n".join(extra) + "\n" if extra else None


def cmd_ascheck(cfg: RunConfig, args, report: Report) -> str | None:
    if args.what == "t1":
        k = cfg.kmax if args.k is None else args.k
        report.certificates.extend(gap_element_certificates(cfg.embedding()))
        tower, apprs = ladder(cfg.embedding(), k)
        for appr in apprs:
            report.certificates.append(verify_approximant_gap(appr, cfg.embedding()))
        if cfg.samples and args.k is not None:
            report.certificates.append(gap_bound_sweep(tower[k], apprs[k], cfg.embedding(), cfg.samples, cfg.seed))
        return None
    if args.what == "t2":
        if args.f is not None:
            _, cert = ceiling_check(parse_expr(args.f, ring_uv(cfg.p)), cfg.embedding(), args.f)
            report.certificates.append(cert)
            return None
        _, apprs = ladder(cfg.embedding(), min(cfg.kmax, 1))
        half = cfg.samples // 2
        rng = random.Random(f"{cfg.seed}:t2")
        family = ceiling_family(rng, apprs, half, cfg.samples - half)
        for label, f in family:
            _, cert = ceiling_check(f, cfg.embedding(), label)
            report.certificates.append(cert)
        return None
    # report
    _, apprs = ladder(cfg.embedding(), cfg.kmax)
    entries, cert = dependence_report(cfg.embedding(), apprs, samples=max(cfg.samples // 4, 10), seed=cfg.seed)
    report.certificates.append(cert)
    if entries is None:
        return None
    lines = [f"verdict: {verdict(cert.passed)} (m={cert.params['m']})", f"note: {NOTE}"]
    if args.dump_values:
        lines += [f"{label:<24} value {got}" for label, got in entries]
    return "\n".join(lines) + "\n"


def cmd_fuzz(cfg: RunConfig, args, report: Report) -> str | None:
    if args.what == "cross":
        for c in (cfg.c, 2 * cfg.c):
            report.certificates.append(restriction_sweep(cfg.p, c, cfg.samples, cfg.seed))
        return None
    sweep = multiplicativity_sweep if args.what == "mult" else ultrametric_sweep
    for seq in (p_sequence(cfg.p), q_sequence(cfg.p)):
        report.certificates.append(sweep(seq, cfg.samples, cfg.seed))
    return None


def cmd_selftest(cfg: RunConfig, args, report: Report) -> str | None:
    lines = []
    for n, description, certs in run_all(seed=cfg.seed, k_max=cfg.kmax):
        report.certificates.extend(certs)
        ok = all(c.passed for c in certs)
        lines.append(f"criterion {n:>2} {'PASS' if ok else 'FAIL'}  {description} ({len(certs)} certificates)")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "value": cmd_value,
    "expand": cmd_expand,
    "tower": cmd_tower,
    "ascheck": cmd_ascheck,
    "fuzz": cmd_fuzz,
    "selftest": cmd_selftest,
}


def _out_error(path: str) -> OSError | None:
    # why --out cannot be written, found before the command runs and
    # without opening the file, which would truncate it even when the
    # command then fails to parse its input.  An empty path names no file
    if os.path.isdir(path):
        return IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(path) or os.curdir
    if not path or not os.path.isdir(parent):
        return FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    # an existing file is written in place, so its own mode decides; only
    # a file still to be created needs a writable directory
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    return None


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        p = 2 if args.p is None else args.p
        cfg = RunConfig(
            p=p,
            c=EmbeddingConfig.default(p).c if args.c is None else args.c,
            kmax=2 if args.kmax is None else args.kmax,
            imax=4 if args.imax is None else args.imax,
            samples=100 if args.samples is None else args.samples,
            seed=_resolve_seed(args),
            budget=args.budget,
        )
        cfg.validate()
        _check_flags(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    unwritable = _out_error(args.out) if args.out is not None else None
    if unwritable is not None:
        print(f"error: {unwritable}", file=sys.stderr)
        return 2
    report = Report(config=cfg.echo())
    text = None

    def run():
        # the whole command is one timed check, so an overflow outside
        # every certificate ends it in one record named after it
        nonlocal text
        text = COMMANDS[args.command](cfg, args, report)
        return "", "", True

    try:
        with support_limit(cfg.budget):
            whole = check(args.command, cfg.echo(), run)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if whole.status == BUDGET:
        report.certificates.append(whole)
    try:
        sink = open(args.out, "w") if args.out is not None else nullcontext(sys.stdout)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        with sink as out:
            if text is not None:
                out.write(text)
            if report.certificates:
                out.write(report.to_json() if args.format == "structured" else report.to_text())
            out.flush()
    except OSError as e:
        # a reader that closed its end early, as `| head` does, leaves the
        # run its own exit code; any other write error, such as a full
        # disk, exits 2.  stdout is pointed at the null device, so the
        # interpreter's final flush of what is still buffered cannot raise
        # again
        if args.out is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write to {args.out or '<stdout>'}: {e.strerror or e}", file=sys.stderr)
            return 2
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
