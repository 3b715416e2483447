"""Command-line surface: outputs, exit codes, determinism, budget handling."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import valcert
from valcert import cli
from valcert.certificates import Certificate, Report
from valcert.cli import main
from valcert.embeddings import EmbeddingConfig
from valcert.polys import ring_uv
from valcert.values import omega


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_value_command(capsys):
    code, out, _ = run_cli(["value", "--ring", "uv", "v^4+u"], capsys)
    assert code == 0
    assert out.strip() == "17/16"


def test_value_command_host_ring(capsys):
    code, out, _ = run_cli(["--p", "2", "value", "--ring", "xy", "y^4 + x"], capsys)
    assert code == 0
    assert out.strip() == "17/32"


def test_value_command_intermediate_ring(capsys):
    code, out, _ = run_cli(["value", "--ring", "xv", "1/x"], capsys)
    assert code == 0
    assert out.strip() == "-1/2"


def test_value_fraction(capsys):
    code, out, _ = run_cli(["value", "--ring", "uv", "u/v"], capsys)
    assert code == 0
    assert out.strip() == "3/4"


def test_expand_command(capsys):
    code, out, _ = run_cli(["expand", "v^5"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "S0*S1                            value 5/4",
        "S1*S2                            value 21/16",
    ]


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(["value", "--ring", "uv", "u + )"], capsys)
    assert code == 2
    assert "offset 4" in err


def test_bad_config_exit_2(capsys):
    code, _, err = run_cli(["--p", "4", "value", "--ring", "uv", "u"], capsys)
    assert code == 2
    assert "prime" in err


def test_negative_samples_exit_2(capsys):
    # 0 stays valid: ascheck t1 reads it as "skip the sweep"
    for argv in (
        ["--samples", "-3", "fuzz", "--what", "mult"],
        ["fuzz", "--what", "mult", "--samples", "-3"],
        ["--samples", "-5", "ascheck", "t2"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "samples must be >= 0" in err and out == ""
    for samples, swept in (("0", False), ("1", True)):
        code, out, _ = run_cli(["--format", "structured", "--samples", samples, "ascheck", "t1", "--k", "0"], capsys)
        assert code == 0
        ids = [c["id"] for c in json.loads(out)["certificates"]]
        assert ("as/gap-bound-sweep/k=0" in ids) == swept


def test_malformed_input_exit_2(capsys, tmp_path):
    # each used to end in a traceback and exit 1, the code of a failed
    # certificate
    with pytest.raises(SystemExit) as info:
        main(["ascheck", "t1", "--k", "-1"])
    assert info.value.code == 2
    assert "error: argument --k: must be >= 0" in capsys.readouterr().err
    for expr in ("0", "u-u"):
        code, out, err = run_cli(["expand", expr], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: expand takes a nonzero polynomial")
    missing = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli(["--out", str(missing), "value", "u"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    # digits that str.isdigit takes but int() rejects or reads
    for digit in ("\u00b2", "\u0663"):
        code, out, err = run_cli(["--p", "3", "value", "u^" + digit], capsys)
        assert code == 2 and out == ""
        assert err == f"error: unexpected character {digit!r} at offset 2\n"
    for argv, line in (
        (["--kmax", "-1", "value", "u"], "kmax must be >= 0"),
        (["--imax", "1", "value", "u"], "imax must be >= 2"),
        (["--budget", "0", "value", "u"], "budget must be positive"),
        (["expand", "u/v"], "expand takes a polynomial, not a fraction at offset 1"),
        (["value", "(u+v"], "expected ')', got '' at offset 4"),
        (["value", "u^v"], "expected integer exponent, got 'v' at offset 2"),
    ):
        assert run_cli(argv, capsys) == (2, "", f"error: {line}\n")
    # 5,000 nested parentheses used to end in a RecursionError; the error
    # names the parenthesis that passes the limit
    deep = "(" * 5000 + "u" + ")" * 5000
    for argv in (["value", deep], ["ascheck", "t2", "--f", deep]):
        assert run_cli(argv, capsys) == (2, "", f"error: parentheses nested deeper than 100 at offset 100\n")


def test_ascheck_flag_outside_its_mode_exits_2(capsys, monkeypatch):
    # --k, --f and --dump-values are each read by one ascheck mode; given
    # to another they used to be ignored with exit 0.  The error names the
    # first such flag and the mode that reads it, before the command runs
    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli.COMMANDS, "ascheck", never)
    for argv, line in (
        (["t1", "--f", "u", "--dump-values"], "--f is read only by ascheck t2, not by ascheck t1"),
        (["t1", "--dump-values"], "--dump-values is read only by ascheck report, not by ascheck t1"),
        (["t2", "--k", "3"], "--k is read only by ascheck t1, not by ascheck t2"),
        (["t2", "--k", "0"], "--k is read only by ascheck t1, not by ascheck t2"),
        (["report", "--f", "u", "--k", "7"], "--k is read only by ascheck t1, not by ascheck report"),
        (["report", "--f", "u"], "--f is read only by ascheck t2, not by ascheck report"),
    ):
        assert run_cli(["ascheck", *argv], capsys) == (2, "", f"error: {line}\n")


def test_sampling_flag_where_not_read_exits_2(capsys, monkeypatch):
    # --samples and --seed used to be dropped with exit 0 where the command
    # or ascheck mode samples nothing: ascheck t1 samples only with --k, t2
    # only without --f.  The error names the runs that read the flag, those
    # of the same command when it has any.  VALCERT_SEED is no flag, and
    # never an error
    def never(*args):
        raise AssertionError("the command ran")

    for command in ("ascheck", "value", "tower", "selftest"):
        monkeypatch.setitem(cli.COMMANDS, command, never)
    sweeps = "ascheck t1 with --k, ascheck t2 without --f and ascheck report"
    for argv, line in (
        (["--samples", "7", "ascheck", "t1"], f"--samples is read only by {sweeps}, not by ascheck t1 without --k"),
        (["--seed", "9", "ascheck", "t2", "--f", "u"], f"--seed is read only by {sweeps}, not by ascheck t2 with --f"),
        (["ascheck", "t2", "--f", "u", "--samples", "2"], f"--samples is read only by {sweeps}, not by ascheck t2 with --f"),
        (["--seed", "3", "value", "u"], f"--seed is read only by selftest, fuzz, {sweeps}, not by value"),
        (["--samples", "9", "tower"], f"--samples is read only by fuzz, {sweeps}, not by tower"),
        (["--samples", "5", "selftest"], f"--samples is read only by fuzz, {sweeps}, not by selftest"),
    ):
        assert run_cli(argv, capsys) == (2, "", f"error: {line}\n")
    monkeypatch.setenv("VALCERT_SEED", "5")
    monkeypatch.setitem(cli.COMMANDS, "tower", lambda cfg, args, report: f"seed {cfg.seed}\n")
    assert run_cli(["tower"], capsys) == (0, "seed 5\n", "")


# every run of each command, named as FLAG_READERS names runs, with argv
# that needs no input beyond it
RUNS = {
    "value --ring uv": ["value", "u"],
    "value --ring xy": ["value", "--ring", "xy", "x"],
    "value --ring xv": ["value", "--ring", "xv", "x"],
    "expand": ["expand", "u"],
    "tower": ["tower"],
    "ascheck t1 without --k": ["ascheck", "t1"],
    "ascheck t1 with --k": ["ascheck", "t1", "--k", "0"],
    "ascheck t2 without --f": ["ascheck", "t2"],
    "ascheck t2 with --f": ["ascheck", "t2", "--f", "u"],
    "ascheck report": ["ascheck", "report"],
    "fuzz --what mult": ["fuzz", "--what", "mult"],
    "fuzz --what ultra": ["fuzz", "--what", "ultra"],
    "fuzz --what cross": ["fuzz", "--what", "cross"],
    "selftest": ["selftest"],
}
# each flag's argv and the value it sets, which no default has, and the flags
# that may also come before the subcommand
FLAG_VALUES = {
    "--k": (["1"], 1),
    "--f": (["v"], "v"),
    "--dump-values": ([], True),
    "--samples": (["3"], 3),
    "--seed": (["5"], 5),
    "--kmax": (["1"], 1),
    "--imax": (["3"], 3),
    "--c": (["2"], 2),
    "--p": (["3"], 3),
}
GLOBAL_FLAGS = ("--samples", "--seed", "--kmax", "--imax", "--c", "--p")
BEFORE_ONLY = ("--p",)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("row", cli.FLAG_READERS, ids=[flag for _, flag, _ in cli.FLAG_READERS])
def test_each_flag_is_taken_by_exactly_its_readers(row, command, capsys, monkeypatch):
    # a reader takes the flag on either side of the subcommand, with the same
    # bytes, or before it alone for a flag in BEFORE_ONLY; any other run
    # exits 2 before the command runs and names the readers, and the run as
    # a whole or by its mode (its command and ascheck's mode).  A reader is
    # a command, a mode or a run, read here as a prefix
    attr, flag, readers = row
    tokens, want = FLAG_VALUES[flag]
    given = [flag, *tokens]

    def fake(cfg, args, report):
        seen = {**cfg.echo(), attr: getattr(args, attr)}
        report.certificates.append(Certificate(id="fake", actual=json.dumps(seen, sort_keys=True)))

    monkeypatch.setitem(cli.COMMANDS, command, fake)
    runs = {run: argv for run, argv in RUNS.items() if run.split()[0] == command}
    reads = {run: any(run == r or run.startswith(r + " ") for r in readers) for run in runs}
    named = [r for r in readers if r.split()[0] == command] or readers
    for run, argv in runs.items():
        after = ["--format", "structured", *argv, *given]
        before = ["--format", "structured", *given, *argv]
        placements = [before] if flag in GLOBAL_FLAGS else []
        placements += [after] if any(reads.values()) and flag not in BEFORE_ONLY else []
        if reads[run]:
            code, out, err = run_cli(placements[0], capsys)
            assert (code, err) == (0, ""), run
            assert json.loads(json.loads(out)["certificates"][0]["actual"])[attr] == want
            assert all(run_cli(argv, capsys) == (0, out, "") for argv in placements), run
            continue
        for argv in placements:
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, ""), run
            assert err.startswith(f"error: {flag} is read only by ") and all(r in err for r in named), err
            assert err.rstrip("\n").rsplit(", not by ", 1)[1] in (run, run.split(" with")[0].split(" --")[0]), err
    if not any(reads.values()) or flag in BEFORE_ONLY:
        # no run of the command reads the flag, or it comes before the
        # subcommand only, so it is no option after it
        for argv in runs.values():
            with pytest.raises(SystemExit) as info:
                main([*argv, *given])
            assert info.value.code == 2
            assert f"unrecognized arguments: {' '.join(given)}" in capsys.readouterr().err


def test_flags_outside_their_readers_exit_2(capsys):
    # each used to run with exit 0, the flag dropped or, for --imax, the
    # ladder's sampled family reshaped
    ladder_runs = "ascheck t1 without --k, ascheck t2 without --f and ascheck report"
    c_runs = "value --ring xv, ascheck and fuzz --what cross"
    for argv, line in (
        ("--imax 9 --kmax 5 value u", f"--kmax is read only by tower, selftest, {ladder_runs}, not by value"),
        ("--c 3 expand v", f"--c is read only by {c_runs}, not by expand"),
        ("--c 3 tower", f"--c is read only by {c_runs}, not by tower"),
        ("--c 3 value u", "--c is read only by value --ring xv, not by value --ring uv"),
        # the host ring embeds nothing, so --c 1, 2 and 3 all printed 1/2
        ("--c 3 value --ring xy x", "--c is read only by value --ring xv, not by value --ring xy"),
        ("--c 3 fuzz --what mult --samples 2", "--c is read only by fuzz --what cross, not by fuzz --what mult"),
        ("--c 3 fuzz --what ultra", "--c is read only by fuzz --what cross, not by fuzz --what ultra"),
        ("--p 5 --kmax 0 selftest", "--p is read only by value, expand, tower, ascheck and fuzz, not by selftest"),
        ("--kmax 7 fuzz --what cross", f"--kmax is read only by tower, selftest, {ladder_runs}, not by fuzz"),
        ("--kmax 1 ascheck t1 --k 1", f"--kmax is read only by {ladder_runs}, not by ascheck t1 with --k"),
        ("--imax 2 ascheck t1 --k 1", "--imax is read only by tower, not by ascheck t1"),
        ("--imax 2 --budget 800 ascheck t1 --k 1 --samples 5", "--imax is read only by tower, not by ascheck t1"),
        ("--imax 4 ascheck report", "--imax is read only by tower, not by ascheck report"),
        ("--imax 4 ascheck t2 --f u", "--imax is read only by tower, not by ascheck t2"),
    ):
        assert run_cli(argv.split(), capsys) == (2, "", f"error: {line}\n"), argv
    # the runs that embed still read --c, and the default p is 2
    assert run_cli("--c 3 value --ring xv v".split(), capsys) == (0, "1/4\n", "")
    code, out, _ = run_cli("--format structured --c 2 fuzz --what cross --samples 2".split(), capsys)
    assert code == 0 and json.loads(out)["config"]["p"] == 2


def test_a_global_flag_after_the_subcommand_prints_the_same_bytes(capsys):
    # the same run of a real command, with --kmax and --samples on either
    # side of the subcommand
    before = run_cli(["--format", "structured", "--kmax", "1", "--samples", "8", "ascheck", "report"], capsys)
    after = run_cli(["--format", "structured", "ascheck", "report", "--kmax", "1", "--samples", "8"], capsys)
    assert before == after and before[0] == 0
    report = json.loads(before[1][before[1].index("{") :])
    assert report["config"]["kmax"] == 1 and [c["status"] for c in report["certificates"]] == ["pass"]


P_RULE = "p must be a prime <= 7, got {}"
C_RULE = "c must be a positive multiple of p-1, got {}"


@pytest.mark.parametrize(
    "p, c, error",
    [(p, None, P_RULE.format(p)) for p in (0, 1, 4, 9, 11)]
    + [(p, None, None) for p in (2, 3, 5, 7)]
    + [(3, c, C_RULE.format(c)) for c in (0, 3)],
)
def test_p_and_c_rules_have_one_message(p, c, error, capsys):
    # the library and the command line apply each rule through one check,
    # so they accept the same inputs and reject the rest in the same words
    builds = [lambda: EmbeddingConfig(p, p - 1 if c is None else c)]
    if c is None:
        builds += [lambda: ring_uv(p), lambda: omega(p)]
    for build in builds:
        if error is None:
            build()
        else:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == error
    flags = ["--p", str(p)] + ([] if c is None else ["--c", str(c)])
    code, out, err = run_cli([*flags, "value", "u"], capsys)
    if error is None:
        assert (code, out, err) == (0, "1\n", "")
    else:
        assert (code, out, err) == (2, "", f"error: {error}\n")


def test_unwritable_out_exits_2_before_the_command_runs(capsys, monkeypatch, tmp_path):
    # a missing directory or a directory as --out used to surface only
    # after the whole command had run, and an empty --out wrote to stdout;
    # a file that exists is never opened before the run, so a parse error
    # leaves it as it was
    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli.COMMANDS, "selftest", never)
    missing = "No such file or directory"
    for path, reason in ((tmp_path / "no-such-dir" / "r.json", missing), (tmp_path, "Is a directory"), ("", missing)):
        code, out, err = run_cli(["--out", str(path), "selftest"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and reason in err and str(path) in err
    kept = tmp_path / "r.json"
    kept.write_text("earlier report\n")
    code, _, err = run_cli(["--out", str(kept), "value", "u+"], capsys)
    assert code == 2 and err.startswith("error: ")
    assert kept.read_text() == "earlier report\n"


def test_out_permission_is_checked_on_the_file_it_writes(capsys, monkeypatch, tmp_path):
    # os.access is patched, since a root user passes every real permission
    # check.  An existing file is written in place, so a read-only one
    # exits 2 before the command runs, and a writable one may sit in a
    # read-only directory
    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli.COMMANDS, "selftest", never)
    readonly = tmp_path / "readonly.json"
    readonly.write_text("earlier report\n")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: str(path) != str(readonly))
    code, out, err = run_cli(["--out", str(readonly), "selftest"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Permission denied" in err and str(readonly) in err
    assert readonly.read_text() == "earlier report\n"

    writable = tmp_path / "writable.json"
    writable.write_text("earlier report\n")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: str(path) != str(tmp_path))
    code, _, err = run_cli(["--out", str(writable), "value", "v^4+u"], capsys)
    assert code == 0 and err == ""
    assert writable.read_text().strip() == "17/16"
    code, _, err = run_cli(["--out", str(tmp_path / "new.json"), "value", "u"], capsys)
    assert code == 2 and "Permission denied" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_tower_command(capsys):
    code, out, _ = run_cli(["--kmax", "1", "--imax", "3", "tower"], capsys)
    assert code == 0
    assert "0 failed" in out
    assert "tower/unit-descent/k=1" in out


def test_tower_dump_values(capsys):
    code, out, _ = run_cli(["--kmax", "1", "--imax", "2", "tower", "--dump-values"], capsys)
    assert code == 0
    assert "k=1 i=2 value 17/64" in out


def test_ascheck_t1(capsys):
    code, out, _ = run_cli(["--kmax", "0", "ascheck", "t1"], capsys)
    assert code == 0
    assert "as/approximant-gap/k=0" in out
    assert "17/16" in out


def test_ascheck_t2_expression(capsys):
    code, out, _ = run_cli(["ascheck", "t2", "--f", "0"], capsys)
    assert code == 0
    assert "PASS" in out


def test_ascheck_report(capsys):
    code, out, _ = run_cli(
        ["--kmax", "1", "--samples", "8", "ascheck", "report"], capsys
    )
    assert code == 0
    assert "dependent-consistent (m=2)" in out
    assert "falsifiable" in out


def test_fuzz_command(capsys):
    code, out, _ = run_cli(["--samples", "15", "--seed", "9", "fuzz", "--what", "ultra"], capsys)
    assert code == 0
    assert "engine/ultrametric/engine=uv" in out
    assert "engine/ultrametric/engine=xy" in out


def test_structured_reports_are_byte_identical(tmp_path, capsys):
    argv = ["--format", "structured", "--samples", "10", "--seed", "3"]
    blobs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run_cli(argv + ["--out", str(path), "fuzz", "--what", "mult"], capsys)
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["tool"] == "valcert"
    assert doc["config"]["seed"] == 3
    assert all(c["status"] == "pass" for c in doc["certificates"])
    assert all("elapsed" not in c for c in doc["certificates"])


@pytest.mark.parametrize("seed,command", [("3", "ascheck t1 --k 0"), ("0", "--p 3 fuzz --what mult")])
def test_a_first_failure_replays_from_the_flags_it_names(seed, command, capsys, monkeypatch):
    # a value() and a gap test that read their input's text alone fail the
    # same samples on every run, the first of them past sample 0.  Each
    # failing sweep names "first failure: sample n (replay: --seed S
    # --samples n+1)"; the command run with those flags reports the same
    # first failure, element included
    from valcert import artin_schreier, engine

    monkeypatch.setattr(engine, "value", lambda f, seq: Fraction(len(str(f)) % 3))
    monkeypatch.setattr(artin_schreier, "_gap_exceeds", lambda g, cfg, seq, bound: len(str(g)) % 3 == 0)

    def first_failures(flags):
        code, out, _ = run_cli(["--format", "structured", *flags, *command.split()], capsys)
        assert code == 1
        return {c["id"]: c["actual"].partition("; first failure: ")[2] for c in json.loads(out)["certificates"]}

    failing = {cid: first for cid, first in first_failures(["--seed", seed, "--samples", "20"]).items() if first}
    past_zero = 0
    for cid, first in failing.items():
        n, replay = re.match(r"sample (\d+) \(replay: (--seed \S+ --samples \d+)\), ", first).groups()
        assert replay == f"--seed {seed} --samples {int(n) + 1}"
        assert first_failures(replay.split())[cid] == first
        past_zero += n != "0"
    assert past_zero


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VALCERT_SEED", "77")
    path = tmp_path / "env.json"
    run_cli(["--format", "structured", "--samples", "5", "--out", str(path), "fuzz", "--what", "mult"], capsys)
    assert json.loads(path.read_text())["config"]["seed"] == 77
    # the flag wins over the environment
    path2 = tmp_path / "flag.json"
    run_cli(
        ["--format", "structured", "--samples", "5", "--seed", "8", "--out", str(path2), "fuzz", "--what", "mult"],
        capsys,
    )
    assert json.loads(path2.read_text())["config"]["seed"] == 8


def test_bad_seed_env_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("VALCERT_SEED", "abc")
    code, out, err = run_cli(["fuzz", "--what", "mult"], capsys)
    assert code == 2
    assert "VALCERT_SEED" in err and "'abc'" in err
    assert out == ""


def test_ceiling_budget_is_per_certificate(capsys):
    # a budget overflow in one ceiling check or one engine sweep is recorded
    # on that certificate alone; the rest of the command is still checked
    labels = ["0", "1/approximant[0]"] + [f"pinned[{n}]" for n in range(3)] + [f"generic[{n}]" for n in range(3)]
    cases = [
        (
            ["--kmax", "0", "--budget", "20", "ascheck", "t2", "--samples", "6"],
            [f"as/ceiling/{label}" for label in labels],
            {"pass", "budget-exceeded"},
        ),
        (
            ["--budget", "12", "fuzz", "--what", "mult"],
            ["engine/multiplicative/engine=uv", "engine/multiplicative/engine=xy"],
            {"budget-exceeded"},
        ),
        (
            ["--budget", "40", "ascheck", "t1"],
            ["as/gap-identity", "as/gap-value", "as/gap-above-tail", "as/ceiling-strict"]
            + [f"as/approximant-gap/k={k}" for k in range(3)],
            {"pass", "budget-exceeded"},
        ),
        (["--budget", "3", "tower"], ["tower"], {"budget-exceeded"}),
    ]
    for argv, ids, statuses in cases:
        code, out, _ = run_cli(["--format", "structured", *argv], capsys)
        assert code == 0
        certs = json.loads(out)["certificates"]
        assert [c["id"] for c in certs] == ids
        assert {c["status"] for c in certs} == statuses


def test_ascheck_t2_expression_needs_no_ladder(capsys):
    # at --budget 5 building the tower overflows, so the sampled family
    # ends in one whole-command record; one requested ceiling check needs no
    # ladder and keeps its own record
    for argv, want in (
        (["--f", "u"], [("as/ceiling/u", "pass")]),
        (["--samples", "2"], [("ascheck", "budget-exceeded")]),
    ):
        code, out, _ = run_cli(["--format", "structured", "--budget", "5", "ascheck", "t2", *argv], capsys)
        assert code == 0
        assert [(c["id"], c["status"]) for c in json.loads(out)["certificates"]] == want


def test_whole_command_budget_record_is_timed(capsys):
    # the record of an overflow outside every certificate carries the time
    # the command ran until it overflowed, here in building the tower
    code, out, _ = run_cli(["--budget", "100", "--kmax", "4", "ascheck", "t1"], capsys)
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("BUDGET-EXCEEDED  ascheck "))
    assert not row.endswith("[0.000s]")


def test_approximant_tails_are_built_inside_their_certificate(capsys):
    # the tail of h_k^p - x^p is read only by as/approximant-gap/k, so its
    # overflow is recorded on that certificate alone, and a mode that reads
    # no tail never builds one
    t1 = ["as/gap-identity", "as/gap-value", "as/gap-above-tail", "as/ceiling-strict"]
    for budget, mode, passed, (overflowed, size) in (
        ("200", "report", [], ("as/dependence", 224)),
        ("300", "t1", t1 + ["as/approximant-gap/k=0", "as/approximant-gap/k=1"], ("as/approximant-gap/k=2", 424)),
    ):
        code, out, _ = run_cli(["--format", "structured", "--budget", budget, "ascheck", mode], capsys)
        assert code == 0
        certs = json.loads(out)["certificates"]
        assert [(c["id"], c["status"]) for c in certs] == [(i, "pass") for i in passed] + [(overflowed, "budget-exceeded")]
        assert certs[-1]["actual"] == f"polynomial support {size} exceeds budget {budget}"


def test_budget_exceeded_warns_but_exits_zero(capsys):
    code, out, _ = run_cli(["--budget", "3", "--format", "structured", "tower"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"]
    assert any(c["status"] == "budget-exceeded" for c in doc["certificates"])


def _fresh_interpreter(argv):
    # stdout of the command run in a new interpreter, where every memo is cold
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(valcert.__file__))}
    done = subprocess.run([sys.executable, "-m", "valcert", *argv], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_budget_selftest_after_a_default_one_prints_the_fresh_bytes(capsys):
    # a default selftest builds every tower the criteria use; a --budget 8
    # selftest after it in the same process must still overflow where a
    # fresh one does, not where towers or memos kept from the first run
    # would let it.  The towers hold only keys and descent units, which fit
    # the budget, so every criterion runs: each overflow is recorded on its
    # own certificate, and no whole-command record ends the report
    argv = ["--format", "structured", "--budget", "8", "selftest"]
    assert run_cli(["--format", "structured", "selftest"], capsys)[0] == 0
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == _fresh_interpreter(argv)
    certs = json.loads(out[out.index("{") :])["certificates"]
    assert [c["id"] for c in certs][-1] == "accept10/corrupted-table-aborts"
    assert "selftest" not in [c["id"] for c in certs]
    assert hashlib.sha256(out.encode()).hexdigest() == "588fe6207f2b23234857f278ad00674b2c976c9f70a285c945d82c77f09eb48d"


@pytest.mark.parametrize(
    "argv",
    [["value", "--ring", "uv", "v^4+u"], ["--format", "structured", "ascheck", "t2", "--samples", "3"]],
    ids=["value", "structured-report"],
)
def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(argv):
    # a reader that exits before the output is written, as `| head` does:
    # stdout is a pipe whose read end is already closed
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(valcert.__file__))}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "valcert", *argv], stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("to", ["stdout", "--out"])
def test_unwritable_output_exits_2_with_one_error_line(to):
    # a write that fails, here on a device that is always full, is an
    # "error:" line and exit 2, not a traceback and exit 1, the code of a
    # failed certificate
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(valcert.__file__))}
    argv = [sys.executable, "-m", "valcert", *(["--out", "/dev/full"] if to == "--out" else []), "value", "u"]
    with open("/dev/full", "w") as full:
        done = subprocess.run(argv, stdout=full if to == "stdout" else subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    where = "<stdout>" if to == "stdout" else "/dev/full"
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == [f"error: cannot write to {where}: No space left on device"]


def test_report_exit_code_logic():
    report = Report(config={})
    report.certificates.append(Certificate(id="a", status="pass"))
    assert report.exit_code() == 0
    report.certificates.append(Certificate(id="b", status="budget-exceeded"))
    assert report.exit_code() == 0
    report.certificates.append(Certificate(id="c", status="fail"))
    assert report.exit_code() == 1


# sha256 of the --format structured stdout of each command, as recorded at
# commit f7c9753; a change here is a change to the published certificates
STRUCTURED_DIGESTS = {
    "selftest": "0e278db85e88b4a1260f3882358bc479088de007a2cabbf7af49d4b0604eb253",
    "--kmax 1 selftest": "182e3c971fc662ab6dbd5ba08adbc2c95ed2bf1ca92951e0f0d23e0b61356694",
    "ascheck t1": "f996e0c2e423ba1c363762fa4d0ab6a893d5115cc3e0daa174086f0d9c36cc5e",
    "ascheck t1 --k 1 --samples 20": "8bc4c2ddf36df746e8561594267ddc84fbdbac6d1d98e667eeb302f887527e8a",
    "ascheck t2 --samples 40": "cb3ba0e680e9bd37d232c4c32ac4e0eb3668f17ca596a5d6c38431c3304b5203",
    "ascheck report": "ebb25345e201ceeee6c7efd926bbce9ce67e7419b59a8a7b0eac1058e62eaf37",
    "tower": "0114a3a03b9c6c740e648df1c135efeecfaea5e9591aeab6714b467a40d81b36",
    # recorded at commit 4575714, where each drift was still built by the
    # level-step recursion: tower levels 3 and 4, and a p = 3 tower
    "--kmax 4 --imax 6 tower": "7c33e1fabade310c51f9ecb813c4cf9fad61f277931027e7ea850d7ce381f897",
    "--p 3 --kmax 3 --imax 4 tower": "92d63635f6bd29cc909da19c7607e325013f102f5ed569c7c38a2b771844a115",
    "fuzz --what cross": "c899bbe8efe01ced8f96aaf4699045dce80c55e47bb8ec1b2391ffb4a2f04313",
    "fuzz --what mult": "84bac240ccb89b1f7b4d76fc63be33af5fde1bb4784e6214df4b54c71e3cc344",
    "fuzz --what ultra": "416d173c5751876a174dea0b8ae2e00ec03abb975b5e1076db7c0c73a9ce26ca",
    # re-recorded when the sweep stopped embedding each sample whole: at
    # commit c439328 (c22a78fc3a1d...) it overflowed on a 989-term embedded
    # sample, and now that the low-weight terms of g - x are built truncated
    # it passes
    "--budget 800 ascheck t1 --k 1 --samples 5": "5485f1a243dd7e5abc25e5486daab33e46887a1c3979304e934af41ab887dbb4",
    # re-recorded when the sweep stopped valuing each sample's full g - x:
    # at commit c439328 (850588053c09...) it overflowed on a 1669-term
    # division inside that value, and now it passes
    "--budget 1000 ascheck t1 --k 1 --samples 5": "1864e8253aab79ae4dcd11dae78071fe3083323f75547c3cd54d62bc6ed8f29a",
    "--kmax 0 --budget 20 ascheck t2 --samples 6": "d1fcbfaaef4361aa1e586cd3c2db1d7db8318986adf7b914982d5a8821bcb84e",
    # recorded at commit 1e04c13: a 403-line listing whose product of two
    # factors of 82 and 80 terms pins the term order expand() lists
    # through _mul_dict's operand rule
    "expand ((u+v+1)^15+u^3*v)*((u^2+v+1)^15+v)": "4de778eb1fa57f3e3e59113d58058ba9f38c3d3b34b3a05505f6b3d7f2ca1bdf",
    # recorded when build_tower stopped building unit factors and drifts:
    # every criterion now runs and records its own overflows, where before
    # the build of criterion 2's tower overflowed and ended the command.
    # Re-recorded (from 45d54bf9d0b0...) when the sweep stopped embedding
    # each sample whole: the p = 2, level-0 sweep overflowed at 12 terms
    # inside the embedding of its second sample, and now its first 17
    # samples decide within the budget and the sampler's own 9-term sum of
    # the 18th overflows.  Re-recorded (from 855a40b80a70...) when the drift
    # certificates stopped building the drift on an intact level: the 9-term
    # drifts at k = 2, i = 3 and 4 no longer overflow, so criteria 3 and 4
    # pass and their four budget records are gone
    "--budget 8 selftest": "588fe6207f2b23234857f278ad00674b2c976c9f70a285c945d82c77f09eb48d",
    # recorded at commit 8a43aea, where the ceiling and the cross-check
    # still valued the normalized embedded image: at odd p the sign of
    # 1/x - f shows, which at p = 2 does not
    "--p 3 ascheck t2 --samples 40": "684368ed8d18e0fd17c647255d977be4a8426aef0bceb1c1c16fde08735f65d5",
    "--p 7 ascheck t2 --samples 20": "67c70b4e715f435145acd52460ad5a57acd8640196a2376fb41eb43ba0e15d89",
    "--p 3 fuzz --what cross": "d619c09dead03c84229dba7359477631139ee94e842452120dfb363b94b6ef5f",
    "--p 5 fuzz --what cross": "560e650ce0f989cf406aaa36249430936c14a64d20e5cc0ad7405a77300b6f00",
}


@pytest.mark.parametrize("command", list(STRUCTURED_DIGESTS))
def test_structured_output_digest(command, capsys):
    code, out, _ = run_cli(["--format", "structured", *command.split()], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STRUCTURED_DIGESTS[command]


# (line count, sha256) of the text-mode value listing that each command
# prints before its report header, as recorded at commit ecc51ad
TEXT_LISTING_DIGESTS = {
    "tower --dump-values": (15, "c6d58c547d8fe73b8a8786f79fb6a2cd6d49837c01a4c0af1dd0bd3505037065"),
    "ascheck report --dump-values": (56, "d82c314e604b6c8fbcb67f6bcb42c419c7b3d7afda814e0d27b717288479dc3b"),
    # recorded at commit 8a43aea, as the odd-p STRUCTURED_DIGESTS above
    "--p 3 ascheck report --dump-values": (56, "e92591155690124c2fc55e909cf88341fe8e4c99541117012fa472c625af4fe6"),
}


@pytest.mark.parametrize("command", list(TEXT_LISTING_DIGESTS))
def test_text_listing_digest(command, capsys):
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    listing = out[: out.index("valcert 0.1.0  config=")]
    assert (len(listing.splitlines()), hashlib.sha256(listing.encode()).hexdigest()) == TEXT_LISTING_DIGESTS[command]
