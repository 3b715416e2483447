"""Command-line surface: outputs, exit codes, determinism, budget handling."""

import json

import pytest

from valcert.certificates import Certificate, Report
from valcert.cli import main


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
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert any("5/4" in line for line in lines)


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(["value", "--ring", "uv", "u + )"], capsys)
    assert code == 2
    assert "offset 4" in err


def test_bad_config_exit_2(capsys):
    code, _, err = run_cli(["--p", "4", "value", "--ring", "uv", "u"], capsys)
    assert code == 2
    assert "prime" in err


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
    # a budget overflow in one ceiling check is recorded on that
    # certificate alone; the rest of the family is still checked
    code, out, _ = run_cli(
        ["--kmax", "0", "--budget", "20", "--format", "structured", "ascheck", "t2", "--samples", "6"], capsys
    )
    assert code == 0
    certs = json.loads(out)["certificates"]
    labels = ["0", "1/approximant[0]"] + [f"pinned[{n}]" for n in range(3)] + [f"generic[{n}]" for n in range(3)]
    assert [c["id"] for c in certs] == [f"as/ceiling/{label}" for label in labels]
    statuses = {c["status"] for c in certs}
    assert statuses == {"pass", "budget-exceeded"}


def test_budget_exceeded_warns_but_exits_zero(capsys):
    code, out, _ = run_cli(["--budget", "3", "--format", "structured", "tower"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"]
    assert any(c["status"] == "budget-exceeded" for c in doc["certificates"])


def test_report_exit_code_logic():
    report = Report(tool="t", version="v", config={})
    report.certificates.append(Certificate(id="a", status="pass"))
    assert report.exit_code() == 0
    report.certificates.append(Certificate(id="b", status="budget-exceeded"))
    assert report.exit_code() == 0
    report.certificates.append(Certificate(id="c", status="fail"))
    assert report.exit_code() == 1
