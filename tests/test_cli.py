"""CLI behavior: formats, exit codes, and determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from contextlib import redirect_stdout

import pytest

from eulerstab import lab
from eulerstab.cli import (
    emit,
    main,
    polynomial_from_record,
    polynomial_record,
    run,
)
from eulerstab.eulerian import FamilyId, eulerian_b, eulerian_d, family_polynomial, zigzag
from eulerstab.polynomial import Polynomial

P = Polynomial


def _capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# emit / parse round trips


def test_emit_json_coeffs():
    rec = json.loads(emit(eulerian_b(2), "json"))
    assert rec["coeffs"] == ["1", "6", "1"]
    assert rec["schema"] == 1


def test_polynomial_json_round_trip():
    for fid in (FamilyId("A", 5), FamilyId("B", 6), FamilyId("D", 4), FamilyId("BMinus", 3)):
        poly = family_polynomial(fid)
        rec = json.loads(emit(poly, "json", family=fid.tag, n=fid.rank))
        assert polynomial_from_record(rec) == poly
        assert rec["family"] == fid.tag and rec["n"] == fid.rank


def test_emit_zigzag_csv():
    out = emit(zigzag(5), "csv")
    header, row = out.splitlines()
    assert header == "E0,E1,E2,E3,E4,E5"
    assert row == "1,1,1,2,5,16"


def test_emit_empty_report_text():
    from eulerstab.lab import VerificationReport

    out = emit(VerificationReport("none", (0, 0)), "text")
    assert out.startswith("PASS 0 checks")


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(eulerian_b(2), "xml")


# ---------------------------------------------------------------------------
# gen


def test_gen_json_matches_library():
    code, out = _capture(["gen", "--family", "D", "--n", "4", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert polynomial_from_record(rec) == eulerian_d(4)
    assert rec["family"] == "D" and rec["n"] == 4


def test_gen_range_csv():
    code, out = _capture(["gen", "--family", "B", "--n", "1", "--n-max", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,n,degree,c0")
    assert len(lines) == 4


def test_gen_roots_text_only():
    code, out = _capture(["gen", "--family", "D", "--n", "2", "--roots"])
    assert code == 0
    assert "real root approx -1" in out and "multiplicity 2" in out
    code, _ = _capture(["gen", "--family", "D", "--n", "2", "--roots", "--format", "json"])
    assert code == 2


def test_gen_domain_error_exit_2():
    code, _ = _capture(["gen", "--family", "D", "--n", "1"])
    assert code == 2


def test_gen_empty_range_exit_2():
    code, _ = _capture(["gen", "--family", "B", "--n", "5", "--n-max", "3"])
    assert code == 2


# ---------------------------------------------------------------------------
# oracle


def test_oracle_matches_generator():
    code, out = _capture(
        ["oracle", "--group", "B", "--stat", "des", "--n", "3", "--format", "json"]
    )
    assert code == 0
    assert polynomial_from_record(json.loads(out)) == eulerian_b(3)


def test_oracle_budget_exit_2(capsys):
    code, out = _capture(["oracle", "--group", "B", "--stat", "des", "--n", "12", "--budget", "100"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: group order at rank 12 exceeds the enumeration budget 100\n"


def test_oracle_incompatible_exit_2():
    code, _ = _capture(["oracle", "--group", "A", "--stat", "affdes", "--n", "3"])
    assert code == 2


# ---------------------------------------------------------------------------
# verify and scan


def test_verify_identities_exit_0():
    code, out = _capture(["verify", "--check", "identities", "--n-max", "10"])
    assert code == 0
    assert "PASS" in out


def test_verify_all_small_exit_0():
    code, out = _capture(["verify", "--check", "all", "--n-max", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert all(item["status"] == "pass" for item in payload["items"])


def test_verify_stability_failure_exit_1():
    code, out = _capture(["verify", "--check", "stability", "--n-max", "3", "--ks", "-5"])
    assert code == 1
    assert "FAIL" in out


def test_verify_stability_failure_text_is_pinned():
    # 34 failures among 66 checks, naming every non-degenerate failed
    # condition of the weak-stability certificate.
    argv = ["verify", "--check", "stability", "--n-max", "12", "--ks=-100,-13,-9,-15/2,-5,-9/2"]
    code, out = _capture([*argv, "--format", "json"])
    assert code == 1
    rec = json.loads(out)
    assert rec["checks"] == 66 and len(rec["failures"]) == 34
    for condition in (
        "an even/odd part has a nonpositive leading coefficient",
        "even part is not real-rooted",
        "odd part is not real-rooted",
        "a part has a positive real root",
        "even/odd degrees are incompatible with interlacing",
        "odd part does not interlace the even part",
    ):
        assert condition in out
    digest = "352e1b0ee92778b42d6cce1ccad7f70324d7e196389700187ce71c7d4842d62f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scan_stable_n3_reports_conjectured_value():
    code, out = _capture(
        ["scan", "--conjecture", "stable", "--n", "3", "--width", "1/1000000", "--format", "json"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["conjectured"] == "-4"


def test_scan_distinct_roots_exit_0():
    code, out = _capture(["scan", "--conjecture", "distinct-roots", "--n", "4", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "pass"
    assert len(rec["observations"]) == 3


@pytest.mark.parametrize(
    "check, n_max, lowest",
    [
        ("identities", 1, 2),
        ("interlacing", 1, 2),
        ("stability", 1, 2),
        ("half-reciprocal", 0, 1),
        ("operator-symbol", 0, 1),
        ("all", 1, 2),
    ],
)
def test_verify_n_max_below_check_minimum_exit_2(check, n_max, lowest, capsys):
    code = run(["verify", "--check", check, "--n-max", str(n_max)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert f"needs --n-max >= {lowest}" in err
    if check != "all":
        assert check in err


def test_failed_interlacing_precondition_exit_1(monkeypatch, capsys):
    # A verification failure exits 1 even when `interlaces` rejects its input.
    real = lab.eulerian_d
    monkeypatch.setattr(lab, "eulerian_d", lambda n: P([100, 11, 11, 1]) if n == 3 else real(n))
    code, out = _capture(["verify", "--check", "interlacing", "--n-max", "4"])
    assert code == 1
    assert "interlacing requires real-rooted polynomials" in out
    assert capsys.readouterr().err == ""


def test_usage_error_exit_2(capsys):
    assert main(["bogus"]) == 2
    assert main([]) == 2


def test_budget_only_on_oracle(capsys):
    for argv in (["gen", "--family", "B", "--n", "2"], ["zigzag", "--n", "3"]):
        assert run(argv + ["--budget", "5"]) == 2


# ---------------------------------------------------------------------------
# determinism


def test_identical_argv_identical_bytes():
    argv = ["gen", "--family", "B", "--n", "2", "--n-max", "6", "--format", "json"]
    assert _capture(argv) == _capture(argv)
    argv = ["scan", "--conjecture", "stable", "--n", "4", "--format", "csv"]
    assert _capture(argv) == _capture(argv)
    argv = ["verify", "--check", "operator-symbol", "--n-max", "6", "--format", "json"]
    assert _capture(argv) == _capture(argv)


def test_emit_list_matches_cli():
    records = [polynomial_record(eulerian_b(n), family="B", n=n) for n in (1, 2, 3)]
    for fmt in ("json", "csv", "text"):
        code, out = _capture(["gen", "--family", "B", "--n", "1", "--n-max", "3", "--format", fmt])
        assert code == 0
        assert out == emit(records, fmt) + "\n"


_EXPECTED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "expected_cli.json"


def test_recorded_cli_digests():
    # The benchmark's fixed commands: stdout must match the digests recorded
    # for the reference implementation byte for byte.
    digests = json.loads(_EXPECTED_CLI.read_text())["stdout_sha256"]
    assert digests
    for line, digest in sorted(digests.items()):
        code, out = _capture(line.split())
        assert code == 0, line
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--check", "operator-symbol", "--ks="],
        ["verify", "--check", "stability", "--ks="],
        ["scan", "--conjecture", "distinct-roots", "--n", "4", "--ks="],
    ],
)
def test_empty_ks_exit_2(argv, capsys):
    code, out = _capture(argv)
    assert code == 2
    assert out == ""
    assert "argument --ks: expected at least one rational value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scan", "--conjecture", "stable", "--n", "3", "--ks=1,2"], "--ks"),
        (["scan", "--conjecture", "distinct-roots", "--n", "4", "--width", "1/100"], "--width"),
        (["verify", "--check", "identities", "--n-max", "3", "--ks=1"], "--ks"),
        (["verify", "--check", "interlacing", "--n-max", "3", "--ks=1"], "--ks"),
        (["verify", "--check", "half-reciprocal", "--n-max", "3", "--ks=1"], "--ks"),
    ],
)
def test_ignored_flag_exit_2(argv, flag, capsys):
    # A flag the command would not read must not pass as if its values had
    # been checked.
    code, out = _capture(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{flag} has no effect" in err


def test_scan_stable_bracket_failure_exit_1(monkeypatch):
    def refuse(n, width):
        raise lab.BracketError(f"n={n}: expected strict stability at k=0")

    monkeypatch.setattr(lab, "critical_k", refuse)
    code, out = _capture(["scan", "--conjecture", "stable", "--n", "3"])
    assert (code, out) == (1, "FAIL n=3: expected strict stability at k=0\n")


def test_scan_stable_default_width_is_one_millionth():
    argv = ["scan", "--conjecture", "stable", "--n", "3", "--n-max", "4", "--format", "json"]
    code, out = _capture(argv)
    assert code == 0
    assert (code, out) == _capture(argv + ["--width", "1/1000000"])


def test_zigzag_beyond_int_str_digit_limit():
    # E_2000 has over 5,000 digits, past Python's default int-to-str limit.
    code, out = _capture(["zigzag", "--n", "2000"])
    assert code == 0
    assert out.rstrip("\n").rsplit(", ", 1)[1] == str(zigzag(2000).values[-1])


def test_closed_pipe_exits_quietly():
    # About 200 kB of CSV: more than the pipe holds, so the reader closing
    # after the header breaks the child's write.
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["gen", "--family", "A", "--n", "1", "--n-max", "80", "--format", "csv"]
    with subprocess.Popen(
        [sys.executable, "-m", "eulerstab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ) as proc:
        assert proc.stdout.readline().startswith(b"family,n,degree,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err


def _loaded_after(code, modules):
    # The sorted subset of `modules` that a fresh interpreter has loaded after
    # running `code`.  -S keeps site-installed .pth hooks, which may import
    # any of them, out of the check.
    src = Path(__file__).resolve().parent.parent / "src"
    code += f"\nimport sys; print(sorted({set(modules)!r} & set(sys.modules)))"
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
        check=True,
    ).stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize on every start.
    assert _loaded_after("import eulerstab.cli", ["dataclasses", "inspect"]) == "[]\n"


def test_cli_import_loads_no_layer_before_its_command():
    layers = ["eulerstab.lab", "eulerstab.oracle", "eulerstab.stability"]
    assert _loaded_after("import eulerstab.cli", layers) == "[]\n"
    # The parser reads the oracle's choices; gen and zigzag run neither lab
    # nor stability.
    quiet = "import contextlib, io, eulerstab.cli as c; f = io.StringIO()"
    runs = "c.run(['zigzag', '--n', '5']); c.run(['gen', '--family', 'B', '--n', '4', '--format', 'csv'])"
    out = _loaded_after(f"{quiet}\nwith contextlib.redirect_stdout(f): {runs}", layers)
    assert out == "['eulerstab.oracle']\n"
