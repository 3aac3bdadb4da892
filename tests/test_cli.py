"""Command-line front end, driven in process through main(), and once
in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ckder
from ckder.cli import main


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_usage_errors(capsys):
    for argv in (
        ["verify", "--p", "4"],
        ["verify", "--p", "2"],
        ["dims", "--p", "9"],
        ["verify", "--p", "3", "--checks", "jordan,bogus"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_characteristic_bound_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("CKDER_MAX_P", "5")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "7"])
    assert exc.value.code == 2
    assert "CKDER_MAX_P" in capsys.readouterr().err
    monkeypatch.setenv("CKDER_MAX_P", "seven")
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--p", "3"])
    assert exc.value.code == 2


def test_verify_json_report(capsys):
    rc, out, _ = run(["verify", "--p", "3", "--checks", "jordan",
                      "--format", "json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["schema"] == "ckder-report/1"
    assert report["config"]["p"] == 3
    assert report["config"]["groups"] == ["jordan"]
    names = [c["name"] for c in report["checks"]]
    assert "double_jordan_identity" in names
    assert "big_w_jordan_identity" in names
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["summary"]["fail"] == 0
    # wall times belong to the text rendering only; the report itself
    # must be reproducible byte for byte
    assert "seconds" not in out


def test_verify_text_summary(capsys):
    rc, out, _ = run(["verify", "--p", "3", "--checks", "jordan"], capsys)
    assert rc == 0
    assert "ckder" in out and "p = 3" in out
    assert "0 fail" in out
    assert "double_jordan_identity" in out


def test_verify_runs_every_jordan_check_at_p_11(capsys):
    rc, out, _ = run(["verify", "--p", "11", "--checks", "jordan",
                      "--format", "json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["skipped"] == 0
    assert report["summary"]["fail"] == 0
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("big_w_jordan_identity", "big_v_jordan_identity"):
        assert by_name[name]["status"] == "pass"
    assert not any("operator identity" in n or "capped" in n
                   for n in report["notes"])


def test_verify_solves_big_derivations_above_the_dense_cap(capsys):
    rc, out, _ = run(["verify", "--p", "11", "--checks", "dims",
                      "--format", "json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["skipped"] == 0
    assert report["summary"]["fail"] == 0
    by_name = {c["name"]: c for c in report["checks"]}
    check = by_name["big_der_equals_inder"]
    assert check["status"] == "pass"
    assert check["witness"]["der"] == check["witness"]["inder"] == [44, 44]


def test_dimension_table(capsys):
    rc, out, _ = run(["dims", "--p", "3"], capsys)
    assert rc == 0
    assert "dim Z = 3" in out
    assert "dim J = 24 (12|12)" in out
    assert "Der(K)   = 7 (3|4)" in out
    assert "Inder(K) = 6 (3|3)" in out
    assert "Inder(J) = 24 (12|12)" in out
    assert "K(J) dim = 96" in out
    assert "[1,1]: 3|3" in out


def test_export_is_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["export", "--p", "3", "--algebra", "K",
                "--out", str(a)], capsys)[0] == 0
    assert run(["export", "--p", "3", "--algebra", "K",
                "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    blob = json.loads(a.read_text())
    assert blob["dim_even"] == 3 and blob["dim_odd"] == 3
    assert blob["field"] == {"p": 3, "ext": False}


def test_export_extends_field_when_needed(tmp_path, capsys):
    out = tmp_path / "v.json"
    rc, _, _ = run(["export", "--p", "3", "--algebra", "jck_v",
                    "--out", str(out)], capsys)
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["field"] == {"p": 3, "ext": True}
    assert blob["dim_even"] == 12 and blob["dim_odd"] == 12


def test_export_reports_unwritable_path(tmp_path, capsys):
    rc, _, err = run(["export", "--p", "3", "--algebra", "Z",
                      "--out", str(tmp_path / "no" / "dir" / "z.json")],
                     capsys)
    assert rc == 1
    assert "cannot write" in err


def test_verify_never_imports_numpy_ma():
    """A set routine of numpy 2.x called without index flags (np.unique,
    np.union1d, np.setdiff1d) asks np.ma.is_masked, and so imports all
    of numpy.ma inside the run; the package avoids them."""
    code = ("import contextlib, io, sys\n"
            "from ckder.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--p', '3', '--checks', 'all']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(ckder.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=600, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
