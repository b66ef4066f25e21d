"""Tests of scripts/width_report.py: it runs from any working directory,
refuses bad case counts with one short error line, survives a reader that
goes away, and prints a failed self-check as a failed fact. The
command-line contract of `palwidth` itself is tested in test_cli.py."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, facts",
    [
        ("width_report.py", ["--cases", "30"], 5),
    ],
)
def test_script_runs_outside_the_repo(tmp_path, script, args, facts):
    # without PYTHONPATH the script has to find the package on its own
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    reported = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert len(reported) == facts
    assert all(line.startswith("[PASS]") for line in reported)


@pytest.mark.parametrize("script", ["width_report.py"])
def test_script_help_exits_0(script):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout.startswith("usage: ")


@pytest.mark.parametrize(
    "cases, code, error",
    [
        ("0", 2, "cases must be at least 1"),
        ("-1", 2, "cases must be at least 1"),
        ("100001", 3, "over the cap of 100000"),
        # argparse printed its usage block and the value whole
        ("x" * 100_000, 2, "' (see width_report.py --help)"),
    ],
    ids=["0-2", "-1-2", "100001-3", "argparse"],
)
def test_report_refuses_bad_case_counts(cases, code, error):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "width_report.py"), "--cases", cases],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code and proc.stdout == ""
    assert "Traceback" not in proc.stderr and error in proc.stderr
    assert len(proc.stderr.encode()) < 200


def test_report_read_for_one_line_exits_1_without_a_traceback():
    # the reader takes one line and goes away, as `| head -n 1` does; the
    # report writes each fact as it is found (unbuffered), so a later fact
    # meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "width_report.py"), "--cases", "30"],
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"[PASS] commutator width of Z wr Z is 1")
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def load_script(monkeypatch, name, *args):
    """The script as a module, with these command-line arguments; its own
    sys.path entry is undone after the test."""
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *args])
    return module


def test_report_shows_a_failed_self_check_as_a_failed_fact(monkeypatch, capsys):
    # a constructor's SelfCheckError is a failed suite, so the report goes
    # on and prints [FAIL] for that fact instead of stopping
    from strategies import dropping_the_last_factor

    from palwidth import wreath

    module = load_script(monkeypatch, "width_report.py", "--cases", "30")
    monkeypatch.setattr(wreath, "PalindromicDecomposition", dropping_the_last_factor)
    assert module.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "[FAIL] pw(Z wr Z) <= 3: verify wreath-decomp --seed 0 --cases 30"
    assert [line[:6] for line in lines[:5]] == ["[PASS]", "[FAIL]", "[PASS]", "[PASS]", "[PASS]"]


def test_report_shows_a_failed_search_self_check_as_a_failed_fact(monkeypatch, capsys):
    # the nilpotent-quotient search runs outside the suites, under the
    # same rule: its [FAIL] line carries the error, and the later facts print
    from palwidth import search
    from palwidth.words import AB, parse

    factors = search._PalProductIndex.factors

    def wrong_last_factor(self, k, split):
        return factors(self, k, split)[:-1] + (parse("a b", AB),)

    module = load_script(monkeypatch, "width_report.py", "--cases", "30")
    monkeypatch.setattr(search._PalProductIndex, "factors", wrong_last_factor)
    assert module.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == ("[FAIL] pw(Z wr Z) >= 3 (central obstruction in the quotient): "
                        "certificate invalid: factor 'a b' is not a palindrome")
    assert lines[3] == "[PASS] pw(BS(1,n)) <= 2 for n in {2, 3, -2}: verify bs-decomp --seed 0 --cases 30"
    assert lines[4] == "[PASS] t a has no palindromic word of length <= 13 (bounded evidence)"


def test_report_shows_both_failed_searches_as_failed_facts(monkeypatch, capsys):
    # a self-check failing in every search fails both facts that search
    from palwidth.palindromes import SelfCheckError

    def failing(*args):
        raise SelfCheckError("certificate invalid: broken")

    module = load_script(monkeypatch, "width_report.py", "--cases", "30")
    monkeypatch.setattr(module, "pal_length_bounded", failing)
    assert module.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == ("[FAIL] pw(Z wr Z) >= 3 (central obstruction in the quotient): "
                        "certificate invalid: broken")
    assert lines[3] == "[PASS] pw(BS(1,n)) <= 2 for n in {2, 3, -2}: verify bs-decomp --seed 0 --cases 30"
    assert lines[4] == ("[FAIL] t a has no palindromic word of length <= 13 (bounded evidence): "
                        "certificate invalid: broken")
