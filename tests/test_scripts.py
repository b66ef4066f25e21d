"""Smoke tests: the experiment script runs from any working directory, and
the ball census, now `palwidth explore`, keeps its rules."""

import json
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


@pytest.mark.parametrize(
    "bounds, error",
    [
        (["--max-len", "0", "--max-factors", "2"], "max_len must be at least 1"),
        (["--max-len", "4", "--max-factors", "0"], "max_factors must be at least 1"),
        # alone, either bound printed the growth table and exited 0
        (["--max-factors", "2"], "a palindromic-length histogram needs --max-len as well"),
        (["--max-len", "4"], "a palindromic-length histogram needs --max-factors as well"),
    ],
    ids=["--max-len", "--max-factors", "lone --max-factors", "lone --max-len"],
)
def test_census_rejects_an_empty_search(bounds, error):
    # the bounds are checked before the ball is built, so nothing is printed
    proc = census("--group", "heis", "--radius", "1", *bounds)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {error}\n"


def test_census_usage_error_is_one_cut_line():
    # argparse printed its usage block and the value whole
    proc = census("--group", "heis", "--radius", "x" * 100_000)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: argument --radius: invalid int value: 'x")
    assert proc.stderr.endswith("' (see palwidth explore --help)\n")
    assert len(proc.stderr.encode()) < 200


@pytest.mark.parametrize("script", ["width_report.py"])
def test_script_help_exits_0(script):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout.startswith("usage: ")


@pytest.mark.parametrize("cases, code", [("0", 2), ("-1", 2), ("100001", 3)])
def test_report_refuses_bad_case_counts(cases, code):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "width_report.py"), "--cases", cases],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    expected = "cases must be at least 1" if code == 2 else "over the cap of 100000"
    assert expected in proc.stderr


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


def census(*args):
    """`palwidth explore ARGS`, the ball census, in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "palwidth", "explore", *args],
        env=dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("group", ["wreath", "heis", "bs:2"])
def test_census_rows_match_each_ball(group):
    # the summary's spheres are the growth table without the running sum
    from palwidth.cli import lookup_group
    from palwidth.search import ball_table

    proc = census("--group", group, "--radius", "5")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stderr)
    ev = lookup_group(group)
    sizes = [0] + [len(ball_table(ev, r)) for r in range(6)]
    assert summary["spheres"] == [b - a for a, b in zip(sizes, sizes[1:])]
    assert sum(summary["spheres"]) == summary["elements"] == sizes[-1]


@pytest.mark.parametrize(
    "args",
    [
        ["--radius", "6", "--budget", "20"],
        ["--radius", "2", "--max-len", "6", "--max-factors", "2", "--budget", "40"],
    ],
)
def test_census_over_budget_exits_3(args):
    proc = census("--group", "heis", *args)
    assert proc.returncode == 3
    assert "state cap" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_census_budget_below_one_is_usage_error(budget):
    proc = census("--group", "heis", "--radius", "0", "--budget", budget)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith("error: budget must be at least 1\n")


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


def test_census_builds_one_ball(monkeypatch, capsys):
    # the histogram runs over the summary's own ball, not a second search
    from palwidth import cli, search

    calls = []

    def counting_ball_table(*args, **kwargs):
        calls.append(args)
        return search.ball_table(*args, **kwargs)

    monkeypatch.setattr(cli, "ball_table", counting_ball_table)
    args = ["explore", "--group", "heis", "--radius", "6", "--max-len", "4", "--max-factors", "2"]
    assert cli.main(args) == 0
    assert len(calls) == 1
    out, err = capsys.readouterr()
    hist = search.pal_length_histogram(cli.lookup_group("heis"), 6, 2, 4)
    assert json.loads(out)["histogram"] == hist
    summary = json.loads(err)
    assert summary["elements"] == len(search.ball_table(cli.lookup_group("heis"), 6))
    assert sum(summary["spheres"]) == summary["elements"]


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
