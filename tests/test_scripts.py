"""Smoke tests: the experiment scripts run from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, facts",
    [
        ("ball_census.py", ["--group", "bs:2", "--radius", "3", "--max-len", "4", "--max-factors", "2"], 0),
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


@pytest.mark.parametrize("bound", ["--max-len", "--max-factors"])
def test_census_rejects_an_empty_search(bound):
    args = {"--max-len": "4", "--max-factors": "2", bound: "0"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "ball_census.py"), "--radius", "1",
         *(x for kv in args.items() for x in kv)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert f"{bound[2:].replace('-', '_')} must be at least 1" in proc.stderr


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
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "ball_census.py"), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("group", ["wreath", "heis", "bs:2"])
def test_census_rows_match_each_ball(group):
    from palwidth.cli import lookup_group
    from palwidth.search import ball_table

    proc = census("--group", group, "--radius", "5")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    ev = lookup_group(group)
    assert rows == [f"{r},{len(ball_table(ev, r))}" for r in range(6)]


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


def test_census_builds_one_ball(monkeypatch, capsys):
    # the histogram runs over the census's own table, not a second search
    import importlib.util

    from palwidth import search
    from palwidth.cli import lookup_group

    calls = []
    ball_table = search.ball_table

    def counting_ball_table(*args, **kwargs):
        calls.append(args)
        return ball_table(*args, **kwargs)

    monkeypatch.setattr(search, "ball_table", counting_ball_table)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ball_census", SCRIPTS / "ball_census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    args = ["--group", "heis", "--radius", "6", "--max-len", "4", "--max-factors", "2"]
    monkeypatch.setattr(sys, "argv", ["ball_census.py", *args])
    assert module.main() == 0
    assert len(calls) == 1
    rows = capsys.readouterr().out.splitlines()
    hist = search.pal_length_histogram(lookup_group("heis"), 6, 2, 4)
    assert rows[-len(hist):] == [f"{k},{v}" for k, v in hist.items()]
