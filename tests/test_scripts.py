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
