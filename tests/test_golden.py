"""Golden outputs: fixed CLI calls must print byte-identical stdout and
exit with the recorded code.

The files under tests/golden/ hold the expected stdout of each call. When
an output changes on purpose, rewrite them with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
from pathlib import Path

import pytest

from palwidth.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code)
CASES = {
    "decompose_wreath_word": (["decompose", "--group", "wreath", "ab"], 0),
    "decompose_wreath_literal_recheck": (
        ["decompose", "--group", "wreath", '{"support": {"-1": 2, "0": -2}, "shift": 3}', "--recheck"],
        0,
    ),
    "decompose_bs2_word": (["decompose", "--group", "bs:2", "ta"], 0),
    "decompose_bs3_literal_recheck": (
        ["decompose", "--group", "bs:3", '{"num": 5, "den_exp": 2, "dil": -1, "n": 3}', "--recheck"],
        0,
    ),
    "decompose_bs3_conjugate_recheck": (
        ["decompose", "--group", "bs:3", "t^-11 a t^11", "--recheck"],
        0,
    ),
    "decompose_wreath_far_lamp_recheck": (
        ["decompose", "--group", "wreath", '{"support": {"-3": 1, "203": -2}, "shift": -4}', "--recheck"],
        0,
    ),
    "witness": (["witness", '{"support": {"0": -1, "1": 1}, "shift": 0}'], 0),
    "verify_wreath_hom": (["verify", "wreath-hom", "--cases", "50"], 0),
    "explore_wreath_ball": (["explore", "--group", "wreath", "--radius", "3"], 0),
    "explore_heis_ball": (["explore", "--group", "heis", "--radius", "3"], 0),
    "explore_bs2_ball": (["explore", "--group", "bs:2", "--radius", "3"], 0),
    "explore_heis_histogram": (
        ["explore", "--group", "heis", "--max-len", "4", "--max-factors", "3", "--radius", "3"],
        0,
    ),
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    argv, expected_code = CASES[name]
    code, out = run(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _) in sorted(CASES.items()):
        (GOLDEN / f"{name}.stdout").write_bytes(run(argv)[1])
