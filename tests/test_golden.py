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
    # lamps 206 apart: the commutator runs along that lattice, in steps of b^206
    "decompose_wreath_far_lamp_recheck": (
        ["decompose", "--group", "wreath", '{"support": {"-3": 1, "203": -2}, "shift": -4}', "--recheck"],
        0,
    ),
    # the same hull with gaps of gcd 1: one commutator step per index
    "decompose_wreath_dense_far_hull_recheck": (
        ["decompose", "--group", "wreath", '{"support": {"-3": 1, "0": 1, "203": -2}, "shift": -4}',
         "--recheck"],
        0,
    ),
    # one lamp far from index 1: the certificate is sized by the lamp hull
    "decompose_wreath_one_sided_far_lamp_recheck": (
        ["decompose", "--group", "wreath", '{"support": {"20000": 1}, "shift": 0}', "--recheck"],
        0,
    ),
    # past the input cap from index 0, but the cap is the lamp hull alone
    "decompose_wreath_far_single_lamp_recheck": (
        ["decompose", "--group", "wreath", '{"support": {"100001": 1}, "shift": 0}', "--recheck"],
        0,
    ),
    # N_{2,2} certificates come from the Z wr Z lift: lamps x + z at 0, -z at 1
    "decompose_heis_central_recheck": (["decompose", "--group", "heis", "[0, 0, 1]", "--recheck"], 0),
    "decompose_heis_word": (["decompose", "--group", "heis", "b a^2 b^-3"], 0),
    "witness": (["witness", '{"support": {"0": -1, "1": 1}, "shift": 0}'], 0),
    "witness_far_pair": (["witness", '{"support": {"100001": 1, "100002": -1}, "shift": 0}'], 0),
    "verify_wreath_hom": (["verify", "wreath-hom", "--cases", "50"], 0),
    "explore_wreath_ball": (["explore", "--group", "wreath", "--radius", "3"], 0),
    "explore_heis_ball": (["explore", "--group", "heis", "--radius", "3"], 0),
    "explore_bs2_ball": (["explore", "--group", "bs:2", "--radius", "3"], 0),
    "explore_heis_histogram": (
        ["explore", "--group", "heis", "--max-len", "4", "--max-factors", "3", "--radius", "3"],
        0,
    ),
    # the heaviest enumeration and early level build of the goldens (~1 s)
    "explore_wreath_histogram": (
        ["explore", "--group", "wreath", "--max-len", "8", "--max-factors", "2"],
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
