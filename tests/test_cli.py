import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from palwidth import cli, search, suites
from palwidth.cli import lookup_group, main, recheck_certificate
from palwidth.palindromes import check_in_group
from palwidth.words import AB, AT, parse
from palwidth import baumslag, heisenberg, wreath


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_wreath_word(self, capsys):
        code, out, _ = run(capsys, "decompose", "--group", "wreath", "ab")
        assert code == 0
        doc = json.loads(out)
        assert doc["group"] == "wreath" and doc["verified"] is True
        assert doc["length"] <= 3 and doc["tool_version"]
        factors = [parse(f, AB) for f in doc["factors"]]
        product = wreath.WreathElement.identity()
        for f in factors:
            assert f.is_palindrome()
            product = product * wreath.evaluate(f)
        assert product == wreath.evaluate(parse("ab", AB))

    def test_wreath_single_factor(self, capsys):
        code, out, _ = run(capsys, "decompose", "--group", "wreath", "b")
        assert code == 0
        assert json.loads(out)["factors"] == ["b"]

    def test_wreath_element_literal(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--group", "wreath",
            '{"support": {"-1": 2, "0": -2}, "shift": 3}',
        )
        assert code == 0
        assert json.loads(out)["length"] <= 3

    def test_bs_word(self, capsys):
        code, out, _ = run(capsys, "decompose", "--group", "bs:2", "ta")
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 2 and doc["verified"] is True
        factors = [parse(f, AT) for f in doc["factors"]]
        product = baumslag.BSElement.identity(2)
        for f in factors:
            assert f.is_palindrome()
            product = product * baumslag.evaluate(f, 2)
        assert product == baumslag.evaluate(parse("ta", AT), 2)

    def test_bs_element_literal(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--group", "bs:2",
            '{"num": 3, "den_exp": 1, "dil": 1, "n": 2}',
        )
        assert code == 0
        assert json.loads(out)["factors"] == ["t^2 a^3 t^2", "t^-3"]

    def test_recheck_path(self, capsys):
        code, _, _ = run(capsys, "decompose", "--group", "wreath", "ab", "--recheck")
        assert code == 0

    def test_heis_word(self, capsys):
        # certified through the lift to Z wr Z
        code, out, _ = run(capsys, "decompose", "--group", "heis", "ab", "--recheck")
        assert code == 0
        doc = json.loads(out)
        assert doc["group"] == "heis" and doc["target"]["element"] == [1, 1, 0]
        assert doc["length"] <= 3
        product = heisenberg.HeisElement()
        for f in (parse(text, AB) for text in doc["factors"]):
            assert f.is_palindrome()
            product = product * heisenberg.evaluate(f)
        assert product == heisenberg.HeisElement(1, 1, 0)

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--group", "wreath", "a c")
        assert code == 2 and "unknown generator" in err

    @pytest.mark.parametrize(
        "support", ['{"1": 2, "01": 3}', '{"+1": 1, "1": -1}', '{"1_0": 1}']
    )
    def test_non_canonical_support_key_is_usage_error(self, capsys, support):
        code, out, err = run(
            capsys, "decompose", "--group", "wreath", f'{{"support": {support}, "shift": 0}}'
        )
        assert code == 2 and out == "" and "canonical" in err

    @pytest.mark.parametrize(
        "group, literal",
        [
            ("wreath", '{"support": {"1": 2, "1": 3}, "shift": 0}'),
            ("bs:3", '{"num": 1, "den_exp": 0, "dil": 0, "n": 3, "num": 2}'),
        ],
    )
    def test_repeated_key_is_usage_error(self, capsys, group, literal):
        # json.loads alone keeps the last value of a repeated key
        code, out, err = run(capsys, "decompose", "--group", group, literal)
        assert code == 2 and out == "" and "repeated key" in err

    @pytest.mark.parametrize(
        "group, literal",
        [("heis", "[" * 1000), ("wreath", "[" * 100_000), ("bs:3", '{"num": ' * 3000)],
        ids=["heis", "wreath", "bs"],
    )
    def test_deeply_nested_literal_is_usage_error(self, capsys, group, literal):
        # the JSON decoder's RecursionError was a traceback and exit 1
        code, out, err = run(capsys, "decompose", "--group", group, literal)
        assert (code, out, err) == (2, "", "error: the element literal is nested too deeply\n")

    def test_bad_group(self, capsys):
        code, out, err = run(capsys, "decompose", "--group", "nope", "a")
        assert code == 2 and out == "" and "'nope'" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "decompose", "--group", "wreath", "ab", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)


class TestWitness:
    def test_commutator(self, capsys):
        code, out, _ = run(capsys, "witness", '{"support": {"0": -1, "1": 1}, "shift": 0}')
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"]["support"] == {"0": 1}
        assert doc["matches"] is True

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "witness", '{"support": {}, "shift": 0}')
        assert code == 0
        assert json.loads(out)["witness"]["support"] == {}

    def test_a_failed_self_check_exits_1_with_no_payload(self, monkeypatch, capsys):
        # every printed payload has "matches": true; a witness with
        # [f, b] != c is refused by commutator_witness before any output
        monkeypatch.setattr(wreath, "_solve_commutator", lambda g: {0: 2})
        code, out, err = run(capsys, "witness", '{"support": {"0": -1, "1": 1}, "shift": 0}')
        assert code == 1 and out == ""
        assert err == "error: commutator witness failed re-verification\n"

    def test_not_in_derived_subgroup(self, capsys):
        code, _, err = run(capsys, "witness", '{"support": {}, "shift": 1}')
        assert code == 1 and "derived" in err

    def test_malformed_json_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "witness", '{"support": ')
        assert code == 2

    def test_deeply_nested_literal_is_usage_error(self, capsys):
        code, out, err = run(capsys, "witness", '{"a": ' * 3000)
        assert (code, out, err) == (2, "", "error: the element literal is nested too deeply\n")


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "wreath-hom", "--seed", "7", "--cases", "300")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["seed"] == 7 and doc["cases"] == 300

    def test_other_documented_suites(self, capsys):
        for name in ("heis-matrix-oracle", "bs-roundtrip"):
            code, out, _ = run(capsys, "verify", name, "--cases", "200")
            assert code == 0 and json.loads(out)["passed"] is True

    def test_unknown_suite(self, capsys):
        # the help text does not list the suites; this message does
        code, _, err = run(capsys, "verify", "bogus")
        assert code == 2 and "unknown suite" in err
        for name in suites.available_suites():
            assert name in err

    @pytest.mark.parametrize("name", ["y" * 30, "\x01" * 100_000])
    def test_a_long_unknown_suite_keeps_the_whole_list(self, capsys, monkeypatch, name):
        # the name is not echoed, and the line stays short with the whole
        # list, also after an eleventh suite with a 20-character name
        for more in (False, True):
            if more:
                monkeypatch.setitem(suites.SUITES, "z" * 20, suites.SUITES["bs-hom"])
            code, _, err = run(capsys, "verify", name)
            assert code == 2 and err.startswith("error: unknown suite ")
            assert err.endswith("; known: " + ", ".join(suites.available_suites()) + "\n")
            assert "characters)..." not in err and len(err.encode()) < 200

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "heis-quotient", "--seed", "5", "--cases", "150")
        _, out2, _ = run(capsys, "verify", "heis-quotient", "--seed", "5", "--cases", "150")
        assert out1 == out2  # identical seeds give byte-identical reports

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_needs_a_case(self, capsys, cases):
        code, out, err = run(capsys, "verify", "heis-matrix-oracle", "--cases", cases)
        assert code == 2 and out == ""
        assert err == "error: cases must be at least 1\n"

    def test_case_cap(self, monkeypatch, capsys):
        # an oversized count exits with the budget code before a case is
        # drawn; the count in the command-line examples is allowed
        drawn = []
        monkeypatch.setitem(
            suites.SUITES, "freeword-fuzz", (lambda rng, cases: drawn.append(cases) or [], 2000)
        )
        cap = suites.MAX_CASES
        assert cap >= 100_000
        for cases in (cap + 1, 10_000_000_000):
            code, out, err = run(capsys, "verify", "freeword-fuzz", "--cases", str(cases))
            assert code == 3 and out == ""
            assert err == f"error: cases is {cases}, over the cap of {cap}\n"
        assert drawn == []
        code, out, _ = run(capsys, "verify", "freeword-fuzz", "--cases", str(cap))
        assert code == 0 and json.loads(out)["cases"] == cap and drawn == [cap]


class TestExplore:
    @pytest.fixture
    def no_ball(self, monkeypatch):
        """Fail the call if it builds a ball: its usage error comes first."""

        def never(*args, **kwargs):
            raise AssertionError("the ball was built before the usage error")

        monkeypatch.setattr(cli, "ball_table", never)

    def test_radius_zero_csv(self, capsys, tmp_path):
        path = tmp_path / "ball.csv"
        code, _, _ = run(capsys, "explore", "--group", "heis", "--radius", "0", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "normal_form,min_length,witness"
        assert len(lines) == 2

    def test_ball_csv_matches_library(self, capsys, tmp_path):
        from palwidth.search import ball_table
        from palwidth import heisenberg

        path = tmp_path / "ball.csv"
        code, _, _ = run(capsys, "explore", "--group", "heis", "--radius", "2", "--out", str(path))
        assert code == 0
        rows = path.read_text().strip().splitlines()
        assert len(rows) - 1 == len(ball_table(heisenberg.evaluator(), 2))

    def test_histogram(self, capsys):
        code, out, _ = run(
            capsys, "explore", "--group", "heis", "--max-len", "4", "--max-factors", "2",
            "--radius", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["histogram"]["0"] == 1
        assert sum(doc["histogram"].values()) > 1

    @pytest.mark.parametrize("max_factors", ["0", "-1"])
    def test_histogram_needs_a_factor(self, capsys, no_ball, max_factors):
        code, out, err = run(
            capsys, "explore", "--group", "heis", "--max-len", "2", "--max-factors", max_factors,
            "--radius", "1",
        )
        assert code == 2 and out == ""
        assert err == "error: max_factors must be at least 1\n"

    @pytest.mark.parametrize("max_len", ["0", "-1"])
    def test_histogram_needs_a_palindrome_length(self, capsys, no_ball, max_len):
        code, out, err = run(
            capsys, "explore", "--group", "heis", "--max-len", max_len, "--max-factors", "2",
            "--radius", "1",
        )
        assert code == 2 and out == ""
        assert err == "error: max_len must be at least 1\n"

    def test_usage_error_without_mode(self, capsys):
        code, _, _ = run(capsys, "explore", "--group", "heis")
        assert code == 2

    @pytest.mark.parametrize(
        "given, missing", [("--max-factors", "--max-len"), ("--max-len", "--max-factors")]
    )
    def test_a_lone_histogram_bound_is_usage_error(self, capsys, no_ball, given, missing):
        # with --radius a lone --max-factors printed the ball and exited 0
        code, out, err = run(capsys, "explore", "--group", "heis", "--radius", "1", given, "2")
        assert code == 2 and out == ""
        assert err == f"error: a palindromic-length histogram needs {missing} as well\n"

    def test_budget_exit_code(self, capsys):
        # the ball, and the palindrome product index of a histogram
        for mode in (
            ["--radius", "6", "--budget", "5"],
            ["--radius", "2", "--max-len", "6", "--max-factors", "2", "--budget", "40"],
        ):
            code, out, err = run(capsys, "explore", "--group", "heis", *mode)
            assert code == 3 and out == "" and "state cap" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize(
        "mode", [["--radius", "0"], ["--radius", "2", "--max-len", "2", "--max-factors", "2"]]
    )
    def test_budget_below_one_is_usage_error(self, capsys, mode, budget):
        code, out, err = run(capsys, "explore", "--group", "heis", *mode, "--budget", budget)
        assert code == 2 and out == ""
        assert err == "error: budget must be at least 1\n"

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run(capsys, "explore", "--group", "wreath", "--radius", "3")
        _, out2, _ = run(capsys, "explore", "--group", "wreath", "--radius", "3")
        assert out1 == out2

    def test_histogram_out_file_is_also_printed(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        code, out, _ = run(
            capsys, "explore", "--group", "heis", "--max-len", "4", "--max-factors", "2",
            "--radius", "3", "--out", str(path),
        )
        assert code == 0
        assert out.encode("utf-8") == path.read_bytes()

    def test_ball_out_file_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "ball.csv"
        code, out, err = run(capsys, "explore", "--group", "heis", "--radius", "2", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("normal_form,min_length,witness")
        assert json.loads(err)["elements"] == len(path.read_text().splitlines()) - 1

    @pytest.mark.parametrize("group", ["wreath", "heis", "bs:2"])
    def test_summary_spheres_match_each_ball(self, capsys, group):
        # the summary's spheres are the growth table without the running sum
        code, _, err = run(capsys, "explore", "--group", group, "--radius", "5")
        assert code == 0
        summary = json.loads(err)
        ev = lookup_group(group)
        sizes = [0] + [len(search.ball_table(ev, r)) for r in range(6)]
        assert summary["spheres"] == [b - a for a, b in zip(sizes, sizes[1:])]
        assert sum(summary["spheres"]) == summary["elements"] == sizes[-1]

    def test_histogram_builds_one_ball(self, monkeypatch, capsys):
        # the histogram runs over the summary's own ball, not a second search
        calls = []

        def counting_ball_table(*args, **kwargs):
            calls.append(args)
            return search.ball_table(*args, **kwargs)

        monkeypatch.setattr(cli, "ball_table", counting_ball_table)
        code, out, err = run(
            capsys, "explore", "--group", "heis", "--radius", "6", "--max-len", "4", "--max-factors", "2"
        )
        assert code == 0 and len(calls) == 1
        hist = search.pal_length_histogram(lookup_group("heis"), 6, 2, 4)
        assert json.loads(out)["histogram"] == hist
        summary = json.loads(err)
        assert summary["elements"] == len(search.ball_table(lookup_group("heis"), 6))
        assert sum(summary["spheres"]) == summary["elements"]


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["decompose", "--group", "wreath", '{"support": {"-20100": 2}, "shift": -4}'],
         wreath, "three_palindrome_decomposition"),
        (["decompose", "--group", "bs:3", "t a"], baumslag, "two_palindrome_decomposition"),
        (["witness", "a b A B"], wreath, "commutator_witness"),
        (["verify", "freeword-fuzz", "--cases", "5"], suites, "run_suite"),
        (["explore", "--group", "heis", "--radius", "1"], cli, "ball_table"),
        (["explore", "--group", "heis", "--radius", "1", "--max-len", "2", "--max-factors", "1"],
         cli, "ball_table"),
    ],
    ids=["decompose", "decompose-bs", "witness", "verify", "explore-ball", "explore-histogram"],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(monkeypatch, capsys, tmp_path, argv, module, name, where):
    # the path is refused before the work, which is never started
    def never(*args, **kwargs):
        raise AssertionError(f"{name} ran before --out was checked")

    monkeypatch.setattr(module, name, never)
    out_path = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out file: ") and err.count("\n") == 1


def test_out_file_is_untouched_when_the_work_fails(capsys, tmp_path):
    # the early check neither truncates an existing file nor leaves a new one
    existing, fresh = tmp_path / "kept.csv", tmp_path / "new.csv"
    existing.write_text("earlier result\n")
    for path in (existing, fresh):
        code, out, _ = run(
            capsys, "explore", "--group", "heis", "--radius", "8", "--budget", "5", "--out", str(path)
        )
        assert code == 3 and out == ""
    assert existing.read_text() == "earlier result\n"
    assert not fresh.exists()
    code, _, _ = run(capsys, "explore", "--group", "heis", "--radius", "0", "--out", str(existing))
    assert code == 0 and existing.read_text().startswith("normal_form,min_length,witness")


class TestRecheck:
    def test_recheck_accepts_valid(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "bs:3", "t^-1 a t a")
        assert recheck_certificate(json.loads(out))

    def test_recheck_rejects_tampered_factors(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "wreath", "ab")
        doc = json.loads(out)
        doc["factors"] = ["a b"]  # not a palindrome
        assert not recheck_certificate(doc)

    def test_recheck_rejects_wrong_product(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "wreath", "ab")
        doc = json.loads(out)
        doc["factors"] = ["aba"]
        assert not recheck_certificate(doc)

    def test_recheck_rejects_tampered_element(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "wreath", "ab")
        doc = json.loads(out)
        doc["target"]["element"] = {"support": {"5": 1}, "shift": 0}
        assert not recheck_certificate(doc)

    def test_recheck_rejects_element_of_another_bs_group(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "bs:3", "t^-1 a t a")
        doc = json.loads(out)
        doc["target"]["element"]["n"] = 2
        assert not recheck_certificate(doc)

    def test_recheck_rejects_unknown_group(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "wreath", "ab")
        doc = json.loads(out)
        doc["group"] = "nope"
        with pytest.raises(ValueError, match="'nope'"):
            recheck_certificate(doc)

    def test_recheck_rejects_non_canonical_group_label(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "bs:3", "t^-1 a t a")
        doc = json.loads(out)
        doc["group"] = "bs:03"
        with pytest.raises(ValueError, match="bad group parameter"):
            recheck_certificate(doc)

    def test_recheck_rejects_nonempty_target_without_factors(self):
        doc = {
            "group": "wreath",
            "target": {"word": "A b A B a b a B", "element": {"support": {}, "shift": 0}},
            "factors": [],
        }
        assert not recheck_certificate(doc)

    def test_verified_flag_not_trusted(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "wreath", "ab")
        doc = json.loads(out)
        doc["verified"] = True
        doc["factors"] = ["a"]
        assert not recheck_certificate(doc)


class TestLookupGroup:
    @pytest.mark.parametrize("label", ["wreath", "heis", "bs:3", "bs:-2"])
    def test_label_round_trips(self, capsys, label):
        # every group record certifies, and its certificate names the label
        word = {"wreath": "a b", "heis": "a b"}.get(label, "t a")
        code, out, _ = run(capsys, "decompose", "--group", label, word, "--recheck")
        assert code == 0 and json.loads(out)["group"] == label

    @pytest.mark.parametrize("label", ["nope", "bs:", "bs:x", "Wreath"])
    def test_bad_label(self, label):
        with pytest.raises(ValueError):
            lookup_group(label)

    @pytest.mark.parametrize("label", ["bs:+2", "bs: 2", "bs:2 ", "bs:02", "bs:-02", "bs:٣", "bs:2_0"])
    def test_non_canonical_parameter(self, label):
        with pytest.raises(ValueError, match="bad group parameter"):
            lookup_group(label)

    def test_non_canonical_parameter_exits_with_the_usage_code(self, capsys):
        code, out, err = run(capsys, "decompose", "--group", "bs:٣", "t a")
        assert code == 2 and out == ""
        assert err == "error: bad group parameter in 'bs:٣' (expected bs:N)\n"

    def test_bs_literal_must_match_n(self):
        with pytest.raises(ValueError, match="element has n=2, group is bs:3"):
            lookup_group("bs:3").decode({"num": 1, "den_exp": 0, "dil": 0, "n": 2})

    def test_decode_inverts_to_json(self):
        for label, word in (("wreath", "a b a^-2"), ("heis", "a b a^-2"), ("bs:3", "t a t^-2")):
            group = lookup_group(label)
            g = group.eval(parse(word, group.alphabet))
            assert group.decode(json.loads(group.show(g))) == g


SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30  # bytes
# the longest group parameter a record takes
HUGE_BS = "bs:" + "7" * baumslag.MAX_PARAMETER_DIGITS


def run_capped(*argv, address_space=ADDRESS_SPACE):
    """`python -m palwidth ARGV` in a child whose address space is capped at
    1 GiB, or at `address_space` bytes; returns the finished process and its
    wall time."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "palwidth", *argv],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )
    return proc, time.perf_counter() - start


# runs `cli.main(ARGV)` in a fresh interpreter and prints its exit code and
# which of the modules that only some calls need it left imported
COLD_START = """
import contextlib, io, json, sys
from palwidth import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, [m for m in ("palwidth.suites", "fractions", "csv") if m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv, needed",
    [
        (["decompose", "--group", "wreath", "B a b b a B", "--recheck"], []),
        (["decompose", "--group", "bs:2", "t a", "--recheck"], []),
        (["witness", "a b A B"], []),
        (["explore", "--group", "heis", "--radius", "2"], []),
        (["explore", "--group", "bs:2", "--radius", "2", "--max-len", "2", "--max-factors", "2"], []),
        (["verify", "bs-roundtrip", "--cases", "10"], ["palwidth.suites"]),
    ],
    ids=["decompose-wreath", "decompose-bs", "witness", "explore-ball", "explore-histogram", "verify"],
)
def test_calls_import_only_what_they_run(argv, needed):
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, needed]


def test_stdout_closed_early_exits_1_without_a_traceback():
    # the reader takes one line and goes away, as `| head -n 1` does; the
    # ball CSV (~220 kB) outgrows a default pipe buffer, so a write fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "palwidth", "explore", "--group", "wreath", "--radius", "7"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"normal_form,min_length,witness\r\n"
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


PALWIDTH = [sys.executable, "-m", "palwidth"]


def buffered_env() -> dict:
    """The environment of a child that buffers its streams, as Python does
    by default (and as CI runs it), whatever the caller's PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["decompose", "--group", "heis", "[1,2,3]"], 1, "cannot write to stdout: "),
        (["explore", "--group", "wreath", "--radius", "5"], 1, "cannot write to stdout: "),
        (["explore", "--group", "wreath", "--radius", "3", "--out", "/dev/full"], 2,
         "cannot write --out file: "),
        (["verify", "wreath-hom", "--cases", "5", "--out", "/dev/full"], 2,
         "cannot write --out file: "),
        # the interpreter's last flush failed: exit 120 and an `Exception ignored` line
        (["--version"], 1, "cannot write to stdout: "),
    ],
    ids=["decompose-stdout", "explore-stdout", "explore-out", "verify-out", "version"],
)
def test_a_failed_write_is_one_error_line(argv, code, error):
    # each exited 1 with an OSError traceback: the full device fails the
    # write to stdout or to --out (and for stdout the last flush as well).
    # The radius-5 CSV (~27 kB) outgrows the stdout buffer, so its write
    # fails before explore prints its summary to stderr.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            PALWIDTH + argv, env=buffered_env(),
            stdout=subprocess.PIPE if "--out" in argv else full, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: " + error) and len(proc.stderr.encode()) < 200


def run_child(argv, stderr="open", stdout="open"):
    """The finished child ARGV, with stderr `open` (a pipe that is read), a
    `pipe` whose read end is closed, or descriptor 2 `closed`, and stdout
    `open` or descriptor 1 `closed`. The child buffers its streams, as
    Python does by default, so what a failed write leaves in the buffer
    meets the interpreter's last flush."""
    env = buffered_env()
    streams = {"stdout": subprocess.PIPE if stdout == "open" else None}
    if stderr == "open":
        streams["stderr"] = subprocess.PIPE
    elif stderr == "pipe":
        read_end, streams["stderr"] = os.pipe()
        os.close(read_end)
    # closed in the child only, after the fork
    closed = [fd for fd, mode in ((1, stdout), (2, stderr)) if mode == "closed"]
    try:
        return subprocess.run(
            argv, env=env, timeout=60, preexec_fn=lambda: [os.close(fd) for fd in closed],
            **streams,
        )
    finally:
        if stderr == "pipe":
            os.close(streams["stderr"])


@pytest.mark.parametrize(
    "argv, code",
    [
        # before every entry point wrote its errors through one writer, each
        # row exited 120 with stderr closed (the interpreter's last flush of
        # stderr failed); with unbuffered streams the rows marked "parent: 1"
        # exited 1
        (PALWIDTH + ["decompose", "--group", "nope", "a"], 2),  # parent: 1
        (PALWIDTH + ["verify", "bogus"], 2),  # parent: 1
        (PALWIDTH + ["explore", "--group", "wreath", "--radius", "x"], 2),
        (PALWIDTH + ["explore", "--group", "heis"], 2),  # parent: 1
        (PALWIDTH + ["explore", "--group", "wreath", "--radius", "30", "--budget", "10"], 3),  # parent: 1
        (PALWIDTH + ["witness", '{"support": {"0": 1}, "shift": 0}'], 1),
        (PALWIDTH + ["explore", "--group", "heis", "--radius", "2"], 0),  # parent: 1
        # the ball census, now the histogram mode of `explore`, over its budget
        (PALWIDTH + ["explore", "--group", "wreath", "--radius", "30", "--budget", "10",
                     "--max-len", "2", "--max-factors", "1"], 3),  # parent: 1
        (PALWIDTH + ["verify", "wreath-hom", "--cases", "100001"], 3),
        (PALWIDTH + ["verify", "wreath-hom", "--cases", "0"], 2),
        (PALWIDTH + ["explore", "--group", "heis", "--radius", "-1"], 2),
        (PALWIDTH + ["witness", '{"support": [], "shift": 0}'], 2),
    ],
    ids=["bad-group", "unknown-suite", "argparse", "no-mode", "budget", "not-derived",
         "ball-summary", "census-budget", "verify-case-cap", "verify-no-cases",
         "negative-radius", "support-list"],
)
def test_a_closed_stderr_keeps_the_exit_code_and_stdout(argv, code):
    # the `explore` ball writes its CSV to stdout and its summary to stderr
    expected = run_child(argv)
    assert expected.returncode == code
    for stderr in ("pipe", "closed"):
        proc = run_child(argv, stderr)
        assert (proc.returncode, proc.stdout) == (code, expected.stdout), stderr


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["decompose", "--group", "heis", "[1,2,3]"], 1, "error: cannot write to stdout: "),
        (["witness", "a b A B"], 1, "error: cannot write to stdout: "),
        (["verify", "wreath-hom", "--cases", "5"], 1, "error: cannot write to stdout: "),
        (["explore", "--group", "heis", "--radius", "1"], 1, "error: cannot write to stdout: "),
        # the ball goes to the --out file, and only the summary to stderr
        (["explore", "--group", "heis", "--radius", "1", "--out", "OUT"], 0, '{"elements": 5, '),
        (["decompose", "--group", "nope", "a"], 2, "error: unknown group 'nope'"),
        # argparse wrote these to stderr instead and exited 0
        (["--help"], 1, "error: cannot write to stdout: "),
        (["--version"], 1, "error: cannot write to stdout: "),
        (["verify", "--help"], 1, "error: cannot write to stdout: "),
    ],
    ids=["decompose", "witness", "verify", "explore-csv", "explore-out", "usage",
         "help", "version", "verify-help"],
)
def test_a_stdout_closed_at_start_is_a_failed_write(tmp_path, argv, code, line):
    # Python sets sys.stdout to None when descriptor 1 is closed (`>&-`);
    # every row but `usage` ended in a traceback and exit 1 before a
    # missing stdout counted as a failed write
    out = tmp_path / "ball.csv"
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    proc = run_child(PALWIDTH + argv, stdout="closed")
    err = proc.stderr.decode("utf-8")
    assert proc.returncode == code
    assert "Traceback" not in err and err.count("\n") == 1 and err.startswith(line)
    assert ("--out" in argv) == out.exists()


@pytest.mark.parametrize(
    "argv, code, reason",
    [
        (["witness", '{"support": {"0": 1, "1' + "0" * 99_990 + '": -1}, "shift": 0}'], 3,
         ", over the input cap of 100000"),
        (["witness", '{"support": {"0' + "1" * 99_990 + '": 1}, "shift": 0}'], 2,
         "' is not a canonical decimal index"),
        (["witness", '{"support": {"' + "1" * 99_990 + '": 0}, "shift": 0}'], 2,
         "' must be a nonzero integer"),
        (["decompose", "--group", "x" * 100_000, "a"], 2, "' (expected wreath, heis or bs:N)"),
        (["decompose", "--group", "bs:1" + "0" * 5000 + "x", "a"], 2, "x' (expected bs:N)"),
        (["decompose", "--group", "bs:3", '{"num": 1, "den_exp": 0, "dil": 0, "n": ' + "1" * 5000 + "}"],
         2, ", group is bs:3"),
        # argparse printed its usage block and the value whole (100,253 bytes)
        (["explore", "--group", "wreath", "--radius", "x" * 100_000], 2,
         "' (see palwidth explore --help)"),
    ],
    ids=["lamp-hull", "non-canonical-key", "zero-entry", "unknown-group", "bad-parameter",
         "other-n", "argparse"],
)
def test_an_error_line_does_not_grow_with_its_input(capsys, argv, code, reason):
    # each line echoed its input whole (5 kB to 100 kB); the cut keeps both
    # ends, so the reason at the end survives
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith("error: ") and err.endswith(reason + "\n")
    assert "characters)..." in err and len(err.encode()) < 200


@pytest.mark.parametrize(
    "argv, error",
    [
        ([], "the following arguments are required: command (see palwidth --help)"),
        (["explore", "--radius", "3"],
         "the following arguments are required: --group (see palwidth explore --help)"),
        (["verify", "bs-hom", "--seed", "x"],
         "argument --seed: invalid int value: 'x' (see palwidth verify --help)"),
    ],
    ids=["no-command", "no-group", "bad-int"],
)
def test_argparse_errors_are_one_error_line(capsys, argv, error):
    assert run(capsys, *argv) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["explore", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out


class TestInputCap:
    @pytest.mark.parametrize(
        "group, text, factor, num",
        [
            ("bs:3", "t^-20 a t^20", "a^3486784401", 3**20),
            ("bs:2", "a^200000000", "a^200000000", 200000000),
        ],
    )
    def test_huge_exponents_certify_in_little_memory(self, group, text, factor, num):
        proc, seconds = run_capped("decompose", "--group", group, text, "--recheck")
        assert proc.returncode == 0, proc.stderr
        assert seconds < 5
        doc = json.loads(proc.stdout)
        assert doc["factors"] == [factor]
        assert doc["target"]["element"]["num"] == num
        assert recheck_certificate(doc)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--group", "wreath", '{"support": {"0": 1, "100000000": 1}, "shift": 0}'],
            ["witness", '{"support": {"0": 1, "100000000": -1}, "shift": 0}'],
            ["decompose", "--group", "bs:3", "t^-100000000 a t^100000000"],
            ["decompose", "--group", "bs:3", '{"num": 1, "den_exp": 0, "dil": -100000000, "n": 3}'],
            # reducing 10^99990 / 10^(10^9) strips 99,990 factors of 10 first
            ["decompose", "--group", "bs:10",
             '{"num": 1' + "0" * 99_990 + ', "den_exp": 1000000000, "dil": 0, "n": 10}'],
            # a lamp hull of 100,001, one over the cap
            ["witness", '{"support": {"0": 1, "100001": -1}, "shift": 0}'],
        ],
    )
    def test_oversized_work_exits_with_the_budget_code(self, argv):
        proc, seconds = run_capped(*argv)
        assert proc.returncode == 3, proc.stderr
        assert seconds < 5
        assert proc.stdout == "" and "over the input cap" in proc.stderr

    @pytest.mark.parametrize(
        "group, text, digits",
        [
            # more digits than Python prints by default (4,300)
            ("bs:3", "t^-9100 a t^9100", 4342),
            # stripping 99,990 factors of 10 from a^(10^99991) at the recheck
            ("bs:10", "t^-99990 a^10", 99992),
            # 40 characters at the span cap: each product leaves a long num
            # whose factors of n are stripped in O(log) divisions
            ("bs:1000", "a^3 t^-33000 a^3 t^33000 a^-3 t^-34000", 99001),
        ],
    )
    def test_long_exponents_print_and_recheck(self, group, text, digits):
        proc, seconds = run_capped("decompose", "--group", group, text, "--recheck")
        assert proc.returncode == 0, proc.stderr
        assert seconds < 5
        # --recheck passed in the child; read the numbers as text here, where
        # the interpreter's digit limit may still be the default
        doc = json.loads(proc.stdout, parse_int=str)
        factor = doc["factors"][0]
        assert factor.startswith("a^") and len(factor) == len("a^") + digits

    @pytest.mark.parametrize(
        "group, text",
        [
            ("bs:10", "t^-100000 a^10"),
            ("bs:1000", "t^-50000 a t^50000"),
            # each exited 2, refused by the interpreter's limit on printed digits
            pytest.param("heis", "[3, -7, " + "9" * 100_000 + "]", id="heis-lift"),
            pytest.param("heis", "b^" + "9" * 60_000 + " a^" + "9" * 60_000, id="heis-word"),
            pytest.param("wreath", '{"support": {"0": 1}, "shift": ' + "9" * 100_000 + "}",
                         id="wreath-last-shift"),
            pytest.param("wreath", '{"support": {"0": ' + "9" * 100_000 + ', "1": 1}, "shift": 0}',
                         id="wreath-lamp-sum"),
            # 2z, the fused centre of the middle factor, is caught as it is printed
            pytest.param("heis", "[0, 0, 5" + "0" * 99_999 + "]", id="heis-printed"),
        ],
    )
    def test_over_the_digit_cap_exits_with_the_budget_code(self, group, text):
        proc, seconds = run_capped("decompose", "--group", group, text)
        assert proc.returncode == 3, proc.stderr
        assert seconds < 5
        assert proc.stdout == ""
        assert "more than 100000 decimal digits, over the digit cap" in proc.stderr
        assert len(proc.stderr.encode()) < 200

    def test_far_lamps_with_a_narrow_hull_certify(self):
        # 100,001 from index 0, but a hull of 0 and 1: both certificates are short
        proc, seconds = run_capped(
            "decompose", "--group", "wreath", '{"support": {"100001": 1}, "shift": 0}', "--recheck"
        )
        assert proc.returncode == 0, proc.stderr
        assert seconds < 5
        assert len(proc.stdout.encode()) < 400
        assert recheck_certificate(json.loads(proc.stdout))
        proc, seconds = run_capped("witness", '{"support": {"100001": 1, "100002": -1}, "shift": 0}')
        assert proc.returncode == 0, proc.stderr
        assert seconds < 5
        assert json.loads(proc.stdout)["witness"] == {"support": {"100001": -1}}

    @pytest.mark.parametrize(
        "literal",
        [
            # a 50,001-digit shift
            '{"support": {"0": 1, "100000": -1}, "shift": 1' + "0" * 50_000 + "}",
            # lamps at 10^49999 and 10^49999 + 100,000
            '{"support": {"1' + "0" * 49_999 + '": 1, "1' + "0" * 49_993 + '100000": -1}, "shift": 0}',
            # the same with a lamp next to the first, so that the gaps have
            # gcd 1 and the commutator takes 100,000 steps of b; three
            # 50,000-digit lamps are too long for one argument, so these
            # sit at 10^39999
            '{"support": {"0": 1, "1": 1, "100000": -1}, "shift": 1' + "0" * 50_000 + "}",
            '{"support": {"1' + "0" * 39_999 + '": 1, "1' + "0" * 39_998 + '1": 1, "1'
            + "0" * 39_993 + '100000": -1}, "shift": 0}',
        ],
        ids=["far-shift", "far-hull", "far-shift-dense", "far-hull-dense"],
    )
    def test_a_hull_at_the_cap_certifies_wherever_it_sits(self, literal):
        # a certificate at the hull cap holds up to 100,000 lamps, each keyed
        # near 0 and not near the shift or the far lamps: fast, and within 1 GiB
        proc, seconds = run_capped("decompose", "--group", "wreath", literal, "--recheck")
        assert proc.returncode == 0, proc.stderr[-1000:]
        assert seconds < 10
        assert '"verified": true' in proc.stdout

    def test_two_lamps_at_the_cap_take_one_lattice_step(self):
        # lamps 100,000 apart: the commutator is one step of b^100000
        proc, seconds = run_capped(
            "decompose", "--group", "wreath", '{"support": {"0": 1, "100000": -1}, "shift": 0}', "--recheck"
        )
        assert proc.returncode == 0, proc.stderr
        assert seconds < 1
        assert len(proc.stdout.encode()) < 400
        assert json.loads(proc.stdout)["factors"] == ["a b^-100000 a", "a^-2", "b^100000"]

    def test_a_comb_over_the_whole_hull_certifies(self):
        # every other index of a hull of 100,000 (too long a literal for one
        # argument): 50,000 commutator steps of b^2, and a middle factor
        # whose lamps reach 2 hull from its first, just under the 2 cap + 2
        # that `evaluate` refuses
        code = (
            "import json\n"
            "from palwidth.cli import certificate_json, recheck_certificate\n"
            "from palwidth.wreath import WreathElement, three_palindrome_decomposition\n"
            "g = WreathElement(tuple((i, 1 + i % 4) for i in range(1, 100_002, 2)), 7)\n"
            "dec = three_palindrome_decomposition(g)\n"
            "text = json.dumps(certificate_json('wreath', dec, g.to_json()), sort_keys=True)\n"
            "assert recheck_certificate(json.loads(text))\n"
            "print(max(len(f.syllables) for f in dec.factors))\n"
        )

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        assert time.perf_counter() - start < 10
        assert int(proc.stdout) <= 4 * 100_000 // 2 + 5

    def test_a_long_central_part_certifies(self):
        # N_{2,2} certificates lift to lamps x + z at 0 and -z at 1: a
        # 99,999-digit z makes one hull-1 Z wr Z certificate
        z = "1" + "0" * 99_998
        proc, seconds = run_capped("decompose", "--group", "heis", f"[3, -7, {z}]", "--recheck")
        assert proc.returncode == 0, proc.stderr[-1000:]
        assert seconds < 10
        assert '"verified": true' in proc.stdout

    def test_a_far_lamp_of_a_word_is_refused_before_it_is_held(self):
        # every later lamp was keyed 10^50000 from the first, 401 MB in all,
        # before the lamp hull was read; a key past twice the cap is refused
        word = "a b^1" + "0" * 50_000 + " " + "a b " * 18_000
        proc, seconds = run_capped("decompose", "--group", "wreath", word, address_space=100 << 20)
        assert proc.returncode == 3, proc.stderr[-1000:]
        assert seconds < 5
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: a lamp of the word is more than 200002 from its first, "
            "over twice the input cap of 100000\n"
        )

    def test_a_far_witness_counts_its_index_words(self):
        # the witness of lamps at 10^49999 and 10^49999 + 100,000 would list
        # 100,000 indices of 50,000 digits each: refused before any is made
        literal = '{"support": {"1' + "0" * 49_999 + '": 1, "1' + "0" * 49_993 + '100000": -1}, "shift": 0}'
        proc, seconds = run_capped("witness", literal)
        assert proc.returncode == 3, proc.stderr[-1000:]
        assert seconds < 5
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: lamp hull times 64-bit words per index is 259600000, over the input cap of 100000\n"
        )

    def test_huge_group_parameter_exits_with_the_budget_code(self):
        # n^50000 for a 100-digit n would have 5 * 10^6 digits; the power
        # is refused before it is formed
        proc, seconds = run_capped("decompose", "--group", HUGE_BS, "t^-50000 a t^50000")
        assert proc.returncode == 3, proc.stderr
        assert seconds < 5
        assert proc.stdout == ""
        assert "more than 100000 decimal digits, over the digit cap" in proc.stderr

    def test_over_budget_level_exits_with_the_budget_code(self):
        # level 2 of the radius-6, max_len 12 index would take several GiB;
        # the build stops once it outgrows the 300,000-state cap
        proc, seconds = run_capped(
            "explore", "--group", "wreath", "--radius", "6", "--max-len", "12",
            "--max-factors", "3", "--budget", "300000",
        )
        assert proc.returncode == 3, proc.stderr
        assert seconds < 5
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: palindrome product index exceeded its state cap (completed depth 1)\n"
        )

    def test_a_histogram_of_long_joins_exits_with_the_budget_code(self):
        # the ball's 15,650 undecided targets each tried up to 3,173
        # products, for 115 s; the joins now stop at their cap
        proc, seconds = run_capped(
            "explore", "--group", "bs:2", "--radius", "18", "--max-len", "14", "--max-factors", "2"
        )
        assert proc.returncode == 3, proc.stderr
        assert seconds < 10
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: palindrome product joins exceeded their cap (completed depth 1)\n"
        )

    @pytest.mark.parametrize("group, max_len", [("heis", "40"), ("wreath", "28")])
    def test_palindromes_over_the_budget_exit_before_enumerating(self, group, max_len):
        # heis at max_len 40 has 13,947,137,600 palindromes; their count,
        # not their images, is held to the default budget
        proc, seconds = run_capped(
            "explore", "--group", group, "--radius", "0", "--max-len", max_len, "--max-factors", "1"
        )
        assert proc.returncode == 3, proc.stderr
        assert seconds < 5
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: palindrome product index exceeded its state cap (completed depth 0)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # each ran out of 1 GiB over the default budget, with a fatal
            # error (exit 134) or a MemoryError traceback (exit 1), or, for
            # a level 1 of 13,947,137,600 palindromes, ran for minutes
            ["--radius", "6", "--max-len", "14", "--max-factors", "3", "--group", "wreath",
             "--budget", "10000000"],
            ["--radius", "16", "--group", "wreath", "--budget", "10000000"],
            ["--radius", "3", "--max-len", "40", "--max-factors", "1", "--group", "heis",
             "--budget", "9" * 60],
        ],
        ids=["wreath-index", "wreath-ball", "heis-palindromes"],
    )
    def test_a_budget_over_the_default_exits_before_the_search(self, argv):
        proc, seconds = run_capped("explore", *argv)
        assert proc.returncode == 3, proc.stderr[-1000:]
        assert seconds < 5
        assert proc.stdout == ""
        assert proc.stderr == f"error: budget is {argv[-1]}, over the cap of 1500000\n"

    @pytest.mark.parametrize("max_factors, code", [(100_000, 0), (100_001, 3), (10_000_000, 3)])
    def test_max_factors_cap(self, max_factors, code):
        # the histogram holds a count for each k up to --max-factors, made
        # before any search: 10^7 of them ran out of 1 GiB (MemoryError,
        # exit 1); over the cap, the call exits before the ball is built
        proc, seconds = run_capped(
            "explore", "--group", "heis", "--radius", "0", "--max-len", "2",
            "--max-factors", str(max_factors),
        )
        assert proc.returncode == code, proc.stderr[-1000:]
        assert seconds < 5
        if code == 0:
            assert len(json.loads(proc.stdout)["histogram"]) == max_factors + 2
        else:
            assert proc.stdout == ""
            assert proc.stderr == f"error: max_factors is {max_factors}, over the input cap of 100000\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            # before the cap, 1,000 digits took 6.2 s and 3,000 took 40 s (Python 3.11, one core)
            (["explore", "--group", HUGE_BS, "--radius", "5", "--max-len", "11",
              "--max-factors", "2"], 0),
            (["explore", "--group", "bs:" + "7" * 101, "--radius", "5", "--max-len", "11",
              "--max-factors", "2"], 3),
            (["explore", "--group", "bs:-" + "7" * 3_000, "--radius", "0"], 3),
            (["decompose", "--group", "bs:" + "7" * 99_999, "t a"], 3),
        ],
        ids=["at-the-cap", "one-over", "3000-digits", "99999-digits"],
    )
    def test_group_parameter_digit_cap(self, argv, code):
        proc, seconds = run_capped(*argv)
        assert proc.returncode == code, proc.stderr[-1000:]
        assert seconds < 5
        if code == 3:
            assert proc.stdout == ""
            assert proc.stderr == (
                "error: the group parameter has more than 100 decimal digits, over its digit cap\n"
            )

    def test_huge_group_parameter_zero_translation_certifies(self):
        # the normal form t^0 a^0 t^-90000 needs no power of n
        proc, seconds = run_capped("decompose", "--group", HUGE_BS, "t^-90000", "--recheck")
        assert proc.returncode == 0, proc.stderr
        assert seconds < 5
        assert json.loads(proc.stdout)["factors"] == ["t^-90000"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            # the lamp hull hi - lo: index 0 and the shift do not count
            (["decompose", "--group", "wreath", '{"support": {"-10": 1, "25": 2}, "shift": 5}'], 0),
            (["decompose", "--group", "wreath", '{"support": {"-10": 1, "31": 2}, "shift": -6}'], 3),
            (["decompose", "--group", "wreath", '{"support": {"3": 1}, "shift": 0}'], 0),
            (["decompose", "--group", "wreath", "a b^-41 a b^41"], 3),
            (["witness", '{"support": {"-10": 1, "30": -1}, "shift": 0}'], 0),
            (["witness", '{"support": {"-10": 1, "31": -1}, "shift": 0}'], 3),
            # total |t|-exponent of the word, and of a literal's normal form
            (["decompose", "--group", "bs:2", "t^-20 a t^20", "--recheck"], 0),
            (["decompose", "--group", "bs:2", "t^-20 a t^21"], 3),
            (["decompose", "--group", "bs:2", '{"num": 1, "den_exp": 0, "dil": -40, "n": 2}', "--recheck"], 0),
            (["decompose", "--group", "bs:2", '{"num": 1, "den_exp": 0, "dil": -41, "n": 2}'], 3),
            (["decompose", "--group", "bs:2", '{"num": 1, "den_exp": 20, "dil": 1, "n": 2}'], 3),
            # one lamp at 41, and a hull of 40 far along the shift
            (["decompose", "--group", "wreath", "b^-41 a b^41"], 0),
            (["decompose", "--group", "wreath", '{"support": {"-10": 1, "30": 2}, "shift": 1000}'], 0),
        ],
    )
    def test_cap_boundary(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(search, "MAX_INPUT_SPAN", 40)
        got, out, err = run(capsys, *argv)
        assert got == code, err
        if code == 3:
            assert out == "" and "over the input cap of 40" in err
