import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from palwidth import search
from palwidth.cli import lookup_group, main, recheck_certificate
from palwidth.palindromes import check_in_group
from palwidth.words import AB, AT, parse
from palwidth import baumslag, wreath


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

    def test_heis_unsupported(self, capsys):
        code, _, err = run(capsys, "decompose", "--group", "heis", "ab")
        assert code == 2 and "no decomposition" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--group", "wreath", "a c")
        assert code == 2 and "unknown generator" in err

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

    def test_not_in_derived_subgroup(self, capsys):
        code, _, err = run(capsys, "witness", '{"support": {}, "shift": 1}')
        assert code == 1 and "derived" in err

    def test_malformed_json_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "witness", '{"support": ')
        assert code == 2


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
        code, _, err = run(capsys, "verify", "bogus")
        assert code == 2 and "unknown suite" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "heis-quotient", "--seed", "5", "--cases", "150")
        _, out2, _ = run(capsys, "verify", "heis-quotient", "--seed", "5", "--cases", "150")
        assert out1 == out2  # identical seeds give byte-identical reports

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_needs_a_case(self, capsys, cases):
        code, out, err = run(capsys, "verify", "heis-matrix-oracle", "--cases", cases)
        assert code == 2 and out == ""
        assert err == "error: cases must be at least 1\n"


class TestExplore:
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
    def test_histogram_needs_a_factor(self, capsys, max_factors):
        code, out, err = run(
            capsys, "explore", "--group", "heis", "--max-len", "2", "--max-factors", max_factors,
            "--radius", "1",
        )
        assert code == 2 and out == ""
        assert err == "error: max_factors must be at least 1\n"

    @pytest.mark.parametrize("max_len", ["0", "-1"])
    def test_histogram_needs_a_palindrome_length(self, capsys, max_len):
        code, out, err = run(
            capsys, "explore", "--group", "heis", "--max-len", max_len, "--max-factors", "2",
            "--radius", "1",
        )
        assert code == 2 and out == ""
        assert err == "error: max_len must be at least 1\n"

    def test_usage_error_without_mode(self, capsys):
        code, _, _ = run(capsys, "explore", "--group", "heis")
        assert code == 2

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "explore", "--group", "heis", "--radius", "6", "--budget", "5")
        assert code == 3 and "state cap" in err

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run(capsys, "explore", "--group", "wreath", "--radius", "3")
        _, out2, _ = run(capsys, "explore", "--group", "wreath", "--radius", "3")
        assert out1 == out2


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

    def test_verified_flag_not_trusted(self, capsys):
        _, out, _ = run(capsys, "decompose", "--group", "wreath", "ab")
        doc = json.loads(out)
        doc["verified"] = True
        doc["factors"] = ["a"]
        assert not recheck_certificate(doc)


class TestLookupGroup:
    @pytest.mark.parametrize("label", ["wreath", "heis", "bs:3", "bs:-2"])
    def test_label_round_trips(self, label):
        assert lookup_group(label).label == label

    @pytest.mark.parametrize("label", ["nope", "bs:", "bs:x", "Wreath"])
    def test_bad_label(self, label):
        with pytest.raises(ValueError):
            lookup_group(label)

    def test_bs_literal_must_match_n(self):
        with pytest.raises(ValueError, match="element has n=2, group is bs:3"):
            lookup_group("bs:3").decode({"num": 1, "den_exp": 0, "dil": 0, "n": 2})

    def test_decode_inverts_to_json(self):
        for label, word in (("wreath", "a b a^-2"), ("heis", "a b a^-2"), ("bs:3", "t a t^-2")):
            group = lookup_group(label)
            g = group.eval(parse(word, group.alphabet))
            assert group.decode(json.loads(json.dumps(g.to_json()))) == g


SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30  # bytes


def run_capped(*argv):
    """`python -m palwidth ARGV` in a child whose address space is capped at
    1 GiB; returns the finished process and its wall time."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "palwidth", *argv],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )
    return proc, time.perf_counter() - start


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
            ["decompose", "--group", "wreath", '{"support": {"100000000": 1}, "shift": 0}'],
            ["witness", '{"support": {"0": 1, "100000000": -1}, "shift": 0}'],
            ["decompose", "--group", "bs:3", "t^-100000000 a t^100000000"],
            ["decompose", "--group", "bs:3", '{"num": 1, "den_exp": 0, "dil": -100000000, "n": 3}'],
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
        [("bs:10", "t^-100000 a^10"), ("bs:1000", "t^-50000 a t^50000")],
    )
    def test_over_the_digit_cap_exits_with_the_budget_code(self, group, text):
        proc, seconds = run_capped("decompose", "--group", group, text)
        assert proc.returncode == 3, proc.stderr
        assert seconds < 5
        assert proc.stdout == ""
        assert "more than 100000 decimal digits, over the digit cap" in proc.stderr

    @pytest.mark.parametrize(
        "argv, code",
        [
            # lamps from -10 to 25 (index 0 included) plus |shift| 5
            (["decompose", "--group", "wreath", '{"support": {"-10": 1, "25": 2}, "shift": 5}'], 0),
            (["decompose", "--group", "wreath", '{"support": {"-10": 1, "25": 2}, "shift": -6}'], 3),
            (["decompose", "--group", "wreath", '{"support": {"3": 1}, "shift": 0}'], 0),
            (["decompose", "--group", "wreath", "b^-41 a b^41"], 3),
            (["witness", '{"support": {"-10": 1, "30": -1}, "shift": 0}'], 0),
            (["witness", '{"support": {"-10": 1, "31": -1}, "shift": 0}'], 3),
            # total |t|-exponent of the word, and of a literal's normal form
            (["decompose", "--group", "bs:2", "t^-20 a t^20", "--recheck"], 0),
            (["decompose", "--group", "bs:2", "t^-20 a t^21"], 3),
            (["decompose", "--group", "bs:2", '{"num": 1, "den_exp": 0, "dil": -40, "n": 2}', "--recheck"], 0),
            (["decompose", "--group", "bs:2", '{"num": 1, "den_exp": 0, "dil": -41, "n": 2}'], 3),
            (["decompose", "--group", "bs:2", '{"num": 1, "den_exp": 20, "dil": 1, "n": 2}'], 3),
        ],
    )
    def test_cap_boundary(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(search, "MAX_INPUT_SPAN", 40)
        got, out, err = run(capsys, *argv)
        assert got == code, err
        if code == 3:
            assert out == "" and "over the input cap of 40" in err
