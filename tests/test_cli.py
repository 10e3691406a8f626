"""Command-line surface: verdicts, exit codes, golden output, JSON schema."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylwords
from weylwords import cli, downup, total_classes
from weylwords.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_equivalent_pair(self):
        code, out, _ = invoke(["check", "DUUD", "UDDU"])
        assert code == 0
        assert out == "EQUIVALENT\n"

    def test_different_pair(self):
        code, out, _ = invoke(["check", "U", "D"])
        assert code == 1
        assert out == "DIFFERENT\n"

    def test_case_insensitive_words(self):
        code, out, _ = invoke(["check", "duud", "udDU"])
        assert code == 0

    def test_json(self):
        code, out, _ = invoke(["--format=json", "check", "DUUD", "UDDU"])
        assert code == 0
        assert json.loads(out) == {
            "command": "check",
            "u": "DUUD",
            "v": "UDDU",
            "equivalent": True,
        }


class TestCanon:
    def test_plain(self):
        code, out, _ = invoke(["canon", "UDDU"])
        assert code == 0
        assert out == "DUUD\n"

    def test_empty_word(self):
        code, out, _ = invoke(["canon", ""])
        assert code == 0
        assert out == "\n"


class TestClassAndSize:
    def test_class_size_line(self):
        code, out, _ = invoke(["class", "DUUD"])
        assert code == 0
        assert out == "2\n"

    def test_class_list_sorted(self):
        code, out, _ = invoke(["class", "DUUD", "--list"])
        assert out == "2\nDUUD\nUDDU\n"

    def test_moves_flag(self):
        for moves in ("bal", "flip", "irr"):
            code, out, _ = invoke(["class", "DUUD", f"--moves={moves}"])
            assert code == 0 and out == "2\n"

    def test_cap_resource_error(self):
        code, out, err = invoke(["class", "UDDUUDDU", "--cap=2"])
        assert code == 3
        assert "resource limit" in err
        assert out == ""

    def test_size(self):
        code, out, _ = invoke(["size", "DUUD"])
        assert code == 0 and out == "2\n"

    def test_class_json(self):
        _, out, _ = invoke(["--format=json", "class", "DUUD", "--list"])
        payload = json.loads(out)
        assert payload["size"] == 2
        assert payload["members"] == ["DUUD", "UDDU"]
        assert payload["representative"] == "DUUD"


class TestExpandAndRook:
    def test_expand_term_order(self):
        code, out, _ = invoke(["expand", "DDUU"])
        assert code == 0
        assert out == "U^2 D^2 : 1\nU^1 D^1 : 4\nU^0 D^0 : 2\n"

    def test_expand_json(self):
        _, out, _ = invoke(["--format=json", "expand", "DU"])
        assert json.loads(out)["terms"] == [
            {"u_power": 1, "d_power": 1, "coefficient": 1},
            {"u_power": 0, "d_power": 0, "coefficient": 1},
        ]

    def test_rook(self):
        code, out, _ = invoke(["rook", "UDDUDUUDUD"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "columns: 2 3 3 4"
        assert lines[1].startswith("rook: 1 12")

    def test_rook_empty_board(self):
        code, out, _ = invoke(["rook", "UUU"])
        assert code == 0
        assert out == "columns:\nrook: 1\n"

    def test_rookcheck(self):
        code, out, _ = invoke(["rookcheck", "DUUDU", "DDUU"])
        assert code == 0 and out == "EQUIVALENT\n"
        code, out, _ = invoke(["rookcheck", "UD", "DU"])
        assert code == 1 and out == "DIFFERENT\n"


class TestTensor:
    def test_true_verdict(self):
        code, out, _ = invoke(["tensor", "DUUD,UDDU;UD,UD"])
        assert code == 0 and out == "EQUIVALENT\n"

    def test_false_verdict(self):
        code, out, _ = invoke(["tensor", "U,U;U,D"])
        assert code == 1 and out == "DIFFERENT\n"

    def test_empty_product(self):
        code, out, _ = invoke(["tensor", ""])
        assert code == 0 and out == "EQUIVALENT\n"

    def test_malformed_pairs(self):
        code, _, err = invoke(["tensor", "U,U,D"])
        assert code == 2
        assert "error:" in err and "usage:" in err


class TestCount:
    def test_total_for_bare_n(self):
        code, out, _ = invoke(["count", "10"])
        assert code == 0
        assert out == "466\n"

    def test_value_with_k(self):
        code, out, _ = invoke(["count", "4", "2"])
        assert out == "5\n"
        _, out, _ = invoke(["count", "10", "2"])
        assert out == "38\n"

    def test_cdyck_total_and_entry(self):
        _, out, _ = invoke(["count", "10", "--c=2"])
        assert out == "50\n"
        _, out, _ = invoke(["count", "10", "3", "--c=2"])
        assert out == "20\n"

    def test_brute(self):
        _, out, _ = invoke(["count", "6", "--brute"])
        assert out == "1 6 12 12 12 6 1\n"

    def test_brute_rational_c(self):
        _, out, _ = invoke(["count", "4", "2", "--c=1/2", "--brute"])
        assert out == "3\n"

    def test_brute_matches_closed_form_entries(self):
        _, brute, _ = invoke(["count", "6", "--c=2", "--brute"])
        assert brute == "1 4 3\n"
        for k, expected in enumerate((1, 4, 3)):
            _, value, _ = invoke(["count", "6", str(k), "--c=2"])
            assert value == f"{expected}\n"

    def test_rational_c_needs_brute(self):
        code, _, err = invoke(["count", "4", "2", "--c=1/2"])
        assert code == 2 and "error:" in err

    def test_out_of_range_k(self):
        code, _, err = invoke(["count", "4", "9"])
        assert code == 2
        code, _, _ = invoke(["count", "10", "4", "--c=2"])
        assert code == 2

    def test_brute_guard(self):
        code, _, err = invoke(["count", "30", "--brute"])
        assert code == 3

    def test_c_below_one_is_a_usage_error(self):
        for argv in (["count", "10"], ["count", "10", "4"], ["count", "10", "0"]):
            for c in ("0", "-1", "-2"):
                for fmt in ("plain", "json"):
                    code, out, err = invoke([f"--format={fmt}", *argv, f"--c={c}"])
                    assert code == 2 and out == ""
                    assert err.startswith(f"error: c must be an integer >= 1, got {c}\n")


class TestTable:
    def test_contains_known_rows(self):
        code, out, _ = invoke(["table", "4"])
        assert code == 0
        assert "  n=4: 1 4 5 4 1" in out.splitlines()
        assert "totals: 1 2 4 8 15" in out

    def test_negative_size_is_a_usage_error(self):
        for fmt in ("plain", "json"):
            code, out, err = invoke([f"--format={fmt}", "table", "-1"])
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "usage: weylwords table" in err


class TestPercolation:
    def test_series(self):
        code, out, _ = invoke(["perc", "--order=2"])
        assert code == 0 and out == "1 2 4\n"

    def test_series_wall(self):
        _, out, _ = invoke(["perc", "--order=2", "--wall"])
        assert out == "1 1 2\n"

    def test_site(self):
        _, out, _ = invoke(["perc-site", "2", "0", "--order=4"])
        assert out == "0 0 2 0 -1\n"

    def test_order_guard(self):
        code, _, err = invoke(["perc", "--order=99"])
        assert code == 3

    def test_bad_site(self):
        code, _, _ = invoke(["perc-site", "2", "1", "--order=4"])
        assert code == 2


class TestDownUp:
    def test_normal_form(self):
        code, out, _ = invoke(["downup", "DDU", "--params=1,0,1"])
        assert code == 0
        assert out == "D : 1\nDUD : 1\n"

    def test_fraction_params(self):
        code, out, _ = invoke(["downup-check", "DUUD", "UDDU", "--params=1/2,1/2,3/2"])
        assert code == 0 and out == "EQUIVALENT\n"

    def test_check_false(self):
        code, out, _ = invoke(["downup-check", "DUU", "UUD", "--params=1,0,1"])
        assert code == 1 and out == "DIFFERENT\n"

    def test_bad_params(self):
        code, _, err = invoke(["downup", "DDU", "--params=1,0"])
        assert code == 2

    def test_json(self):
        _, out, _ = invoke(["--format=json", "downup", "DDU", "--params=0,1/2,0"])
        payload = json.loads(out)
        assert payload["params"] == ["0", "1/2", "0"]
        assert payload["terms"] == [{"word": "UDD", "coefficient": "1/2"}]

    def test_zero_element(self):
        code, out, _ = invoke(["downup", "DDU", "--params=0,0,0"])
        assert code == 0 and out == "0\n"
        _, out, _ = invoke(["--format=json", "downup", "DDU", "--params=0,0,0"])
        assert json.loads(out)["terms"] == []

    def test_deep_pair_is_equivalent_in_a_subprocess(self):
        # A recursive rewriter overflowed the interpreter's recursion limit on
        # these 160-letter words and exited 4.
        prefix = "D" * 76 + "U" * 76
        argv = ["downup-check", prefix + "DUUDUDUD", prefix + "UDDUUDUD", "--params=1,0,1"]
        plain = _python("-m", "weylwords.cli", *argv)
        assert (plain.returncode, plain.stdout, plain.stderr) == (0, "EQUIVALENT\n", "")
        result = _python("-m", "weylwords.cli", "--format=json", *argv)
        assert result.returncode == 0 and result.stderr == ""
        assert json.loads(result.stdout)["equivalent"] is True

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_over_the_rewrite_budget_exits_3(self, monkeypatch, fmt):
        monkeypatch.setattr(downup, "MAX_REWRITES", 20)
        budget = "(MAX_REWRITES = 20 words rewritten)"
        word = "D" * 6 + "U" * 6
        for argv in (["downup", word], ["downup-check", word, "U" * 6 + "D" * 6]):
            code, out, err = invoke([f"--format={fmt}", *argv, "--params=1,1,1"])
            assert (code, out) == (3, "")
            assert err == f"resource limit: normal ordering exceeds the rewrite budget {budget}\n"


class TestUsageAndDeterminism:
    def test_unknown_subcommand(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 2
        assert "usage:" in err

    def test_unknown_flag(self):
        code, _, err = invoke(["check", "U", "U", "--frob"])
        assert code == 2

    def test_invalid_word(self):
        code, _, err = invoke(["check", "UX", "U"])
        assert code == 2
        assert "position 2" in err

    def test_missing_arguments(self):
        code, _, err = invoke(["check", "U"])
        assert code == 2

    def test_byte_determinism(self):
        for argv in (
            ["class", "DUDDUUDUUD", "--list"],
            ["expand", "DUDUDU"],
            ["table", "6"],
            ["--format=json", "rook", "UDUDUD"],
        ):
            first = invoke(argv)
            second = invoke(argv)
            assert first == second

    def test_json_round_trip(self):
        _, out, _ = invoke(["--format=json", "perc", "--order=3", "--wall"])
        payload = json.loads(out)
        assert payload == {
            "command": "perc",
            "order": 3,
            "wall": True,
            "coefficients": [1, 1, 2, 3],
        }


def _python(*args):
    """Run a fresh interpreter that imports this checkout's weylwords."""
    src = str(Path(weylwords.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestInternalError:
    def test_unexpected_exception_exits_4(self, monkeypatch):
        def broken(word):
            raise ValueError("line one\nline two")

        monkeypatch.setattr("weylwords.cli.canonical_form", broken)
        for fmt in ("plain", "json"):
            code, out, err = invoke([f"--format={fmt}", "canon", "DU"])
            assert code == 4
            assert out == ""
            assert err == "internal error: ValueError: line one line two\n"

    def test_main_exits_4_in_a_subprocess(self):
        code = "import weylwords.cli as cli; cli.canonical_form = None; cli.main()"
        result = _python("-c", code, "canon", "DU")
        assert result.returncode == 4
        assert result.stdout == ""
        assert result.stderr.startswith("internal error: TypeError: ")
        assert result.stderr.count("\n") == 1


class TestPackaging:
    def test_import_needs_no_numpy(self):
        result = _python("-c", "import weylwords, sys; assert 'numpy' not in sys.modules")
        assert result.returncode == 0, result.stderr



@contextlib.contextmanager
def _no_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestLongDecimals:
    """Results past CPython's default 4,300-digit limit print in full."""

    # total_classes(20571) has 4,300 digits, total_classes(20572) 4,301.
    @pytest.mark.parametrize("n, digits", [(20571, 4300), (20572, 4301), (30000, 6271)])
    def test_plain(self, n, digits):
        code, out, err = invoke(["count", str(n)])
        assert (code, err) == (0, "")
        assert len(out) == digits + 1
        with _no_digit_limit():
            assert int(out) == total_classes(n)

    @pytest.mark.parametrize("n", [20571, 20572, 30000])
    def test_json(self, n):
        code, out, err = invoke(["--format=json", "count", str(n)])
        assert (code, err) == (0, "")
        with _no_digit_limit():
            payload = json.loads(out)
            assert payload == {"command": "count", "n": n, "k": None, "c": None, "value": total_classes(n)}

    def test_caller_limit_is_restored(self):
        before = sys.get_int_max_str_digits()
        invoke(["count", "30000"])
        assert sys.get_int_max_str_digits() == before

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_over_the_budget_exits_3(self, monkeypatch, fmt):
        monkeypatch.setattr(cli, "MAX_OUTPUT_DIGITS", 5000)
        code, out, err = invoke([f"--format={fmt}", "count", "30000"])
        assert (code, out) == (3, "")
        assert err == "resource limit: result exceeds the output budget (MAX_OUTPUT_DIGITS = 5000 decimal digits)\n"
        code, out, _ = invoke([f"--format={fmt}", "count", "20572"])
        assert code == 0

    def test_long_class_size(self):
        # A random 40,000-letter word's class size has about 11,700 digits.
        rng = random.Random(40000)
        word = "".join(rng.choice("DU") for _ in range(40000))
        code, out, _ = invoke(["size", word])
        assert code == 0
        with _no_digit_limit():
            assert int(out) == weylwords.class_size(word)


class TestHelp:
    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["--help"], "usage: weylwords [-h]"),
            (["check", "-h"], "usage: weylwords check [-h] u v"),
        ],
    )
    def test_help_goes_to_the_given_stdout(self, capsys, argv, usage):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage) and out.endswith("\n")
        assert capsys.readouterr() == ("", "")
        assert run(argv) == 0
        assert capsys.readouterr() == (out, "")


class TestOutputBudget:
    def test_conversion_wording_is_not_a_budget_error(self, monkeypatch):
        message = "Exceeds the limit (4300 digits) for integer string conversion"

        def broken(word):
            raise ValueError(message)

        monkeypatch.setattr("weylwords.cli.canonical_form", broken)
        code, out, err = invoke(["canon", "DU"])
        assert (code, out, err) == (4, "", f"internal error: ValueError: {message}\n")

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_exact_digit_boundary(self, monkeypatch, fmt):
        # total_classes(20572) has 4,301 digits
        monkeypatch.setattr(cli, "MAX_OUTPUT_DIGITS", 4301)
        code, out, err = invoke([f"--format={fmt}", "count", "20572"])
        assert (code, err) == (0, "")
        monkeypatch.setattr(cli, "MAX_OUTPUT_DIGITS", 4300)
        code, out, err = invoke([f"--format={fmt}", "count", "20572"])
        assert (code, out) == (3, "")
        budget = "MAX_OUTPUT_DIGITS = 4300 decimal digits"
        assert err == f"resource limit: result exceeds the output budget ({budget})\n"

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_refused_from_the_bit_length_before_conversion(self, monkeypatch, fmt):
        def no_conversion(*args):
            raise AssertionError("converted an integer that is over the budget")

        monkeypatch.setattr(cli, "MAX_OUTPUT_DIGITS", 5000)
        monkeypatch.setattr(cli, "_big_decimal", no_conversion)
        code, out, err = invoke([f"--format={fmt}", "count", "30000"])  # 6,271 digits
        assert (code, out) == (3, "")
        assert err.startswith("resource limit: result exceeds the output budget")

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_run_leaves_the_interpreter_digit_limit_alone(self, monkeypatch, fmt):
        def forbidden(limit):
            raise AssertionError("run changed the interpreter's digit limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", forbidden)
        code, out, err = invoke([f"--format={fmt}", "count", "30000"])
        assert (code, err) == (0, "")
        assert len(out) > 6271


class TestDecimalRenderer:
    """``cli._decimal`` writes exactly what ``str`` writes, on both of its paths."""

    def test_every_bit_length(self, monkeypatch):
        rng = random.Random(5000)
        values = [0, 1, -1] + [rng.getrandbits(b) | 1 << (b - 1) for b in range(1, 5001)]
        with_str = [cli._decimal(v) for v in values]
        monkeypatch.setattr(cli, "_STR_BITS", 200)  # force the split path from 201 bits up
        assert [cli._decimal(v) for v in values] == with_str == [str(v) for v in values]
        assert [cli._decimal(-v) for v in values[3:]] == [str(-v) for v in values[3:]]

    def test_powers_of_ten_around_the_thresholds(self, monkeypatch):
        # 10^3010 has 10,000 bits, the str() threshold; 10^60 has 200 bits
        for k, str_bits in [(3010, cli._STR_BITS), (60, 200), (19, 64), (120, 64)]:
            monkeypatch.setattr(cli, "_STR_BITS", str_bits)
            for j in range(k - 3, k + 4):
                for v in (10**j - 1, 10**j, 10**j + 1):
                    with _no_digit_limit():
                        assert cli._decimal(v) == str(v) and cli._decimal(-v) == str(-v)

    def test_fractions(self):
        fractions = [Fraction(-3, 4), Fraction(5), Fraction(0), Fraction(1, 2)]
        assert [cli._decimal(f) for f in fractions] == ["-3/4", "5", "0", "1/2"]
        big = Fraction(-(10**6000) - 7, 3**4000)
        with _no_digit_limit():
            assert cli._decimal(big) == str(big)

    def test_seeded_large_ints(self):
        rng = random.Random(100000)
        for digits in (4301, 10**4, 3 * 10**4, 10**5):
            v = rng.randrange(10 ** (digits - 1), 10**digits)
            text = cli._decimal(v)
            with _no_digit_limit():
                assert text == str(v)

    def test_json_writer_matches_json_dumps(self):
        payload = {"a": [1, -2, [3, {"b": None}]], "t": True, "f": False, "s": "é\"\n"}
        payload.update(e=[], d={}, w=["DU", ""])
        assert cli._to_json(payload) == json.dumps(payload)
        big = {"value": 7**20000, "row": [-(3**9000), 0]}
        with _no_digit_limit():
            assert cli._to_json(big) == json.dumps(big)
