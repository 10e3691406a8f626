"""Command-line surface: verdicts, exit codes, golden output, JSON schema."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import weylwords
from weylwords import cli, total_classes
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

    def test_deep_rewrite_crash_exits_4(self):
        # On these 160-letter words the deformed rewriter recurses past the
        # interpreter's limit; the crash must not read as the verdict
        # DIFFERENT (exit 1).
        prefix = "D" * 76 + "U" * 76
        argv = ["downup-check", prefix + "DUUDUDUD", prefix + "UDDUUDUD", "--params=1,0,1"]
        result = _python("-m", "weylwords.cli", *argv)
        assert result.returncode == 4
        assert result.stdout == ""
        assert result.stderr.startswith("internal error: RecursionError: ")
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
