"""Budget refusals: one function in ``errors.py`` builds every
``ResourceLimitError`` of the package, and its message names the budget,
the budget's value and unit, and one number, and stays short whatever
the input."""

import io
import random
import re
from pathlib import Path

import pytest

from weylwords import (
    ResourceLimitError,
    brute_force_class_counts,
    class_size,
    cli,
    column_states,
    downup,
    du_normal_order,
    equivalence_class,
    mean_size_series,
    rewrite,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "weylwords"

# One budget message: <operation> exceeds the <kind> budget (<NAME> = <value> <unit>); <progress> <n>
SHAPE = re.compile(
    r"[a-z -]+ exceeds the [a-z]+ budget \((\w+) = ([0-9.e]+) [a-z ]+\);"
    r" (reached|asked for|asked for at least) ([0-9.e]+)"
)


def _refusal(call):
    with pytest.raises(ResourceLimitError) as info:
        call()
    return info.value


def _long_word(n=100_000):
    rng = random.Random(n)
    return "".join(rng.choice("DU") for _ in range(n))


class TestOneRefusalPath:
    def test_only_errors_py_constructs_the_error(self):
        builders = [path.name for path in SRC.glob("*.py") if "ResourceLimitError(" in path.read_text()]
        assert builders == ["errors.py"]

    @pytest.mark.parametrize(
        "call, budget, limit, count",
        [
            (lambda: cli._decimal(1 << 4_000_000), "MAX_OUTPUT_DIGITS", 10**6, 1_204_120),
            (lambda: mean_size_series(99), "MAX_ORDER", 14, 99),
            (lambda: column_states(0, 15), "MAX_ORDER", 14, 15),
            (lambda: brute_force_class_counts(21), "MAX_BRUTE_LENGTH", 20, 21),
            (lambda: equivalence_class("UDDUUDDU", cap=5), "cap", 5, 6),
        ],
        ids=["output", "order", "column_order", "brute_length", "cap"],
    )
    def test_every_budget_names_itself_its_value_and_a_number(self, call, budget, limit, count):
        error = _refusal(call)
        assert (error.budget, error.limit, error.partial_count) == (budget, limit, count)
        match = SHAPE.fullmatch(str(error))
        assert match, str(error)
        assert match.group(1, 2, 4) == (budget, str(limit), str(count))

    def test_the_rewrite_budget(self, monkeypatch):
        monkeypatch.setattr(downup, "MAX_REWRITES", 10)
        error = _refusal(lambda: du_normal_order("D" * 6 + "U" * 6, (1, 1, 1)))
        assert (error.budget, error.limit, error.partial_count) == ("MAX_REWRITES", 10, 10)
        assert SHAPE.fullmatch(str(error)).group(3) == "reached"

    def test_closure_refuses_as_it_grows_too(self, monkeypatch):
        # With the closed-form size hidden, the closure's own check refuses.
        monkeypatch.setattr(rewrite, "class_size", lambda word: 1)
        error = _refusal(lambda: equivalence_class("UDDUUDDU", cap=3))
        assert error.partial_count == 4
        assert str(error) == (
            "equivalence class exceeds the member budget (cap = 3 members); reached 4"
        )

    def test_an_error_built_directly_has_no_budget(self):
        error = ResourceLimitError("elsewhere", partial_count=3)
        assert (error.budget, error.limit, error.partial_count) == (None, None, 3)


class TestShortMessages:
    """No refusal quotes an operand, and huge numbers are shown in short form."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: equivalence_class(_long_word(), cap=1),
            lambda: equivalence_class(_long_word(), cap=10**4400),
            lambda: mean_size_series(10**5000),
            lambda: brute_force_class_counts(10**5000),
            lambda: cli._decimal(-(1 << 40_000_000)),
        ],
        ids=["cap_1", "huge_cap", "huge_order", "huge_length", "huge_output"],
    )
    def test_at_most_200_characters(self, call):
        error = _refusal(call)
        assert len(str(error)) <= 200
        assert SHAPE.fullmatch(str(error)), str(error)

    def test_huge_numbers_keep_their_exact_value_in_the_error(self):
        word = _long_word()
        error = _refusal(lambda: equivalence_class(word, cap=10**4400))
        assert error.partial_count == class_size(word)
        assert error.limit == 10**4400
        assert str(error).endswith("(cap = 1.0e4400 members); asked for 1.8e29128")

    def test_cli_class_with_a_long_operand(self):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["class", _long_word(), "--cap=1"], out, err) == 3
        assert out.getvalue() == ""
        line = err.getvalue()
        assert line.startswith("resource limit: equivalence class exceeds the member budget")
        assert line.endswith("\n") and line.count("\n") == 1
        assert len(line.removeprefix("resource limit: ").rstrip("\n")) <= 200


class TestCapBeforeClosure:
    def test_no_move_is_made_when_the_class_is_too_large(self, monkeypatch):
        def no_moves(word, move):
            raise AssertionError("closure started over the cap")

        monkeypatch.setattr(rewrite, "neighbors", no_moves)
        word = _long_word(20_000)
        error = _refusal(lambda: equivalence_class(word, cap=10))
        assert error.partial_count == class_size(word)

    def test_a_class_at_the_cap_is_materialized(self):
        assert len(equivalence_class("UDDUUDDU", cap=6).members) == 6
