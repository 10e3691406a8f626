"""The package's exported names, and the names the benchmark calls.

The brute-force and recursive references back the tests only, so they
live in ``conftest.py`` and the package does not export them.  The
benchmark under ``bench/`` traces the functions named in its
``spans.LAYERS`` and calls a few oracles with pinned arguments; those
names and calls must keep working until the benchmark stops using them.
"""

import importlib
import runpy
from fractions import Fraction
from pathlib import Path

import weylwords
from weylwords import downup, enumeration, weyl

REFERENCES = [
    "actions_agree",
    "count_classes_by_recursion",
    "count_classes_cdyck_by_recursion",
    "generating_function_table",
    "rook_numbers_brute",
]

BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_all_is_sorted_without_duplicates():
    names = weylwords.__all__
    assert names == sorted(set(names))


def test_every_exported_name_resolves():
    for name in weylwords.__all__:
        assert getattr(weylwords, name) is not None, name


def test_references_are_not_exported():
    for name in REFERENCES:
        assert name not in weylwords.__all__
        assert not hasattr(weylwords, name)


def test_every_function_the_benchmark_traces_resolves():
    # Run from its file, only to read LAYERS; the tracer is not installed.
    layers = runpy.run_path(str(BENCH_SPANS))["LAYERS"]
    assert layers
    for layer, (module, functions, _work) in layers.items():
        mod = importlib.import_module(f"weylwords.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), f"{layer}: weylwords.{module}.{name}"


def test_the_benchmark_oracle_calls_still_bind():
    # The calls of bench/clicalls.py and bench/crossval.py, on small inputs.
    params = tuple(map(Fraction, (1, 2, 3)))
    assert downup.du_normal_order("DDUU", params, strategy="rightmost") == downup.du_normal_order("DDUU", params)
    row = enumeration.cdyck_class_counts_by_normal_form(8, Fraction(3, 2))
    assert row == enumeration.brute_force_class_counts(8, Fraction(3, 2))
    board = weyl.ferrers_board("UDUDDU")
    assert sum(weyl.matrix_rank_counts(board, 3, 4)) == 3 ** sum(board.col_heights)
