"""The package's exported names.

The brute-force and recursive references back the tests only, so they
live in ``conftest.py`` and the package does not export them.
"""

import weylwords

REFERENCES = [
    "actions_agree",
    "count_classes_by_recursion",
    "count_classes_cdyck_by_recursion",
    "generating_function_table",
    "rook_numbers_brute",
]


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
