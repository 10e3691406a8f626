"""Command-line interface.

One subcommand per library operation, with deterministic plain-text output
(stable term and member ordering) or ``--format=json``.  Exit codes follow
the pipeline convention: 0 for success or a true verdict, 1 for a false
verdict, 2 for usage errors, 3 for exceeded resource budgets, 4 for an
internal error (a bug, never an answer).  An exit status of 1 from
``check`` and friends is a negative answer, not a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import enumeration, percolation
from .downup import DownUpParams, du_equivalent, du_normal_order
from .equivalence import canonical_form, equivalent
from .errors import DomainError, ParseError, ResourceLimitError
from .rewrite import Move, class_size, equivalence_class
from .weyl import ferrers_board, navon_expand, rook_equivalent, rook_numbers, tensor_equivalent
from .words import parse_word

_VERDICTS = {True: "EQUIVALENT", False: "DIFFERENT"}


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc


def _parse_params(text: str) -> DownUpParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"--params expects three comma-separated rationals, got {text!r}")
    return DownUpParams.of(*(_parse_fraction(part) for part in parts))


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise DomainError(f"each pair must be 'U,V', got {chunk!r}")
        pairs.append((parse_word(parts[0].strip()), parse_word(parts[1].strip())))
    return pairs


def _cmd_check(ns):
    u, v = parse_word(ns.u), parse_word(ns.v)
    verdict = equivalent(u, v)
    payload = {"command": "check", "u": u, "v": v, "equivalent": verdict}
    return (0 if verdict else 1), [_VERDICTS[verdict]], payload


def _cmd_canon(ns):
    word = parse_word(ns.word)
    canonical = canonical_form(word)
    payload = {"command": "canon", "word": word, "canonical": canonical}
    return 0, [canonical], payload


def _cmd_class(ns):
    word = parse_word(ns.word)
    cls = equivalence_class(word, Move(ns.moves), cap=ns.cap)
    members = sorted(cls.members)
    lines = [str(len(members))]
    payload = {
        "command": "class",
        "word": word,
        "moves": ns.moves,
        "size": len(members),
        "representative": cls.representative,
    }
    if ns.list:
        lines.extend(members)
        payload["members"] = members
    return 0, lines, payload


def _cmd_size(ns):
    word = parse_word(ns.word)
    size = class_size(word)
    payload = {"command": "size", "word": word, "size": size}
    return 0, [str(size)], payload


def _cmd_expand(ns):
    word = parse_word(ns.word)
    element = navon_expand(word)
    lines = []
    terms = []
    for (j, i), c in element.sorted_terms():
        lines.append(f"U^{j} D^{i} : {c}")
        terms.append({"u_power": j, "d_power": i, "coefficient": c})
    payload = {"command": "expand", "word": word, "terms": terms}
    return 0, lines, payload


def _cmd_rook(ns):
    word = parse_word(ns.word)
    board = ferrers_board(word)
    kmax = min(board.num_columns, board.num_rows)
    numbers = rook_numbers(board, kmax)
    heights = list(board.col_heights)
    lines = [
        ("columns: " + " ".join(str(h) for h in heights)).rstrip(),
        "rook: " + " ".join(str(r) for r in numbers),
    ]
    payload = {
        "command": "rook",
        "word": word,
        "col_heights": heights,
        "rook_numbers": numbers,
    }
    return 0, lines, payload


def _cmd_rookcheck(ns):
    u, v = parse_word(ns.u), parse_word(ns.v)
    verdict = rook_equivalent(u, v)
    payload = {"command": "rookcheck", "u": u, "v": v, "rook_equivalent": verdict}
    return (0 if verdict else 1), [_VERDICTS[verdict]], payload


def _cmd_tensor(ns):
    pairs = _parse_pairs(ns.pairs)
    verdict = tensor_equivalent(pairs)
    payload = {
        "command": "tensor",
        "pairs": [list(pair) for pair in pairs],
        "equivalent": verdict,
    }
    return (0 if verdict else 1), [_VERDICTS[verdict]], payload


def _int_or_none(value):
    return None if value is None else int(value)


def _cmd_count(ns):
    """Single values by default (the total for bare ``count n``, one entry
    with ``count n k``); ``--brute`` with no k shows the oracle's whole row."""
    n = ns.n
    k = _int_or_none(ns.k)
    c = None if ns.c is None else _parse_fraction(ns.c)
    c_json = None if c is None else str(c)
    if ns.brute:
        row = enumeration.brute_force_class_counts(n, c)
        if c is not None and c >= 1 and c.denominator == 1:
            row = row[: n // (int(c) + 1) + 1]
        if k is None:
            payload = {"command": "count", "n": n, "k": None, "c": c_json, "row": row}
            return 0, [" ".join(str(v) for v in row)], payload
        if not 0 <= k < len(row):
            raise DomainError(f"k={k} is outside the row for n={n}")
        payload = {"command": "count", "n": n, "k": k, "c": c_json, "value": row[k]}
        return 0, [str(row[k])], payload
    if c is not None and c.denominator != 1:
        raise DomainError(
            f"closed-form counts need integer c >= 1, got {c};"
            " use --brute for rational c"
        )
    ci = None if c is None else int(c)
    if k is None:
        value = (
            enumeration.total_classes(n)
            if ci is None
            else enumeration.total_classes_cdyck(n, ci)
        )
    else:
        if ci is None:
            value = enumeration.count_classes(n, k)
        else:
            if k > n // (ci + 1):
                raise DomainError(f"k={k} is outside the row for n={n}, c={ci}")
            value = enumeration.count_classes_cdyck(n, k, ci)
    payload = {"command": "count", "n": n, "k": k, "c": c_json, "value": value}
    return 0, [str(value)], payload


def _cmd_table(ns):
    max_n = ns.max_n
    if max_n < 0:
        raise DomainError(f"table size must be nonnegative, got {max_n}")
    lines = ["a(n,k):"]
    unrestricted = []
    for n in range(max_n + 1):
        row = [enumeration.count_classes(n, k) for k in range(n + 1)]
        unrestricted.append(row)
        lines.append(f"  n={n}: " + " ".join(str(v) for v in row))
    totals = [enumeration.total_classes(n) for n in range(max_n + 1)]
    lines.append("totals: " + " ".join(str(v) for v in totals))
    cdyck = {}
    for c in (1, 2):
        lines.append(f"a_{c}(n,k) with row sums:")
        rows = []
        for n in range(1, max_n + 1):
            row = [
                enumeration.count_classes_cdyck(n, k, c)
                for k in range(n // (c + 1) + 1)
            ]
            rows.append(row)
            lines.append(
                f"  n={n}: " + " ".join(str(v) for v in row) + f" | {sum(row)}"
            )
        cdyck[str(c)] = rows
    payload = {
        "command": "table",
        "max_n": max_n,
        "classes": unrestricted,
        "totals": totals,
        "cdyck": cdyck,
    }
    return 0, lines, payload


def _cmd_perc(ns):
    coeffs = percolation.mean_size_series(ns.order, wall=ns.wall)
    payload = {
        "command": "perc",
        "order": ns.order,
        "wall": ns.wall,
        "coefficients": coeffs,
    }
    return 0, [" ".join(str(c) for c in coeffs)], payload


def _cmd_perc_site(ns):
    coeffs = percolation.wet_probability(ns.t, ns.x, ns.order, wall=ns.wall)
    payload = {
        "command": "perc-site",
        "t": ns.t,
        "x": ns.x,
        "order": ns.order,
        "wall": ns.wall,
        "coefficients": coeffs,
    }
    return 0, [" ".join(str(c) for c in coeffs)], payload


def _cmd_downup(ns):
    word = parse_word(ns.word)
    params = _parse_params(ns.params)
    element = du_normal_order(word, params)
    lines = []
    terms = []
    for w, c in element.sorted_terms():
        lines.append(f"{w or '1'} : {c}")
        terms.append({"word": w, "coefficient": str(c)})
    payload = {
        "command": "downup",
        "word": word,
        "params": [str(p) for p in params],
        "terms": terms,
    }
    return 0, lines, payload


def _cmd_downup_check(ns):
    u, v = parse_word(ns.u), parse_word(ns.v)
    params = _parse_params(ns.params)
    verdict = du_equivalent(u, v, params)
    payload = {
        "command": "downup-check",
        "u": u,
        "v": v,
        "params": [str(p) for p in params],
        "equivalent": verdict,
    }
    return (0 if verdict else 1), [_VERDICTS[verdict]], payload


def _build_parser() -> _Parser:
    parser = _Parser(prog="weylwords", description=__doc__)
    parser.add_argument(
        "--format", choices=("plain", "json"), default="plain", help="output format"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, _subparser=p)
        return p

    p = add("check", _cmd_check, "decide equivalence of two words")
    p.add_argument("u")
    p.add_argument("v")

    p = add("canon", _cmd_canon, "canonical form of a word")
    p.add_argument("word")

    p = add("class", _cmd_class, "materialize an equivalence class by closure")
    p.add_argument("word")
    p.add_argument("--moves", choices=("bal", "flip", "irr"), default="bal")
    p.add_argument("--cap", type=int, default=10**7)
    p.add_argument("--list", action="store_true", help="also print the sorted members")

    p = add("size", _cmd_size, "closed-form size of a word's class")
    p.add_argument("word")

    p = add("expand", _cmd_expand, "normal-ordered expansion of a word")
    p.add_argument("word")

    p = add("rook", _cmd_rook, "staircase board and rook numbers of a word")
    p.add_argument("word")

    p = add("rookcheck", _cmd_rookcheck, "decide rook equivalence of two words")
    p.add_argument("u")
    p.add_argument("v")

    p = add("tensor", _cmd_tensor, "componentwise equivalence of word pairs")
    p.add_argument("pairs", help="pairs like 'DUUD,UDDU;UD,UD'")

    p = add("count", _cmd_count, "class counts by length and number of D's")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--c", default=None, help="prefix-condition constant (integer, or rational with --brute)")
    p.add_argument("--brute", action="store_true", help="use the exhaustive oracle")

    p = add("table", _cmd_table, "print the class-count tables up to a length")
    p.add_argument("max_n", type=int)

    p = add("perc", _cmd_perc, "mean cluster size series coefficients")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--wall", action="store_true")

    p = add("perc-site", _cmd_perc_site, "site wetting probability polynomial")
    p.add_argument("t", type=int)
    p.add_argument("x", type=int)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--wall", action="store_true")

    p = add("downup", _cmd_downup, "normal form in the deformed algebra")
    p.add_argument("word")
    p.add_argument("--params", required=True, help="alpha,beta,gamma as rationals")

    p = add("downup-check", _cmd_downup_check, "equality check in the deformed algebra")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--params", required=True)

    return parser


def run(argv: list[str], stdout=None, stderr=None) -> int:
    """Execute one CLI invocation and return its exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        print(exc.usage.rstrip(), file=err)
        return 2
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    try:
        code, lines, payload = ns.handler(ns)
        if ns.format == "json":
            lines = [json.dumps(payload)]
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=err)
        usage = getattr(ns, "_subparser", parser).format_usage().rstrip()
        print(usage, file=err)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=err)
        return 3
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=err)
        return 4
    for line in lines:
        print(line, file=out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
