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
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from fractions import Fraction

from . import enumeration, percolation
from .downup import DownUpParams, du_equivalent, du_normal_order
from .equivalence import canonical_form, equivalent
from .errors import DomainError, ParseError, ResourceLimitError
from .rewrite import Move, class_size, equivalence_class
from .weyl import ferrers_board, navon_expand, rook_equivalent, rook_numbers, tensor_equivalent
from .words import parse_word

_VERDICTS = {True: "EQUIVALENT", False: "DIFFERENT"}

# Most decimal digits of one printed integer; a longer result exits 3, refused
# from its bit length before conversion.  Conversion is quasi-linear: 10^6
# digits take about 0.5 s (CPython 3.11, 2-vCPU Xeon), against 18 s for str().
MAX_OUTPUT_DIGITS = 10**6
_STR_BITS = 10_000  # below this str() is fast and within the interpreter's digit limit


class _ParserExit(Exception):
    """Help (exit 0, text for stdout) or a usage error (exit 2, text for stderr)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParserExit(2, f"error: {message}\n{self.format_usage().rstrip()}\n")

    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())


def _decimal(x) -> str:
    """Decimal text of an int or Fraction, exactly as ``str`` writes it.

    The budget is checked from the bit length before any conversion (an
    integer of b bits has more than (b - 1)·log10 2 digits; 0.301029995
    rounds log10 2 down), and exactly after it.  Past ``_STR_BITS`` the integer is split into binary halves
    that are recombined as ``Decimal`` values at full precision, with the
    powers 2^w cached: quasi-linear where ``str`` is quadratic.
    """
    if isinstance(x, Fraction):
        num = _decimal(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"
    bits = x.bit_length()
    if (bits - 1) * 301029995 // 10**9 < MAX_OUTPUT_DIGITS:
        text = str(abs(x)) if bits <= _STR_BITS else _big_decimal(abs(x), bits)
        if len(text) <= MAX_OUTPUT_DIGITS:
            return "-" + text if x < 0 else text
    budget = f"MAX_OUTPUT_DIGITS = {MAX_OUTPUT_DIGITS} decimal digits"
    raise ResourceLimitError(f"result exceeds the output budget ({budget})")


def _big_decimal(n: int, bits: int) -> str:
    powers = {}

    def power(w):  # 2**w
        if w not in powers:
            powers[w] = Decimal(1 << w) if w <= _STR_BITS else power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(n, w):  # 0 <= n < 2**w
        if w <= _STR_BITS:
            return Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(hi, w - half) * power(half) + convert(n - (hi << half), half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        return str(convert(n, bits))


def _row(values) -> str:
    return " ".join(map(_decimal, values))


def _to_json(value) -> str:
    """``json.dumps(value)`` byte for byte, with every int through ``_decimal``
    and every Fraction as its ``_decimal`` string."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_to_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list) and not all(isinstance(v, str) for v in value):
        return "[" + ", ".join(map(_to_json, value)) + "]"
    if isinstance(value, Fraction):
        return f'"{_decimal(value)}"'
    if isinstance(value, int) and not isinstance(value, bool):
        return _decimal(value)
    return json.dumps(value)  # strings, booleans, None, lists of strings


def _verdict(payload: dict):
    return payload.get("equivalent", payload.get("rook_equivalent"))


def _plain(p: dict) -> list[str]:
    """The plain-text lines of a payload."""
    command, verdict = p["command"], _verdict(p)
    if verdict is not None:
        return [_VERDICTS[verdict]]
    if command == "canon":
        return [p["canonical"]]
    if command in ("class", "size"):
        return [_decimal(p["size"]), *p.get("members", ())]
    if command == "expand":
        return [
            f"U^{t['u_power']} D^{t['d_power']} : {_decimal(t['coefficient'])}" for t in p["terms"]
        ]
    if command == "downup":
        return [f"{t['word'] or '1'} : {_decimal(t['coefficient'])}" for t in p["terms"]] or ["0"]
    if command == "rook":
        return [f"columns: {_row(p['col_heights'])}".rstrip(), f"rook: {_row(p['rook_numbers'])}"]
    if command == "count":
        return [_row(p["row"]) if "row" in p else _decimal(p["value"])]
    if command in ("perc", "perc-site"):
        return [_row(p["coefficients"])]
    lines = ["a(n,k):", *(f"  n={n}: {_row(row)}" for n, row in enumerate(p["classes"]))]
    lines.append(f"totals: {_row(p['totals'])}")
    for c, rows in p["cdyck"].items():
        lines.append(f"a_{c}(n,k) with row sums:")
        lines += [f"  n={n}: {_row(row)} | {_decimal(sum(row))}" for n, row in enumerate(rows, 1)]
    return lines


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


# Handlers get the namespace with its word operands already parsed and
# return the JSON payload; ``run`` renders it in either format.


def _cmd_check(ns):
    return {"command": "check", "u": ns.u, "v": ns.v, "equivalent": equivalent(ns.u, ns.v)}


def _cmd_canon(ns):
    return {"command": "canon", "word": ns.word, "canonical": canonical_form(ns.word)}


def _cmd_class(ns):
    cls = equivalence_class(ns.word, Move(ns.moves), cap=ns.cap)
    members = sorted(cls.members)
    payload = {
        "command": "class", "word": ns.word, "moves": ns.moves,
        "size": len(members), "representative": cls.representative,
    }
    if ns.list:
        payload["members"] = members
    return payload


def _cmd_size(ns):
    return {"command": "size", "word": ns.word, "size": class_size(ns.word)}


def _cmd_expand(ns):
    terms = navon_expand(ns.word).sorted_terms()
    rows = [{"u_power": j, "d_power": i, "coefficient": c} for (j, i), c in terms]
    return {"command": "expand", "word": ns.word, "terms": rows}


def _cmd_rook(ns):
    board = ferrers_board(ns.word)
    numbers = rook_numbers(board, min(board.num_columns, board.num_rows))
    heights = list(board.col_heights)
    return {"command": "rook", "word": ns.word, "col_heights": heights, "rook_numbers": numbers}


def _cmd_rookcheck(ns):
    verdict = rook_equivalent(ns.u, ns.v)
    return {"command": "rookcheck", "u": ns.u, "v": ns.v, "rook_equivalent": verdict}


def _cmd_tensor(ns):
    pairs = _parse_pairs(ns.pairs)
    verdict = tensor_equivalent(pairs)
    return {"command": "tensor", "pairs": [list(pair) for pair in pairs], "equivalent": verdict}


def _cmd_count(ns):
    """Single values by default (the total for bare ``count n``, one entry
    with ``count n k``); ``--brute`` with no k shows the oracle's whole row."""
    n, k = ns.n, ns.k
    c = None if ns.c is None else _parse_fraction(ns.c)
    payload = {"command": "count", "n": n, "k": k, "c": c}
    if ns.brute:
        row = enumeration.brute_force_class_counts(n, c)
        if c is not None and c >= 1 and c.denominator == 1:
            row = row[: n // (int(c) + 1) + 1]
        if k is None:
            return {**payload, "row": row}
        if not 0 <= k < len(row):
            raise DomainError(f"k={k} is outside the row for n={n}")
        return {**payload, "value": row[k]}
    if c is not None and c.denominator != 1:
        raise DomainError(
            f"closed-form counts need integer c >= 1, got {c}; use --brute for rational c"
        )
    ci = None if c is None else int(c)
    if ci is not None:
        enumeration._check_c(ci)
    if k is None and ci is None:
        value = enumeration.total_classes(n)
    elif k is None:
        value = enumeration.total_classes_cdyck(n, ci)
    elif ci is None:
        value = enumeration.count_classes(n, k)
    elif k > n // (ci + 1):
        raise DomainError(f"k={k} is outside the row for n={n}, c={ci}")
    else:
        value = enumeration.count_classes_cdyck(n, k, ci)
    return {**payload, "value": value}


def _cmd_table(ns):
    max_n = ns.max_n
    if max_n < 0:
        raise DomainError(f"table size must be nonnegative, got {max_n}")
    classes = [[enumeration.count_classes(n, k) for k in range(n + 1)] for n in range(max_n + 1)]
    totals = [enumeration.total_classes(n) for n in range(max_n + 1)]
    cdyck = {
        str(c): [
            [enumeration.count_classes_cdyck(n, k, c) for k in range(n // (c + 1) + 1)]
            for n in range(1, max_n + 1)
        ]
        for c in (1, 2)
    }
    return {
        "command": "table", "max_n": max_n, "classes": classes, "totals": totals, "cdyck": cdyck,
    }


def _cmd_perc(ns):
    coeffs = percolation.mean_size_series(ns.order, wall=ns.wall)
    return {"command": "perc", "order": ns.order, "wall": ns.wall, "coefficients": coeffs}


def _cmd_perc_site(ns):
    coeffs = percolation.wet_probability(ns.t, ns.x, ns.order, wall=ns.wall)
    return {
        "command": "perc-site", "t": ns.t, "x": ns.x, "order": ns.order, "wall": ns.wall,
        "coefficients": coeffs,
    }


def _cmd_downup(ns):
    params = _parse_params(ns.params)
    terms = du_normal_order(ns.word, params).sorted_terms()
    rows = [{"word": w, "coefficient": c} for w, c in terms]
    return {"command": "downup", "word": ns.word, "params": list(params), "terms": rows}


def _cmd_downup_check(ns):
    params = _parse_params(ns.params)
    verdict = du_equivalent(ns.u, ns.v, params)
    return {
        "command": "downup-check", "u": ns.u, "v": ns.v, "params": list(params),
        "equivalent": verdict,
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="weylwords", description=__doc__)
    parser.add_argument(
        "--format", choices=("plain", "json"), default="plain", help="output format"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, *words):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, _subparser=p, _words=words)
        for word in words:
            p.add_argument(word)
        return p

    add("check", _cmd_check, "decide equivalence of two words", "u", "v")
    add("canon", _cmd_canon, "canonical form of a word", "word")

    p = add("class", _cmd_class, "materialize an equivalence class by closure", "word")
    p.add_argument("--moves", choices=("bal", "flip", "irr"), default="bal")
    p.add_argument("--cap", type=int, default=10**7)
    p.add_argument("--list", action="store_true", help="also print the sorted members")

    add("size", _cmd_size, "closed-form size of a word's class", "word")
    add("expand", _cmd_expand, "normal-ordered expansion of a word", "word")
    add("rook", _cmd_rook, "staircase board and rook numbers of a word", "word")
    add("rookcheck", _cmd_rookcheck, "decide rook equivalence of two words", "u", "v")

    p = add("tensor", _cmd_tensor, "componentwise equivalence of word pairs")
    p.add_argument("pairs", help="pairs like 'DUUD,UDDU;UD,UD'")

    p = add("count", _cmd_count, "class counts by length and number of D's")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument(
        "--c", default=None, help="prefix-condition constant (integer, or rational with --brute)"
    )
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

    p = add("downup", _cmd_downup, "normal form in the deformed algebra", "word")
    p.add_argument("--params", required=True, help="alpha,beta,gamma as rationals")

    p = add("downup-check", _cmd_downup_check, "equality check in the deformed algebra", "u", "v")
    p.add_argument("--params", required=True)

    return parser


def run(argv: list[str], stdout=None, stderr=None) -> int:
    """Execute one CLI invocation and return its exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        ns = _build_parser().parse_args(argv)
        try:
            for name in ns._words:  # the one place word operands are parsed
                setattr(ns, name, parse_word(getattr(ns, name)))
            payload = ns.handler(ns)
        except (ParseError, DomainError) as exc:
            ns._subparser.error(str(exc))
        if ns.format == "json":
            text = _to_json(payload) + "\n"
        else:
            text = "".join(f"{line}\n" for line in _plain(payload))
    except _ParserExit as exc:
        (out if exc.code == 0 else err).write(str(exc))
        return exc.code
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=err)
        return 3
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=err)
        return 4
    out.write(text)
    return 1 if _verdict(payload) is False else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
