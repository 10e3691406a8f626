"""Workload ``cli``: one ``python -m weylwords.cli`` process per request.

A request's cost here is mostly interpreter start plus package import,
which no in-process workload sees.  The calls cover every subcommand,
both ``--format`` values, usage errors (exit 2) and budget refusals
(exit 3).  Each call's stdout and exit code are checked against the
README's contract, with expected values from an independent route: a
verdict known by construction, the benchmark's own oracles, or a
different library function than the one the command uses.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import weylwords.cli
from weylwords import downup, enumeration, percolation, rewrite, weyl

import oracles
from jobs import Job, child_env, commuted_partner, job_rng, near_miss, random_word, word_with_cells

NAME = "cli"
ROOT = Path(__file__).resolve().parent.parent
CALL_TIMEOUT_S = 60

_VERDICT = {True: "EQUIVALENT", False: "DIFFERENT"}
_ENV = child_env(ROOT)


def spawn(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI process to completion: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "weylwords.cli", *argv],
        capture_output=True, text=True, env=_ENV, cwd=ROOT, timeout=CALL_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv: list[str]) -> int:
    return weylwords.cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())


# Expected outcomes ---------------------------------------------------------

def _plain(lines):
    return {"code": 0, "text": "".join(f"{line}\n" for line in lines)}


def _json(payload, code=0):
    return {"code": code, "json": payload}


def _verdict(command, field, payload, verdict, fmt):
    code = 0 if verdict else 1
    if fmt == "json":
        return _json({"command": command, **payload, field: verdict}, code)
    return {"code": code, "text": _VERDICT[verdict] + "\n"}


def _word(rng, length, lower_share=0.3):
    word = random_word(rng, length)
    return word, (word.lower() if rng.random() < lower_share else word)


def _pair(rng, length):
    u = random_word(rng, length)
    same = rng.random() < 0.5
    v = commuted_partner(rng, u, moves=2) if same else near_miss(u)
    return u, v, same


def _closure_word(rng, length):
    while True:
        word = random_word(rng, length)
        if 2 <= oracles.class_size(word) <= 400:
            return word


def expect(outcome):
    """Check against an exact outcome, or a function computing it at check time."""

    def check(code, out, err):
        return _compare(outcome() if callable(outcome) else outcome, code, out, err)

    return check


def _validate(validator):
    """Check a successful call's stdout with ``validator(out) -> reason | None``."""

    def check(code, out, err):
        if code != 0:
            return f"exit code {code}, expected 0 ({err.strip()[:80]})"
        return validator(out)

    return check


# Slot builders: each returns (argv, check), where check(code, out, err)
# runs untimed and returns None or the reason the call was wrong.

def _check(rng, fmt):
    u, v, same = _pair(rng, rng.randint(100, 5000))
    return ["--format", fmt, "check", u.lower(), v], expect(lambda: _verdict("check", "equivalent", {"u": u, "v": v}, same, fmt))


def _canon(rng, fmt):
    word, text = _word(rng, rng.randint(100, 5000))

    def expected():
        canon = oracles.canonical(word)
        return _json({"command": "canon", "word": word, "canonical": canon}) if fmt == "json" else _plain([canon])

    return ["--format", fmt, "canon", text], expect(expected)


def _class(rng, spec):
    move, listed, fmt = spec
    word = _closure_word(rng, rng.randint(12, 18))
    argv = ["--format", fmt, "class", word, f"--moves={move}"] + (["--list"] if listed else [])

    def check(out):
        size = oracles.class_size(word)
        canon = oracles.canonical(word)
        if fmt == "json":
            got = json.loads(out)
            members = got.pop("members", None)
            want = {"command": "class", "word": word, "moves": move, "size": size, "representative": canon}
            if got != want:
                return f"class payload {got} != {want}"
        else:
            lines = out.splitlines()
            members = lines[1:] if listed else None
            if lines[:1] != [str(size)]:
                return f"class size line {lines[:1]} != {size}"
        if listed:
            sig = oracles.signature(word)
            if members != sorted(set(members)) or len(members) != size:
                return "member list is not the sorted class"
            if any(oracles.signature(m) != sig for m in members):
                return "member list holds a word outside the class"
        return None

    return argv, _validate(check)


def _size(rng, fmt):
    word, text = _word(rng, rng.randint(12, 18))

    def expected():
        size = len(rewrite.equivalence_class(word).members)
        return _json({"command": "size", "word": word, "size": size}) if fmt == "json" else _plain([size])

    return ["--format", fmt, "size", text], expect(expected)


def _expand(rng, fmt):
    word, text = _word(rng, rng.randint(20, 200))

    def expected():
        terms = weyl.normal_order(word).sorted_terms()
        if fmt == "json":
            rows = [{"u_power": j, "d_power": i, "coefficient": c} for (j, i), c in terms]
            return _json({"command": "expand", "word": word, "terms": rows})
        return _plain(f"U^{j} D^{i} : {c}" for (j, i), c in terms)

    return ["--format", fmt, "expand", text], expect(expected)


def _rook(rng, fmt):
    word, text = _word(rng, rng.randint(20, 200))

    def expected():
        heights = oracles.board_heights(word)
        kmax = min(len(heights), max(heights, default=0))
        m, n = word.count("U"), word.count("D")
        element = weyl.normal_order(word)
        numbers = [element.coefficient(m - k, n - k) for k in range(kmax + 1)]
        if fmt == "json":
            return _json({"command": "rook", "word": word, "col_heights": heights, "rook_numbers": numbers})
        return _plain([("columns: " + " ".join(map(str, heights))).rstrip(), "rook: " + " ".join(map(str, numbers))])

    return ["--format", fmt, "rook", text], expect(expected)


def _rookcheck(rng, fmt):
    u, v, same = _pair(rng, rng.randint(20, 300))
    return ["--format", fmt, "rookcheck", u, v], expect(lambda: _verdict("rookcheck", "rook_equivalent", {"u": u, "v": v}, same, fmt))


def _tensor(rng, fmt):
    pairs = [_pair(rng, rng.randint(4, 60)) for _ in range(rng.randint(2, 4))]
    text = ";".join(f"{u},{v}" for u, v, _ in pairs)
    verdict = all(same for _, _, same in pairs)
    payload = {"pairs": [[u, v] for u, v, _ in pairs]}
    return ["--format", fmt, "tensor", text], expect(lambda: _verdict("tensor", "equivalent", payload, verdict, fmt))


def _count(rng, variant):
    n = rng.randint(8, 60)
    k = None if variant == "total" else rng.randint(0, n if variant == "entry" else n // 3)
    c = "2" if variant == "cdyck" else None
    argv = [str(n)] + ([] if k is None else [str(k)]) + ([] if c is None else [f"--c={c}"])

    def expected():
        if variant == "total":
            value = oracles.total_classes(n, oracles.class_count_table(n))
        elif variant == "entry":
            value = oracles.class_count(n, k)
        else:
            value = oracles.cdyck_table(n, 2)[n, k]
        return _json({"command": "count", "n": n, "k": k, "c": c, "value": value})

    return ["--format", "json", "count", *argv], expect(expected)


def _count_brute(rng, rational):
    n = rng.randint(8, 14)
    if not rational:
        def expected():
            table = oracles.class_count_table(n)
            return _plain([" ".join(str(table[n, k]) for k in range(n + 1))])

        return ["count", str(n), "--brute"], expect(expected)

    def expected_rational():
        row = enumeration.cdyck_class_counts_by_normal_form(n, Fraction(3, 2))
        return _json({"command": "count", "n": n, "k": None, "c": "3/2", "row": row})

    return ["--format", "json", "count", str(n), "--brute", "--c=3/2"], expect(expected_rational)


def _table(rng, fmt):
    max_n = rng.randint(5, 12)

    def expected():
        table = oracles.class_count_table(max_n)
        classes = [[table[n, k] for k in range(n + 1)] for n in range(max_n + 1)]
        totals = [sum(row) for row in classes]
        cdyck = {}
        for c in (1, 2):
            ct = oracles.cdyck_table(max_n, c)
            cdyck[str(c)] = [[ct[n, k] for k in range(n // (c + 1) + 1)] for n in range(1, max_n + 1)]
        if fmt == "json":
            return _json({"command": "table", "max_n": max_n, "classes": classes, "totals": totals, "cdyck": cdyck})
        lines = ["a(n,k):"] + [f"  n={n}: " + " ".join(map(str, row)) for n, row in enumerate(classes)]
        lines.append("totals: " + " ".join(map(str, totals)))
        for c in (1, 2):
            lines.append(f"a_{c}(n,k) with row sums:")
            lines += [f"  n={n}: " + " ".join(map(str, row)) + f" | {sum(row)}" for n, row in enumerate(cdyck[str(c)], 1)]
        return _plain(lines)

    return ["--format", fmt, "table", str(max_n)], expect(expected)


def _perc(rng, spec):
    wall, fmt = spec
    order = rng.randint(9, 14)
    argv = ["--format", fmt, "perc", f"--order={order}"] + (["--wall"] if wall else [])

    def check(out):
        coeffs = json.loads(out)["coefficients"] if fmt == "json" else [int(x) for x in out.split()]
        if wall:
            table = oracles.cdyck_table(8, 1)
            prefix = [oracles.cdyck_total(n, 1, table) for n in range(9)]
        else:
            table = oracles.class_count_table(11)
            prefix = [oracles.total_classes(n, table) for n in range(12)]
        if coeffs[: len(prefix)] != prefix:
            return "series coefficients differ from the class totals"
        if coeffs != percolation.mean_size_series(order, wall):
            return "CLI series differs from the library's"
        if fmt == "json" and json.loads(out) != {"command": "perc", "order": order, "wall": wall, "coefficients": coeffs}:
            return "perc payload fields differ"
        return None

    return argv, _validate(check)


def _perc_site(rng, spec):
    wall, fmt = spec
    order = rng.randint(6, 14)
    t = rng.randint(0, order)
    x = rng.choice(oracles.sites(t, wall))
    argv = ["--format", fmt, "perc-site", str(t), str(x), f"--order={order}"] + (["--wall"] if wall else [])

    def check(out):
        coeffs = json.loads(out)["coefficients"] if fmt == "json" else [int(v) for v in out.split()]
        if coeffs != percolation.wet_probability(t, x, order, wall):
            return "CLI site series differs from the library's"
        if fmt == "json":
            want = {"command": "perc-site", "t": t, "x": x, "order": order, "wall": wall, "coefficients": coeffs}
            if json.loads(out) != want:
                return "perc-site payload fields differ"
        return oracles.check_site_series(coeffs, t, x, order, wall)

    return argv, _validate(check)


_PARAMS = [("1", "0", "1"), ("1/2", "1/2", "3/2"), ("2", "-1", "0"), ("0", "1", "0"), ("1", "-1", "1")]


def _downup(rng, fmt):
    params = rng.choice(_PARAMS)
    word = word_with_cells(rng, rng.randint(8, 14), rng.randint(4, 12))

    def expected():
        form = downup.du_normal_order(word, tuple(map(Fraction, params)), strategy="rightmost")
        terms = form.sorted_terms()
        if fmt == "json":
            rows = [{"word": w, "coefficient": str(c)} for w, c in terms]
            return _json({"command": "downup", "word": word, "params": list(params), "terms": rows})
        return _plain(f"{w or '1'} : {c}" for w, c in terms)

    return ["--format", fmt, "downup", word, "--params=" + ",".join(params)], expect(expected)


def _downup_check(rng, fmt):
    params = rng.choice(_PARAMS[:3])  # on the Weyl line
    u = word_with_cells(rng, rng.randint(10, 16), rng.randint(6, 16))
    same = rng.random() < 0.5
    v = commuted_partner(rng, u, moves=2) if same else near_miss(u, 0.5)
    payload = {"u": u, "v": v, "params": list(params)}
    argv = ["--format", fmt, "downup-check", u, v, "--params=" + ",".join(params)]
    return argv, expect(lambda: _verdict("downup-check", "equivalent", payload, same, fmt))


def _usage_error(rng, variant):
    word = random_word(rng, rng.randint(4, 12))
    argv = {
        "letter": ["check", word[:2] + "X" + word[2:], word],
        "range": ["count", "5", "9"],
        "missing": ["perc"],
        "params": ["downup", word, "--params=1,2"],
    }[variant]
    return argv, expect({"code": 2, "stderr": "error:"})


def _budget(rng, variant):
    word = _closure_word(rng, 14)
    cap = oracles.class_size(word) - 1
    argv = {
        "order": ["perc", f"--order={rng.randint(15, 30)}"],
        "brute": ["count", str(rng.randint(21, 40)), "--brute"],
        "cap": ["class", word, f"--cap={cap}"],
    }[variant]
    return argv, expect({"code": 3, "stderr": "resource limit:"})


_BUILDERS = {
    "check": _check, "canon": _canon, "class": _class, "size": _size, "expand": _expand,
    "rook": _rook, "rookcheck": _rookcheck, "tensor": _tensor, "count": _count,
    "count-brute": _count_brute, "table": _table, "perc": _perc, "perc-site": _perc_site,
    "downup": _downup, "downup-check": _downup_check, "usage": _usage_error, "budget": _budget,
}

SLOTS = (
    [("check", "plain"), ("check", "json"), ("canon", "plain"), ("class", ("bal", False, "plain"))]
    + [("class", ("irr", True, "json")), ("size", "json"), ("expand", "plain"), ("rook", "json")]
    + [("rookcheck", "plain"), ("tensor", "json"), ("count", "total"), ("count", "entry"), ("count", "cdyck")]
    + [("count-brute", False), ("count-brute", True), ("table", "plain"), ("perc", (True, "json"))]
    + [("perc-site", (False, "plain")), ("downup", "json"), ("downup-check", "plain")]
    + [("usage", v) for v in ("letter", "range", "missing", "params")]
    + [("budget", v) for v in ("order", "brute", "cap")]
)
WARMUP = [("check", "plain"), ("usage", "letter")]


def _compare(want, code, out, err):
    if code != want["code"]:
        return f"exit code {code}, expected {want['code']}"
    if "stderr" in want:
        if out or not err.startswith(want["stderr"]):
            return f"stderr {err[:60]!r} should start with {want['stderr']!r} and stdout be empty"
        if code == 2 and "usage: weylwords" not in err:
            return "usage error without the usage string"
        return None
    if "json" in want:
        if out.count("\n") != 1 or not out.endswith("\n"):
            return "JSON output is not a single line"
        got = json.loads(out)
        return None if got == want["json"] else f"payload {out[:80]!r} differs from the contract"
    return None if out == want["text"] else f"stdout {out[:80]!r} differs from {want['text'][:80]!r}"


def make_job(seed: int, cycle, slot: int, spec=None) -> Job:
    kind, arg = spec or SLOTS[slot]
    rng = job_rng(NAME, seed, cycle, slot)
    argv, check = _BUILDERS[kind](rng, arg)
    return Job(f"{NAME}.{kind}", {"argv": argv}, lambda: spawn(argv), lambda r: check(*r), lambda: run_in_process(argv))


def warmup_jobs(seed: int) -> list[Job]:
    return [make_job(seed, "warmup", i, spec) for i, spec in enumerate(WARMUP)]
