"""In-memory spans around the calls into each library layer.

The traced run wraps the public functions named in ``LAYERS`` wherever a
``weylwords`` module holds a reference to them, so calls from the
benchmark and calls between layers inside the library (canonical_form
calling signature, cli.run calling everything) both open a span.  A span
records its name, start, end, parent span, job id, whether it raised,
and a work count taken from its arguments or result.  Spans stay in
memory until ``write`` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# span name -> (module, functions, work count from (args, result))
LAYERS = {
    "words.parse_word": ("words", ["parse_word"], lambda a, r: len(r)),
    "equivalence.signature": ("equivalence", ["signature"], lambda a, r: len(a[0])),
    "equivalence.equivalent": ("equivalence", ["equivalent"], lambda a, r: len(a[0]) + len(a[1])),
    "equivalence.canonical_form": ("equivalence", ["canonical_form"], lambda a, r: len(a[0])),
    "rewrite.class_size": ("rewrite", ["class_size"], lambda a, r: len(a[0])),
    "rewrite.equivalence_class": ("rewrite", ["equivalence_class"], lambda a, r: len(r.members)),
    "weyl.normal_order": ("weyl", ["normal_order"], lambda a, r: len(r.terms)),
    "weyl.navon_expand": ("weyl", ["navon_expand"], lambda a, r: len(r.terms)),
    "weyl.rook": ("weyl", ["rook_numbers", "rook_equivalent"], None),
    "weyl.apply_to_monomial": ("weyl", ["apply_to_monomial"], lambda a, r: len(a[0])),
    "weyl.matrix_rank_counts": ("weyl", ["matrix_rank_counts"], lambda a, r: sum(r)),
    "enumeration.closed_form": (
        "enumeration",
        ["count_classes", "total_classes", "count_classes_cdyck", "total_classes_cdyck", "count_table"],
        None,
    ),
    "enumeration.brute": ("enumeration", ["brute_force_class_counts"], lambda a, r: 2 ** a[0]),
    "percolation.series": ("percolation", ["mean_size_series", "wet_probability"], None),
    "downup.normal_order": ("downup", ["du_normal_order"], lambda a, r: len(r.terms)),
    "downup.equivalent": ("downup", ["du_equivalent"], None),
    "cli.run": ("cli", ["run"], None),
}
MODULES = ["words", "equivalence", "rewrite", "weyl", "enumeration", "percolation", "downup", "cli"]

# Span fields, as list positions.
NAME, START, END, PARENT, JOB, FAILED, WORK = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: int | None = None  # spans open only while a job is running

    def open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.job, False, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, failed: bool) -> None:
        span[END] = perf_counter()
        span[FAILED] = failed
        self._stack.pop()

    def wrap(self, name: str, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, True)
                raise
            self.close(span, False)
            if work is not None:
                span[WORK] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference a weylwords module holds to a layer function."""
        wrapped = {}
        for name, (module, functions, work) in LAYERS.items():
            mod = importlib.import_module(f"weylwords.{module}")
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                wrapped[id(fn)] = self.wrap(name, fn, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "weylwords" or mod_name.startswith("weylwords."):
                for attr, value in list(vars(mod).items()):
                    if callable(value) and id(value) in wrapped:
                        setattr(mod, attr, wrapped[id(value)])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "failed", "work"], "spans": self.spans}, fh)


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Busy and self time, calls, failures and work per layer and per module.

    Busy time is the union of a layer's span intervals, so nested spans of
    one layer count once.  Self time is each span's duration minus what its
    children cover.  A call into a module is a span whose parent belongs to
    another module (or is the job); only those count as calls and failures.
    """
    layer_spans = [s for s in spans if s[NAME] != "job"]
    children: dict[int, list] = {}
    for s in layer_spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out: dict[str, float] = {}
    for mod in MODULES:
        mine = [(i, s) for i, s in enumerate(spans) if s[NAME] != "job" and _module(s[NAME]) == mod]
        entries = [s for _, s in mine if s[PARENT] is None or _module(spans[s[PARENT]][NAME]) != mod]
        out[f"{mod}.calls"] = len(entries)
        out[f"{mod}.failed"] = sum(1 for s in entries if s[FAILED])
        out[f"{mod}.busy_s"] = _union((s[START], s[END]) for _, s in mine)
        out[f"{mod}.self_s"] = sum(s[END] - s[START] - _union(children.get(i, ())) for i, s in mine)
    total_self = sum(out[f"{m}.self_s"] for m in MODULES)
    for mod in MODULES:
        out[f"{mod}.share_pct"] = 100 * out[f"{mod}.self_s"] / total_self if total_self else 0.0
    for name in LAYERS:
        out[f"{name}.busy_s"] = _union((s[START], s[END]) for s in layer_spans if s[NAME] == name)

    def work(name):
        return sum(s[WORK] for s in layer_spans if s[NAME] == name)

    letters = sum(
        s[WORK] for s in layer_spans
        if _module(s[NAME]) == "equivalence" and (s[PARENT] is None or _module(spans[s[PARENT]][NAME]) != "equivalence")
    )
    members = work("rewrite.equivalence_class")
    out["words.letters"] = work("words.parse_word")
    out["equivalence.ns_per_letter"] = 1e9 * out["equivalence.busy_s"] / letters if letters else 0.0
    out["rewrite.members"] = members
    out["rewrite.us_per_member"] = 1e6 * out["rewrite.equivalence_class.busy_s"] / members if members else 0.0
    out["weyl.terms"] = work("weyl.normal_order") + work("weyl.navon_expand")
    out["enumeration.brute.words"] = work("enumeration.brute")
    out["downup.terms"] = work("downup.normal_order")
    return out
