"""Span tracing of limitlab's public calls, installed from outside the package.

``Tracer.install`` swaps each traced function or method for a wrapper that
records a span (name, start, end, parent span, job id) and bumps the counters
of its layer; ``uninstall`` puts the originals back. Module-level functions are
replaced in every limitlab module that imported them, so calls between modules
are traced too. Scientists are traced by wrapping the ``conjecture`` callable
of every ``Scientist`` built while the tracer is installed.

Spans stay in memory and are written out once, at the end of a run. Self time
(a span's duration minus the time covered by its child spans) is summed per
span name as spans close.
"""

from __future__ import annotations

import gzip
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter

import limitlab
from limitlab import cli, core, families, identification, sampling, schemas, scientists, theorems

_MODULES = (limitlab, core, families, scientists, schemas, identification, theorems, sampling, cli)


def _count_content(c, args, result):
    c["core.content_calls"] += 1
    c["core.content_items"] += len(args[0].items)


def _count_prefix(c, args, result):
    c["core.fate_prefix_calls"] += 1
    c["core.fate_data"] += args[1]


def _count_decode(c, args, result):
    c["families.decode_calls"] += 1
    c["families.decode_bits"] += args[0].bit_length()


def _count_compare(c, args, result):
    c["families.compare_calls"] += 1
    c[f"families.compare_{result.name.lower()}"] += 1


def _count_conjecture(c, args, result):
    c["scientists.conjecture_calls"] += 1
    c["scientists.conjecture_items"] += len(args[0])


def _count_semantic(c, args, result):
    c["schemas.semantic_calls"] += 1
    if result == schemas.INDETERMINATE:
        c["schemas.indeterminate"] += 1


def _count_cells(c, args, result):
    c["identification.cells"] += len(result.rows)


def _count_suite(c, args, result):
    for item in result:
        c["theorems.exhaustive_cases"] += item.values.get("exhaustive_cases", 0)
        c["theorems.exhaustive_cases"] += item.values.get("swept_cases", 0)
        c["theorems.sampled_cases"] += item.values.get("sampled_cases", 0)


def _calls(counter: str):
    def count(c, args, result):
        c[counter] += 1

    return count


# (span name, owner, attribute, counter); owner is a module or a class.
TARGETS = (
    ("core.content", core.Experience, "content", _count_content),
    ("core.fate_prefix", core.Fate, "prefix", _count_prefix),
    ("core.make_fate", core, "make_fate", _calls("core.make_fate_calls")),
    ("families.decode", families, "decode_finite_set", _count_decode),
    ("families.language_of", families.LanguageFamily, "language_of",
     _calls("families.language_of_calls")),
    ("families.compare", families, "compare_languages", _count_compare),
    ("families.min_index_for", families.LanguageFamily, "min_index_for",
     _calls("families.min_index_for_calls")),
    ("schemas.novelty", schemas, "novelty", _calls("schemas.novelty_calls")),
    ("schemas.transformativeness", schemas, "transformativeness",
     _calls("schemas.transformativeness_calls")),
    ("schemas.semantic_transformativeness", schemas, "semantic_transformativeness",
     _count_semantic),
    ("identification.converges_at", identification, "converges_at",
     _calls("identification.converges_calls")),
    ("identification.identifies_text", identification, "identifies_text", None),
    ("identification.bc_converges_at", identification, "bc_converges_at",
     _calls("identification.bc_calls")),
    ("identification.identify_class", identification, "identify_class", _count_cells),
    ("identification.transformation_trace", identification, "transformation_trace",
     _calls("identification.transformation_trace_calls")),
    ("theorems.run_theorem_suite", theorems, "run_theorem_suite", _count_suite),
    ("sampling.sample_artefact", sampling, "sample_artefact", None),
    ("sampling.sample_experience", sampling, "sample_experience",
     _calls("sampling.experiences")),
    ("sampling.sample_same_content", sampling, "sample_same_content",
     _calls("sampling.experiences")),
    ("cli.main", cli, "main", _calls("cli.jobs")),
)
CONJECTURE = "scientists.conjecture"

# Per-layer self-time metrics and the span names each one sums.
SELF_TIMES = {
    "core.content_s": ("core.content",),
    "core.fate_s": ("core.fate_prefix", "core.make_fate"),
    "families.decode_s": ("families.decode",),
    "families.language_of_s": ("families.language_of",),
    "families.compare_s": ("families.compare", "families.min_index_for"),
    "scientists.conjecture_s": (CONJECTURE,),
    "schemas.s": ("schemas.novelty", "schemas.transformativeness",
                  "schemas.semantic_transformativeness"),
    "identification.s": ("identification.converges_at", "identification.identifies_text",
                         "identification.bc_converges_at", "identification.identify_class",
                         "identification.transformation_trace"),
    "theorems.s": ("theorems.run_theorem_suite",),
    "sampling.s": ("sampling.sample_artefact", "sampling.sample_experience",
                   "sampling.sample_same_content"),
    "cli.s": ("cli.main",),
}

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "core.content_calls": "count",
    "core.content_items": "count",
    "core.content_s": "s",
    "core.fate_prefix_calls": "count",
    "core.fate_data": "count",
    "core.fate_s": "s",
    "core.make_fate_calls": "count",
    "families.decode_calls": "count",
    "families.decode_bits": "bit",
    "families.decode_s": "s",
    "families.language_of_calls": "count",
    "families.language_of_s": "s",
    "families.compare_calls": "count",
    "families.compare_equal": "count",
    "families.compare_not_equal": "count",
    "families.compare_unknown": "count",
    "families.compare_decisive_ratio": "ratio",
    "families.compare_s": "s",
    "families.min_index_for_calls": "count",
    "scientists.conjecture_calls": "count",
    "scientists.conjecture_items": "count",
    "scientists.replay_ratio": "ratio",
    "scientists.conjecture_s": "s",
    "schemas.novelty_calls": "count",
    "schemas.transformativeness_calls": "count",
    "schemas.semantic_calls": "count",
    "schemas.indeterminate": "count",
    "schemas.s": "s",
    "identification.converges_calls": "count",
    "identification.transformation_trace_calls": "count",
    "identification.bc_calls": "count",
    "identification.cells": "count",
    "identification.s": "s",
    "theorems.exhaustive_cases": "count",
    "theorems.sampled_cases": "count",
    "theorems.s": "s",
    "sampling.experiences": "count",
    "sampling.s": "s",
    "cli.jobs": "count",
    "cli.stdout_bytes": "B",
    "cli.s": "s",
    "bench.tracing_overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters for the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.job = -1
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, self_s, counts = self.spans, self._stack, self.self_s, self.counts
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, start, end, parent, tracer.job)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, owner, attr, counter in TARGETS:
            if isinstance(owner, type):
                self._replace(owner, attr, self.wrap(name, vars(owner)[attr], counter))
                continue
            original = vars(owner)[attr]
            traced = self.wrap(name, original, counter)
            for module in _MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, traced)
        original_init = scientists.Scientist.__init__
        wrap = self.wrap

        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            object.__setattr__(obj, "conjecture", wrap(CONJECTURE, obj.conjecture, _count_conjecture))

        self._replace(scientists.Scientist, "__init__", init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict:
        """Every per-layer metric except the tracing overhead, as plain numbers."""
        c = self.counts
        values = {name: c[name] for name, unit in PER_LAYER.items() if unit in ("count", "bit", "B")}
        for metric, names in SELF_TIMES.items():
            values[metric] = sum(self.self_s[n] for n in names)
        values["families.compare_decisive_ratio"] = _ratio(
            c["families.compare_equal"] + c["families.compare_not_equal"],
            c["families.compare_calls"],
        )
        values["scientists.replay_ratio"] = _ratio(
            c["scientists.conjecture_items"], c["core.fate_data"]
        )
        return values

    def write(self, path: Path) -> None:
        """Write the spans as gzipped TSV, times in ns from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                out.write(
                    f"{i}\t{parent}\t{job}\t{name}\t"
                    f"{round((start - origin) * 1e9)}\t{round((end - origin) * 1e9)}\n"
                )
