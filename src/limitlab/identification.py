"""Finite-horizon convergence and identification checks.

All limit notions are answered relative to an explicit horizon: a stabilized
report is evidence about the limit, never proof. Verdicts against a fate's
declared platonic language are three-valued because language equality may be
undecided.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .core import Datum, Experience, Fate, Schedule, TextStrategy, is_pause
# Unused here, but bench/tests checks that the span tracer restores identification.make_fate.
from .core import make_fate  # noqa: F401
from .families import Equality, LanguageFamily, LanguageRepr
from .scientists import Scientist
from .schemas import Verdict, change_verdict

__all__ = [
    "ConvergenceReport",
    "ExperimentRow",
    "ExperimentTable",
    "IdentificationVerdict",
    "Outcome",
    "TraceStep",
    "bc_converges_at",
    "converges_at",
    "identifies_text",
    "identify_class",
    "transformation_trace",
]


class Outcome(Enum):
    IDENTIFIED = "Identified"
    NOT_IDENTIFIED = "NotIdentified"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ConvergenceReport:
    """Hypothesis trajectory of a scientist along one fate, up to a horizon.

    ``trace[n]`` is the index conjectured on the length-n prefix, for n from 0
    through the horizon. ``stabilized`` means no change happened at the
    horizon itself, so the final index held through a non-empty tail.
    """

    horizon: int
    trace: tuple
    last_change_step: int | None
    stabilized: bool
    stabilized_index: int | None

    @property
    def change_count(self) -> int:
        return sum(
            1 for n in range(1, len(self.trace)) if self.trace[n] != self.trace[n - 1]
        )

    @property
    def stable_since(self) -> int | None:
        """First step of the final constant run, when stabilized."""
        if not self.stabilized:
            return None
        return 0 if self.last_change_step is None else self.last_change_step


@dataclass(frozen=True)
class IdentificationVerdict:
    outcome: Outcome
    reason: str | None
    report: ConvergenceReport
    semantic_settle_step: int | None = None

    @property
    def identified(self) -> bool:
        return self.outcome is Outcome.IDENTIFIED

    def label(self) -> str:
        return _label(self.outcome, self.reason)


def _label(outcome: Outcome, reason: str | None) -> str:
    return outcome.value if reason is None else f"{outcome.value}({reason})"


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


def _walk(scientist: Scientist, data: tuple) -> Iterator[int]:
    """The conjecture on each prefix ``data[:n]``, for n from 0 through ``len(data)``.

    The one prefix replay: every limit check reads its hypothesis sequence here.
    """
    conjecture = scientist.conjecture
    return (conjecture(Experience(data[:n])) for n in range(len(data) + 1))


def _settle(indices: Iterable[int]) -> tuple[int | None, int | None]:
    """The last step whose index differs from its predecessor's (None if none), and the settled one.

    The settled index is the final index, or None if it changed at the last step:
    a walk stabilized iff no change happened at the horizon itself.
    """
    indices = iter(indices)
    final = next(indices)
    last_change = None
    n = 0
    for n, index in enumerate(indices, 1):
        if index != final:
            last_change, final = n, index
    return last_change, None if last_change == n else final


def converges_at(scientist: Scientist, fate: Fate, horizon: int) -> ConvergenceReport:
    """Evaluate the scientist on every prefix up to the horizon."""
    _check_horizon(horizon)
    trace = tuple(_walk(scientist, fate.prefix(horizon).items))
    last_change, settled = _settle(trace)
    return ConvergenceReport(
        horizon=horizon,
        trace=trace,
        last_change_step=last_change,
        stabilized=settled is not None,
        stabilized_index=settled,
    )


def _require_platonic(fate: Fate) -> LanguageRepr:
    if fate.platonic is None:
        raise ValueError("fate carries no declared platonic language")
    return fate.platonic


def _final(family: LanguageFamily, lang: LanguageRepr, settled: int | None) -> Equality | None:
    """The settled index's comparison with ``lang``, or None if the conjecture did not stabilize."""
    return None if settled is None else family.compare_index_with(settled, lang)


def _verdict(final: Equality | None) -> tuple[Outcome, str | None]:
    """The outcome and reason from the final index's comparison with the platonic language.

    ``final`` is None when the conjecture did not stabilize.
    """
    if final is None:
        return Outcome.NOT_IDENTIFIED, "no-stabilization"
    if final is Equality.EQUAL:
        return Outcome.IDENTIFIED, None
    if final is Equality.NOT_EQUAL:
        return Outcome.NOT_IDENTIFIED, "wrong-language"
    return Outcome.INDETERMINATE, "equality-unknown"


def identifies_text(
    scientist: Scientist, fate: Fate, horizon: int
) -> IdentificationVerdict:
    """Identified iff the conjecture stabilized on an index denoting the platonic language."""
    platonic = _require_platonic(fate)
    report = converges_at(scientist, fate, horizon)
    final = _final(scientist.family, platonic, report.stabilized_index)
    return IdentificationVerdict(*_verdict(final), report)


def bc_converges_at(
    scientist: Scientist, fate: Fate, horizon: int
) -> IdentificationVerdict:
    """Behaviourally correct check: the denoted language must settle, indices may churn.

    Identified iff some step starts an unbroken run of provably-equal
    comparisons against the platonic language that reaches the horizon. The
    final index decides the outcome; an EQUAL one is followed back while each
    index denotes what its successor does (decode-free for tail indices).
    """
    platonic = _require_platonic(fate)
    report = converges_at(scientist, fate, horizon)
    family, trace = scientist.family, report.trace
    final = family.compare_index_with(trace[horizon], platonic)
    settle = horizon
    while final is Equality.EQUAL and settle:
        same = family.semantic_equals(trace[settle - 1], trace[settle])
        if same is Equality.UNKNOWN:
            same = family.compare_index_with(trace[settle - 1], platonic)
        if same is not Equality.EQUAL:
            break
        settle -= 1
    outcome, reason = _verdict(final)
    identified = outcome is Outcome.IDENTIFIED
    return IdentificationVerdict(outcome, reason, report, settle if identified else None)


@dataclass(frozen=True)
class ExperimentRow:
    language: str
    strategy: str
    seed: int
    horizon: int
    verdict: str
    last_change_step: int | None


@dataclass(frozen=True)
class ExperimentTable:
    """One identification verdict per (language, strategy, seed) cell."""

    rows: tuple
    horizon: int

    def summary(self) -> str:
        if not self.rows:
            return "vacuously identifiable (empty class)"
        done = sum(1 for r in self.rows if r.verdict == "Identified")
        status = "identified" if done == len(self.rows) else "not identified"
        return (
            f"class {status} at horizon {self.horizon}: "
            f"{done}/{len(self.rows)} cells Identified"
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        columns = [f.name for f in fields(ExperimentRow)]
        writer.writerow(columns)
        writer.writerows([getattr(r, c) for c in columns] for r in self.rows)
        return out.getvalue()


def identify_class(
    scientist: Scientist,
    languages: Iterable[LanguageRepr],
    strategies: Sequence[TextStrategy],
    seeds: Sequence[int],
    horizon: int,
) -> ExperimentTable:
    """The identifies_text verdict of every (language, strategy, seed) cell.

    Rows are ordered by the input iteration order, never by completion order:
    languages, then strategies, then seeds. A text is its strategy's schedule
    relabelled, and a schedule sees no language, so each (strategy, seed)
    schedule is drawn once, up front, and relabelled for every language.

    Cells that share a text share a walk. A key (``Schedule.key``) depends on
    a language's size alone, so each schedule is reduced once per distinct
    size, languages are visited size by size, and each language's rows go to
    its input-order slot. Within one language, two schedules with the same key
    give the same text up to the horizon; a scientist is a deterministic map
    from experiences to indices, so the two cells have the same hypothesis
    sequence and the same row. Each distinct text is walked once, keeping only
    its verdict and last change step, never its trace. The memo ends with its
    language, and nothing is kept between calls. A finite language of at most
    128 members takes one byte per position of key, and an infinite one's keys
    are the schedules themselves. Memory is the schedules, at 8 bytes per
    position, plus one size's distinct keys. An empty class is vacuous, but a
    class with no strategy or no seed has no text to run and raises ValueError.
    """
    _check_horizon(horizon)
    languages = list(languages)
    if not strategies or not seeds:
        raise ValueError("identify_class needs at least one strategy and one seed")
    if not languages:
        return ExperimentTable(rows=(), horizon=horizon)
    texts = [
        (str(strategy), seed, Schedule.draw(strategy, seed, horizon))
        for strategy in strategies
        for seed in seeds
    ]
    by_size: dict = {}
    for slot, lang in enumerate(languages):
        by_size.setdefault(lang.size, []).append(slot)
    family = scientist.family
    rows: list = [None] * len(languages)
    for size, slots in by_size.items():
        interned: dict = {}  # equal keys share one object, so memory is the distinct keys
        keys = [interned.setdefault(key, key) for key in (s.key(size) for *_, s in texts)]
        for slot in slots:
            lang = languages[slot]
            described, text = lang.describe(), Schedule.reader(lang)
            walked: dict = {}
            for key in keys:
                if key not in walked:
                    last_change, settled = _settle(_walk(scientist, text(key)))
                    walked[key] = (_label(*_verdict(_final(family, lang, settled))), last_change)
            rows[slot] = [
                ExperimentRow(described, label, seed, horizon, *walked[key])
                for (label, seed, _), key in zip(texts, keys)
            ]
    return ExperimentTable(rows=tuple(chain.from_iterable(rows)), horizon=horizon)


@dataclass(frozen=True)
class TraceStep:
    """One step of a schema sweep along a fate.

    The schema flags rate the step's datum as a candidate appended to the
    prefix seen so far; pause steps carry null flags. ``hyp_changed`` is raw
    index movement and is defined on pause steps too.
    """

    step: int
    datum: Datum
    hyp_index: int
    hyp_changed: bool
    novel: int | None
    transformative: int | None
    semantically_transformative: Verdict | None


def transformation_trace(
    scientist: Scientist, fate: Fate, horizon: int
) -> tuple:
    """Sweep novelty and transformativeness along the fate: one ``TraceStep`` per step 0..horizon.

    Each prefix is conjectured once. The step's datum is the artefact appended
    to ``data[:n]``, so its flags follow from the adjacent conjectures
    ``indices[n]`` and ``indices[n + 1]`` and from the artefacts seen so far,
    exactly as the schemas would compute them on ``Situation(scientist,
    data[:n])``.
    """
    _check_horizon(horizon)
    data = fate.prefix(horizon + 1).items
    indices = tuple(_walk(scientist, data))
    family = scientist.family
    seen: set = set()
    steps = []
    for n in range(horizon + 1):
        datum = data[n]
        before, after = indices[n], indices[n + 1]
        if is_pause(datum):
            novel = transformative = semantic = None
        else:
            novel = int(datum not in seen)
            seen.add(datum)
            transformative = int(before != after)
            semantic = change_verdict(family.semantic_equals(before, after))
        steps.append(
            TraceStep(
                step=n,
                datum=datum,
                hyp_index=before,
                hyp_changed=before != after,
                novel=novel,
                transformative=transformative,
                semantically_transformative=semantic,
            )
        )
    return tuple(steps)
