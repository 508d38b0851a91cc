"""Shared test fixtures: experience builders, hand-built evens texts, and
replay-from-empty reference semantics for differential tests of fast paths."""

from __future__ import annotations

import random
from itertools import count, islice
from typing import Callable, Iterator

from hypothesis import strategies as st

from limitlab import (
    PAUSE,
    SCIENTISTS,
    AnnotationFamily,
    Canonical,
    Equality,
    Experience,
    ExperimentRow,
    ExperimentTable,
    Fate,
    IdentificationVerdict,
    LanguageFamily,
    LanguageRepr,
    Outcome,
    Padded,
    RepetitionHeavy,
    Scientist,
    ShuffledWindow,
    Situation,
    TraceStep,
    Universe,
    build_scientist,
    canonical_experience,
    compare_languages,
    converges_at,
    decimal_universe,
    decode_finite_set,
    derived_rng,
    encode_finite_set,
    evens_language,
    fate_from_function,
    identifies_text,
    is_pause,
    make_fate,
    novelty,
    odds_language,
    pair,
    registry_oracle,
    resolve_language,
    semantic_transformativeness,
    transformativeness,
    unpair,
)
from limitlab.sampling import MAX_EXTRA, PAUSE_RATE
from limitlab.theorems import TheoremCheckError

U = decimal_universe()


def standard_family(oracle: bool = True) -> LanguageFamily:
    return LanguageFamily(
        U,
        (evens_language(U), odds_language(U)),
        registry_oracle() if oracle else None,
    )


def exp(spec: str, universe: Universe = U) -> Experience:
    """Build an experience from a token string like "2 4 # 5"."""
    tokens = spec.split()
    return Experience(
        tuple(PAUSE if t == "#" else universe.parse(t) for t in tokens)
    )


def art(rank: int, universe: Universe = U):
    return universe.artefact(rank)


def members(lang: LanguageRepr) -> frozenset:
    """A finite language's members, listed by its enumeration."""
    return frozenset(map(lang.element, range(lang.size)))


def experiences(max_rank=9, max_len=10):
    """Hypothesis experiences over ranks up to ``max_rank``, pauses included."""
    return st.lists(
        st.one_of(st.none(), st.integers(0, max_rank)), max_size=max_len
    ).map(
        lambda xs: Experience(tuple(PAUSE if x is None else U.artefact(x) for x in xs))
    )


def plain_evens_text(universe: Universe = U) -> Fate:
    """2, 4, 6, 8, 10, ..."""
    return fate_from_function(
        lambda n: universe.artefact(2 * (n + 1)),
        platonic=evens_language(universe),
    )


def padded_repeats_evens_text(universe: Universe = U) -> Fate:
    """#, 2, #, 4, 4, #, 6, 6, 6, #, ...: group j holds a pause then j copies of 2j."""

    def at(n: int):
        j = 1
        seen = 0
        while seen + j + 1 <= n:
            seen += j + 1
            j += 1
        offset = n - seen
        return PAUSE if offset == 0 else universe.artefact(2 * j)

    return fate_from_function(at, platonic=evens_language(universe))


def pair_swapped_evens_text(universe: Universe = U) -> Fate:
    """#, 2, 6, 4, 10, 8, 14, 12, ...: a pause, then 2, then descending pairs."""

    def at(n: int):
        if n == 0:
            return PAUSE
        if n == 1:
            return universe.artefact(2)
        j = (n - 2) // 2 + 1
        return universe.artefact(4 * j + 2 if (n - 2) % 2 == 0 else 4 * j)

    return fate_from_function(at, platonic=evens_language(universe))


# Every content scientist: the memorizer, visionaries of a special and of a
# finite language, enumeration with its default order and with orders that mix
# specials and finite entries, and the set-driven wrap of every registered base.
CONTENT_SPECS = [
    "memorizer",
    "dumb_visionary",
    "dumb_visionary:odds",
    "dumb_visionary:{2,4}",
    "enumeration",
    {"name": "enumeration", "class_order": ["{2}", "evens", "{2,4}"]},
    {"name": "enumeration", "class_order": ["{}", "odds", "{1,3}", 0]},
] + [{"name": "set_driven", "base": name} for name in sorted(SCIENTISTS)]


# ---------------------------------------------------------------------------
# replay-from-empty references


def reference_transformation_trace(
    scientist: Scientist, fate: Fate, horizon: int
) -> tuple:
    """Every flag from the schemas themselves, on a fresh situation per step."""
    data = fate.prefix(horizon + 1).items
    steps = []
    for n in range(horizon + 1):
        datum = data[n]
        sigma = Experience(data[:n])
        before = scientist.conjecture(sigma)
        after = scientist.conjecture(Experience(data[: n + 1]))
        if is_pause(datum):
            flags = (None, None, None)
        else:
            situation = Situation(scientist, sigma)
            flags = (
                novelty(datum, situation),
                transformativeness(datum, situation),
                semantic_transformativeness(datum, situation),
            )
        steps.append(TraceStep(n, datum, before, before != after, *flags))
    return tuple(steps)


def reference_identifies_text(
    scientist: Scientist, fate: Fate, horizon: int
) -> IdentificationVerdict:
    """Identification as first written: its own mapping of the final comparison."""
    report = converges_at(scientist, fate, horizon)
    if not report.stabilized:
        return IdentificationVerdict(Outcome.NOT_IDENTIFIED, "no-stabilization", report)
    verdict = reference_compare_index_with(scientist.family, report.stabilized_index, fate.platonic)
    if verdict is Equality.EQUAL:
        return IdentificationVerdict(Outcome.IDENTIFIED, None, report)
    if verdict is Equality.NOT_EQUAL:
        return IdentificationVerdict(Outcome.NOT_IDENTIFIED, "wrong-language", report)
    return IdentificationVerdict(Outcome.INDETERMINATE, "equality-unknown", report)


def reference_bc_converges_at(
    scientist: Scientist, fate: Fate, horizon: int
) -> IdentificationVerdict:
    """Behaviourally correct identification as first written: compare every index."""
    report = converges_at(scientist, fate, horizon)
    comparisons = [
        reference_compare_index_with(scientist.family, p, fate.platonic) for p in report.trace
    ]
    settle = horizon + 1
    for n in range(horizon, -1, -1):
        if comparisons[n] is not Equality.EQUAL:
            break
        settle = n
    if settle <= horizon:
        return IdentificationVerdict(
            Outcome.IDENTIFIED, None, report, semantic_settle_step=settle
        )
    if comparisons[-1] is Equality.UNKNOWN:
        return IdentificationVerdict(Outcome.INDETERMINATE, "equality-unknown", report)
    return IdentificationVerdict(Outcome.NOT_IDENTIFIED, "wrong-language", report)


def reference_identify_class(
    scientist: Scientist, languages, strategies, seeds, horizon: int
) -> ExperimentTable:
    """Class experiments as first written: one ``make_fate`` per cell, language-major."""
    rows = []
    for lang in languages:
        for strategy in strategies:
            for seed in seeds:
                verdict = identifies_text(scientist, make_fate(lang, strategy, seed), horizon)
                rows.append(
                    ExperimentRow(
                        language=lang.describe(),
                        strategy=str(strategy),
                        seed=seed,
                        horizon=horizon,
                        verdict=verdict.label(),
                        last_change_step=verdict.report.last_change_step,
                    )
                )
    return ExperimentTable(rows=tuple(rows), horizon=horizon)


def reference_finite_language(universe: Universe, artefacts) -> LanguageRepr:
    """A finite language as first written: a member set and its rank-ordered tuple."""
    members = frozenset(artefacts)
    ordered = tuple(sorted(members, key=lambda a: a.rank))
    return LanguageRepr(
        contains=lambda a: a in members,
        element=lambda k: ordered[k] if 0 <= k < len(ordered) else None,
        code=encode_finite_set(members),
    )


def _reference_element_supply(lang: LanguageRepr) -> Iterator:
    """Infinite canonical element stream; empty for the empty language.

    Nonempty finite languages cycle so the stream never runs dry and every
    element keeps reappearing, as in any fair infinite text.
    """
    size = lang.size
    if size == 0:
        return iter(())
    if size is None:
        return map(lang.element, count())
    return (lang.element(k % size) for k in count())


def _reference_canonical(lang: LanguageRepr, strategy: Canonical, seed: int) -> Iterator:
    yield from _reference_element_supply(lang)
    while True:
        yield PAUSE


def _reference_padded(lang: LanguageRepr, strategy: Padded, seed: int) -> Iterator:
    supply = _reference_element_supply(lang)
    block_size = 8
    pauses_per_block = int(strategy.pause_density * block_size)
    block = 0
    while True:
        rng = derived_rng("padded", seed, block)
        pause_slots = set(rng.sample(range(block_size), pauses_per_block))
        for slot in range(block_size):
            if slot in pause_slots:
                yield PAUSE
            else:
                nxt = next(supply, None)
                yield PAUSE if nxt is None else nxt
        block += 1


def _reference_shuffled_window(lang: LanguageRepr, strategy: ShuffledWindow, seed: int) -> Iterator:
    supply = _reference_element_supply(lang)
    block = 0
    while True:
        chunk = list(islice(supply, strategy.window))
        if not chunk:
            while True:
                yield PAUSE
        rng = derived_rng("window", seed, block)
        rng.shuffle(chunk)
        yield from chunk
        block += 1


def _reference_repetition_heavy(lang: LanguageRepr, strategy: RepetitionHeavy, seed: int) -> Iterator:
    k = 0
    for a in _reference_element_supply(lang):
        rng = derived_rng("repeat", seed, k)
        reps = 1 + (rng.random() < strategy.repeat_rate) + (rng.random() < strategy.repeat_rate)
        for _ in range(reps):
            yield a
        k += 1
    while True:
        yield PAUSE


# Each strategy's text as first written, by strategy name.
REFERENCE_TEXTS = {
    "canonical": _reference_canonical,
    "padded": _reference_padded,
    "shuffled-window": _reference_shuffled_window,
    "repetition-heavy": _reference_repetition_heavy,
}


def reference_text(lang: LanguageRepr, strategy, seed: int) -> Iterator:
    """A strategy's text of ``lang`` as first written: the strategy streams the language's elements."""
    return REFERENCE_TEXTS[strategy.name](lang, strategy, seed)


def reference_compare_languages(
    a: LanguageRepr, b: LanguageRepr, oracle=None
) -> Equality:
    """Equality as first written: finite languages compare their decoded member sets."""
    if a is b:
        return Equality.EQUAL
    if a.size is not None and b.size is not None:
        if members(a) == members(b):
            return Equality.EQUAL
        return Equality.NOT_EQUAL
    if (a.size is None) != (b.size is None):
        return Equality.NOT_EQUAL
    return compare_languages(a, b, oracle)  # two infinite languages: labels and oracle


def reference_semantic_equals(family, p: int, q: int) -> Equality:
    """Decode both indices and compare the languages."""
    if p == q:
        return Equality.EQUAL
    return reference_compare_languages(
        family.language_of(p), family.language_of(q), family.oracle
    )


def reference_compare_index_with(family, p: int, target: LanguageRepr) -> Equality:
    return reference_compare_languages(family.language_of(p), target, family.oracle)


def reference_memorizer(fam: LanguageFamily, sigma: Experience) -> int:
    """The memorizer as first written: code the content of the whole experience."""
    return fam.finite_index(sigma.content())


def reference_conjecture(spec, fam: LanguageFamily) -> Callable[[Experience], int]:
    """Replay-from-empty conjecture of a registry spec, built from the references alone.

    ``spec`` is a registry name, a ``dumb_visionary:<language>`` string or a
    dict spec, as in ``build_scientist``, or a user ``Scientist``, which
    replays already.
    """
    if isinstance(spec, Scientist):
        return spec.conjecture
    if isinstance(spec, str):
        name, _, language = spec.partition(":")
        params = {"name": name}
        if language:
            if name != "dumb_visionary":
                raise ValueError(f"no reference for the string spec {spec!r}; use a dict")
            params["language"] = language
    else:
        params = dict(spec)
    name = params.pop("name")
    if name == "memorizer":
        return lambda sigma: reference_memorizer(fam, sigma)
    if name == "last_novel":
        return lambda sigma: reference_last_novel(fam, sigma)
    if name == "ever_changing":
        return len
    if name == "dumb_visionary":
        language = params.get("language")
        target = fam.specials[0] if language is None else resolve_language(language, fam.universe)
        h = fam.min_index_for(target)
        return lambda sigma: h
    if name == "enumeration":
        specs = params.get("class_order")
        if specs is None:
            order = (fam.finite_index(()),) + tuple(range(fam.offset))
        else:
            order = tuple(
                fam.min_index_for(resolve_language(s, fam.universe)) if isinstance(s, str) else s
                for s in specs
            )

        def first_fit(sigma: Experience) -> int:
            seen = sigma.content()
            for p in order:
                if all(fam.language_of(p).contains(a) for a in seen):
                    return p
            return reference_memorizer(fam, sigma)

        return first_fit
    if name == "set_driven":
        inner = reference_conjecture(params.get("base", "last_novel"), fam)
        return lambda sigma: inner(canonical_experience(sigma.content()))
    if name == "confidence_annotating":
        base = Scientist("reference", fam, reference_conjecture(params.get("base", "memorizer"), fam))
        initial = params.get("initial_confidence", 3)
        return lambda sigma: reference_confidence_conjecture(fam, base, initial, sigma)
    raise ValueError(f"no reference for {name!r}")


def reference_set_driven(base_spec, fam: LanguageFamily) -> Callable[[Experience], int]:
    """The set-driven wrap as first written: a fresh base re-asked on the canonical listing."""
    return lambda sigma: build_scientist(base_spec, fam).conjecture(
        canonical_experience(sigma.content())
    )


def reference_confidence_conjecture(
    fam: LanguageFamily, base: Scientist, initial: int, sigma: Experience
) -> int:
    """The confidence annotator as first written: one base decode per datum."""
    b = base.conjecture(Experience())
    c = initial
    for i, d in enumerate(sigma):
        if is_pause(d):
            continue
        if fam.language_of(b).contains(d):
            c += 1
        else:
            c -= 1
            if c == 0:
                b = base.conjecture(sigma[: i + 1])
                c = initial
    return pair(b, pair(c, len(sigma)))


def reference_last_novel(fam: LanguageFamily, sigma: Experience) -> int:
    """The last-novel scientist as first written: one scan with a seen-set."""
    seen: set = set()
    latest = None
    for d in sigma:
        if is_pause(d):
            continue
        if d not in seen:
            latest = d
            seen.add(d)
    return fam.finite_index(() if latest is None else (latest,))


def reference_set_literal(family, p: int) -> str | None:
    """One index's ``hyp_set``: decode the whole set code, sort by rank, join."""
    if isinstance(family, AnnotationFamily):
        family, p = family.base, unpair(p)[0]
    if p < family.offset:
        return None
    members = sorted(decode_finite_set(p - family.offset, family.universe), key=lambda a: a.rank)
    return "{" + ",".join(a.token for a in members) + "}"


def reference_sample_artefact(rng: random.Random, universe: Universe, max_rank: int = 7):
    """The artefact sampler as first written: one ``randint`` per artefact."""
    return universe.artefact(rng.randint(0, max_rank))


def reference_sample_experience(
    rng: random.Random, universe: Universe, max_rank: int = 7, max_len: int = 8
) -> Experience:
    """The experience sampler as first written: ``randint`` draws, one artefact built per draw."""
    n = rng.randint(0, max_len)
    return Experience(tuple(
        PAUSE if rng.random() < PAUSE_RATE else reference_sample_artefact(rng, universe, max_rank)
        for _ in range(n)
    ))


def reference_sample_same_content(rng: random.Random, sigma: Experience) -> Experience:
    """The same-content sampler as first written: ``randint`` and ``choice`` draws."""
    artefacts = sorted(sigma.content(), key=lambda a: a.rank)
    if not artefacts:
        return Experience(tuple(PAUSE for _ in range(rng.randint(0, MAX_EXTRA))))
    seq = artefacts + [rng.choice(artefacts) for _ in range(rng.randint(0, MAX_EXTRA))]
    rng.shuffle(seq)
    items: list = []
    for a in seq:
        while rng.random() < PAUSE_RATE:
            items.append(PAUSE)
        items.append(a)
    return Experience(tuple(items))


def reference_require_novel_if_transformative(scientist: Scientist, sigma: Experience, a) -> None:
    """The witness check as first written: rate transformativeness, then ask novelty."""
    s = Situation(scientist, sigma)
    if transformativeness(a, s) == 1 and novelty(a, s) != 1:
        raise TheoremCheckError(
            f"{scientist.name} transformed on non-novel {a!r} after {sigma!r}"
        )
