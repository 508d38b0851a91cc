"""Scientists: deterministic total maps from experiences to hypothesis indices.

A scientist takes one of three forms. A content scientist is an emit over the
content code, the set code of the ranks seen: it conjectures from the content
alone, so it is set-driven by construction, a non-novel datum cannot move its
index, and a prefix walk asks it only at first occurrences. The memorizer, the
dumb visionary, the enumeration scientist and every set-driven wrap are
content scientists. A ``Fold`` is an incremental learner: a state value, a
step per datum and an emit. A replay scientist is any function of the whole
experience. Every form has a fold view (``_as_fold``): a content scientist's
state is its content code, a replay's is the data itself. The first two forms
derive ``conjecture`` through one memo of the last experience seen, so a call
on an extension steps only the new data, any other call starts from the
experience itself, and the emit is asked only when the state changed. Either
way the index is a function of the experience alone, so a scientist value can
be shared and re-invoked freely. The registry at the bottom names each builder
for configs and experiment sweeps.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, reduce
from operator import attrgetter
from typing import Callable, Sequence

from .core import PAUSE, Datum, Experience, derived_rng
from .families import (
    AnnotationFamily,
    LanguageFamily,
    LanguageRepr,
    _ranks,
    encode_finite_set,
    pair,
    resolve_language,
)
from .sampling import ranked_artefacts, sample_experience_over, sample_same_content

__all__ = [
    "SCIENTISTS",
    "Fold",
    "SampledCheck",
    "Scientist",
    "build_scientist",
    "confidence_annotating",
    "dumb_visionary",
    "enumeration_scientist",
    "ever_changing",
    "is_consistent_sampled",
    "is_set_driven_sampled",
    "last_novel",
    "memorizer",
    "set_driven_wrapper",
]

Family = LanguageFamily | AnnotationFamily


@dataclass(frozen=True, eq=False)
class Fold:
    """An incremental learner: the index on data d1..dn is ``emit(step(...step(init, d1)..., dn))``.

    States are immutable values (ints, and tuples of values and functions),
    so a state can be kept and stepped further without copying. An emit is a
    pure function of the state, so a conjecture asks it again only when a
    step changed the state (``!=``) and repeats the last index otherwise.
    """

    init: object
    step: Callable[[object, Datum], object]
    emit: Callable[[object], int]


def _resumable(
    start: Callable[[Experience], object],
    step: Callable[[object, Datum], object],
    emit: Callable[[object], int],
) -> Callable[[Experience], int]:
    """A conjecture that resumes from the last experience it saw.

    The one memo is ``(items, state, index)``, replaced whole: a call whose
    items extend the memo's steps only the new data, any other starts over
    with ``start(sigma)``. The emit is asked only when the state changed, so
    a datum that leaves the state as it was costs no emit.
    """
    unseen = object()
    memo: tuple = ((unseen,), unseen, None)  # no items extend it, no state equals it

    def conjecture(sigma: Experience) -> int:
        nonlocal memo
        items = sigma.items
        seen, last, index = memo
        n = len(seen)
        if n > len(items) or items[:n] != seen:
            state = start(sigma)
        else:
            state = reduce(step, items[n:], last)
        if state != last:
            index = emit(state)
        memo = (items, state, index)
        return index

    return conjecture


def _code_step(code: int, d: Datum) -> int:
    """The content code after one more datum: a pause adds nothing, an artefact its rank's bit."""
    return code if d is PAUSE else code | 1 << d.rank


@dataclass(frozen=True, eq=False)
class Scientist:
    """A named total deterministic map from experiences to family indices.

    Give exactly one of ``conjecture``, a replay function of the whole
    experience; ``fold``; or ``content``, an emit over the content code (bit r
    set iff an artefact of rank r was seen). A content scientist tells
    artefacts apart by rank, and is set-driven by construction. For the last
    two forms ``conjecture`` is derived from the scientist's fold view through
    one memo that resumes from the last experience seen.
    """

    name: str
    family: Family
    conjecture: Callable[[Experience], int] | None = None
    fold: Fold | None = None
    content: Callable[[int], int] | None = None

    def __post_init__(self) -> None:
        if sum(form is not None for form in (self.conjecture, self.fold, self.content)) != 1:
            raise ValueError(
                f"scientist {self.name} needs exactly one of conjecture, fold and content"
            )
        if self.conjecture is None:
            fold = _as_fold(self)
            init, step = fold.init, fold.step
            start = (
                (lambda sigma: encode_finite_set(sigma.content()))
                if self.content is not None
                else lambda sigma: reduce(step, sigma.items, init)
            )
            object.__setattr__(self, "conjecture", _resumable(start, step, fold.emit))

    def __call__(self, sigma: Experience) -> int:
        return self.conjecture(sigma)


def _as_fold(scientist: Scientist) -> Fold:
    """The scientist's fold; for a content scientist, the content code stepped per datum.

    A replay scientist gets an adapter: the state is the data, and emit re-asks.
    """
    if scientist.fold is not None:
        return scientist.fold
    if scientist.content is not None:
        return Fold(0, _code_step, scientist.content)
    conjecture = scientist.conjecture
    return Fold((), lambda items, d: items + (d,), lambda items: conjecture(Experience(items)))


def dumb_visionary(fam: LanguageFamily, lang: LanguageRepr) -> Scientist:
    """Constantly outputs the least index of one fixed language, input ignored."""
    h = fam.min_index_for(lang)
    return Scientist(name=f"dumb_visionary({lang.describe()})", family=fam, content=lambda code: h)


def memorizer(fam: LanguageFamily) -> Scientist:
    """Conjectures exactly the finite language of everything seen so far.

    Its index is the family offset plus the content code.
    """
    offset = fam.offset
    return Scientist(name="memorizer", family=fam, content=lambda code: offset + code)


def enumeration_scientist(fam: LanguageFamily, class_order: Sequence[int]) -> Scientist:
    """First index in class order whose language contains the content seen.

    A content scientist: each entry is tested against the content code. A
    finite entry F fits when the code has no bit outside F, with no decode; a
    special fits when it contains the universe's artefact of every rank in the
    code. Artefacts are told apart by rank, like the memorizer's, so a foreign
    artefact with a member's rank counts as that member. When no entry fits,
    the conjecture is the memorizer's, so the result stays total and consistent.
    """
    if not class_order:
        raise ValueError("class order must be non-empty")
    order = tuple(class_order)
    for p in order:
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise ValueError(f"class order entries must be indices >= 0, got {p!r}")
    offset = fam.offset
    artefact = cache(fam.universe.artefact)  # each rank's artefact, built once
    # Each entry's test, built once: a finite entry's mask of the ranks outside
    # it, or a special's membership test.
    tests = tuple(
        (p, None, fam.specials[p].contains) if p < offset else (p, ~(p - offset), None)
        for p in order
    )

    def emit(code: int) -> int:
        listed = None
        for p, outside, contains in tests:
            if contains is None:
                if not code & outside:
                    return p
            else:
                if listed is None:
                    listed = list(map(artefact, _ranks(code)))
                if all(map(contains, listed)):
                    return p
        return offset + code

    return Scientist(name="enumeration", family=fam, content=emit)


def ever_changing(fam: Family) -> Scientist:
    """Outputs the experience length, so every extension moves the index."""
    return Scientist(
        name="ever_changing", family=fam, fold=Fold(0, lambda n, d: n + 1, lambda n: n)
    )


def confidence_annotating(
    fam: LanguageFamily, base: Scientist, initial_confidence: int = 3
) -> Scientist:
    """Tracks a base hypothesis with a confidence counter, annotated into the index.

    Datum by datum: a datum inside the current base language raises confidence
    by one, a datum outside lowers it by one, and at zero the base hypothesis
    is re-asked on the data so far and confidence resets. Pauses change
    nothing but the step count. The emitted index pairs the base index with
    (confidence, step count), so it moves at every extension while denoting
    whatever the base index denotes. The state carries the base's own state,
    so a re-ask is the base's ``emit`` on state already at hand. The base
    must conjecture in ``fam`` itself: the index of a nested annotator is a
    pair, not an index of ``fam``.
    """
    if base.family is not fam:
        raise ValueError(
            f"the base {base.name} does not conjecture in the annotated family"
        )
    if initial_confidence < 1:
        raise ValueError(
            f"initial confidence must be >= 1, got {initial_confidence}"
        )
    base_fold = _as_fold(base)
    base_step, base_emit = base_fold.step, base_fold.emit
    first = base_emit(base_fold.init)

    # State: (base state, base index, its language's contains, confidence, steps).
    def step(state: tuple, d: Datum) -> tuple:
        inner, b, contains, c, n = state
        inner = base_step(inner, d)
        if d is PAUSE:
            pass
        elif contains(d):
            c += 1
        elif c > 1:
            c -= 1
        else:
            reasked = base_emit(inner)
            if reasked != b:
                b, contains = reasked, fam.language_of(reasked).contains
            c = initial_confidence
        return inner, b, contains, c, n + 1

    def emit(state: tuple) -> int:
        _, b, _, c, n = state
        return pair(b, pair(c, n))

    init = (base_fold.init, first, fam.language_of(first).contains, initial_confidence, 0)
    return Scientist(
        name=f"confidence_annotating({base.name},{initial_confidence})",
        family=AnnotationFamily(fam),
        fold=Fold(init, step, emit),
    )


def last_novel(fam: LanguageFamily) -> Scientist:
    """Singleton language of the most recent first-occurrence artefact.

    The last datum that was absent from everything strictly before it. The
    state is the set code of the ranks seen and the code of that datum's
    singleton (0, the empty language, while no artefact has come). Artefacts
    are told apart by rank, as within one universe. Order-sensitive by design.
    """
    offset = fam.offset

    def step(state: tuple, d: Datum) -> tuple:
        if d is PAUSE:
            return state
        seen, last = state
        bit = 1 << d.rank
        return state if seen & bit else (seen | bit, bit)

    return Scientist(
        name="last_novel", family=fam, fold=Fold((0, 0), step, lambda state: offset + state[1])
    )


def set_driven_wrapper(base: Scientist) -> Scientist:
    """Feed the base only the canonical listing of the content: set-driven by construction.

    The wrap is a content scientist. A content base is set-driven already, so
    the wrap reuses its emit. Any other base is relisted through its fold view
    (``_as_fold``; a replay base's state is the listing itself, re-asked by its
    emit): the wrap's emit lists the code's ranks in order, each as the
    universe's artefact of that rank, built once per wrap, and steps the base
    along that listing. It keeps one memo, replaced whole: the last code, its
    listing, and the base's state after each prefix of the listing. An emit
    steps the base only from the lowest rank whose bit changed. Artefacts are
    told apart by rank, as within one universe. The kept states are O(k)
    values for a content of k artefacts, so a base whose state after i
    artefacts holds i bits or data, like ``last_novel``'s or a replay base's,
    holds Θ(k²) of them: the same order as ``ConvergenceReport.trace``.
    """
    name, family = f"set_driven({base.name})", base.family
    if base.content is not None:
        return Scientist(name=name, family=family, content=base.content)
    artefact = cache(family.universe.artefact)  # each rank's artefact, built once
    fold = _as_fold(base)
    step, emit = fold.step, fold.emit
    # (code, its ranks in order, states), where states[i] is the base after
    # the first i of them. A published memo is never mutated.
    memo: tuple = (0, [], [fold.init])

    def relisted(code: int) -> int:
        nonlocal memo
        last, ranks, states = memo  # read once: a thread sharing the wrap may replace it
        changed = code ^ last
        if changed:
            low = (changed & -changed).bit_length() - 1
            first = bisect_left(ranks, low)  # ranks below low are listed as before
            ranks, states = ranks[:first], states[: first + 1]
            state = states[first]
            for r in _ranks(code, low):
                state = step(state, artefact(r))
                ranks.append(r)
                states.append(state)
            memo = (code, ranks, states)
        return emit(states[-1])

    return Scientist(name=name, family=family, content=relisted)


@dataclass(frozen=True)
class SampledCheck:
    """Outcome of a sampled property check; a pass is evidence, not proof."""

    passed: bool
    trials: int
    counterexample: tuple | None = None


def _sampled_check(
    kind: str, scientist: Scientist, trials: int, seed: int, probe: Callable
) -> SampledCheck:
    """Run ``probe(rng, sigma)`` on sampled experiences until it returns a counterexample."""
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    rng = derived_rng(kind, seed, scientist.name)
    artefacts = ranked_artefacts(scientist.family.universe)
    for t in range(trials):
        found = probe(rng, sample_experience_over(rng, artefacts))
        if found is not None:
            return SampledCheck(False, t + 1, found)
    return SampledCheck(True, trials)


def is_set_driven_sampled(
    scientist: Scientist, trials: int = 10_000, seed: int = 0
) -> SampledCheck:
    """Probe equal-content experience pairs for an index mismatch."""

    def probe(rng: random.Random, sigma: Experience) -> tuple | None:
        tau = sample_same_content(rng, sigma)
        differs = scientist.conjecture(sigma) != scientist.conjecture(tau)
        return (sigma, tau) if differs else None

    return _sampled_check("set-driven", scientist, trials, seed, probe)


def is_consistent_sampled(
    scientist: Scientist, trials: int = 10_000, seed: int = 0
) -> SampledCheck:
    """Probe for an experienced artefact outside the conjectured language."""

    def probe(rng: random.Random, sigma: Experience) -> tuple | None:
        lang = scientist.family.language_of(scientist.conjecture(sigma))
        ranked = sorted(sigma.content(), key=attrgetter("rank"))
        return next(((sigma, a) for a in ranked if not lang.contains(a)), None)

    return _sampled_check("consistent", scientist, trials, seed, probe)


def _default_class_order(fam: LanguageFamily) -> tuple[int, ...]:
    # Empty language first, then the roster specials.
    return (fam.finite_index(()),) + tuple(range(fam.offset))


def _build_dumb_visionary(fam: LanguageFamily, params: dict) -> Scientist:
    spec = params.get("language")
    if spec is None:
        if not fam.specials:
            raise ValueError("dumb_visionary needs a language or a family special")
        return dumb_visionary(fam, fam.specials[0])
    return dumb_visionary(fam, resolve_language(spec, fam.universe))


def _build_enumeration(fam: LanguageFamily, params: dict) -> Scientist:
    specs = params.get("class_order")
    if specs is None:
        return enumeration_scientist(fam, _default_class_order(fam))
    if not isinstance(specs, (list, tuple)):
        raise ValueError(f"class_order must be a list, got {specs!r}")
    order = [
        fam.min_index_for(resolve_language(s, fam.universe)) if isinstance(s, str) else s
        for s in specs
    ]
    return enumeration_scientist(fam, order)


def _build_confidence(fam: LanguageFamily, params: dict) -> Scientist:
    base = build_scientist(params.get("base", "memorizer"), fam)
    confidence = params.get("initial_confidence", 3)
    if isinstance(confidence, (bool, float)):
        raise ValueError(f"initial confidence must be an integer, got {confidence!r}")
    return confidence_annotating(fam, base, int(confidence))


def _build_set_driven(fam: LanguageFamily, params: dict) -> Scientist:
    return set_driven_wrapper(build_scientist(params.get("base", "last_novel"), fam))


SCIENTISTS: dict[str, Callable[[LanguageFamily, dict], Scientist]] = {
    "memorizer": lambda fam, params: memorizer(fam),
    "dumb_visionary": _build_dumb_visionary,
    "enumeration": _build_enumeration,
    "ever_changing": lambda fam, params: ever_changing(fam),
    "confidence_annotating": _build_confidence,
    "last_novel": lambda fam, params: last_novel(fam),
    "set_driven": _build_set_driven,
}

# Positional interpretation of "name:arg:arg" string specs.
_SPEC_KEYS: dict[str, tuple[str, ...]] = {
    "dumb_visionary": ("language",),
    "confidence_annotating": ("base", "initial_confidence"),
    "set_driven": ("base",),
    "enumeration": ("class_order",),
}


def build_scientist(spec: str | dict, fam: LanguageFamily) -> Scientist:
    """Resolve a registry spec: "memorizer", "dumb_visionary:evens", or a dict."""
    if isinstance(spec, str):
        name, _, rest = spec.partition(":")
        params: dict = {}
        if rest:
            keys = _SPEC_KEYS.get(name, ())
            values = rest.split(":")
            if len(values) > len(keys):
                raise ValueError(f"too many arguments in scientist spec {spec!r}")
            params = dict(zip(keys, values))
            if "class_order" in params:
                params["class_order"] = params["class_order"].split("|")
    else:
        params = dict(spec)
        name = params.pop("name", None)
        if name is None:
            raise ValueError("scientist spec needs a 'name' entry")
    if name not in SCIENTISTS:
        raise ValueError(f"unknown scientist: {name!r}")
    unknown = sorted(set(params) - set(_SPEC_KEYS.get(name, ())))
    if unknown:
        raise ValueError(f"{name} takes no {', '.join(map(repr, unknown))} entry")
    return SCIENTISTS[name](fam, params)
