"""Scientists: deterministic total maps from experiences to hypothesis indices.

Every builder returns a pure replay-from-empty function of the experience
alone, so a scientist value can be shared and re-invoked freely. The registry
at the bottom names each builder for configs and experiment sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import PAUSE, Experience, canonical_experience, derived_rng, is_pause
from .families import (
    AnnotationFamily,
    LanguageFamily,
    LanguageRepr,
    pair,
    resolve_language,
)
from .sampling import sample_experience, sample_same_content

__all__ = [
    "SCIENTISTS",
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

_EMPTY = Experience()


@dataclass(frozen=True, eq=False)
class Scientist:
    """A named total deterministic map from experiences to family indices."""

    name: str
    family: Family
    conjecture: Callable[[Experience], int]

    def __call__(self, sigma: Experience) -> int:
        return self.conjecture(sigma)


def dumb_visionary(fam: LanguageFamily, lang: LanguageRepr) -> Scientist:
    """Constantly outputs the least index of one fixed language, input ignored."""
    h = fam.min_index_for(lang)
    return Scientist(
        name=f"dumb_visionary({lang.describe()})",
        family=fam,
        conjecture=lambda sigma: h,
    )


def memorizer(fam: LanguageFamily) -> Scientist:
    """Conjectures exactly the finite language of everything seen so far."""
    return Scientist(
        name="memorizer",
        family=fam,
        conjecture=lambda sigma: fam.finite_index(sigma.content()),
    )


def enumeration_scientist(fam: LanguageFamily, class_order: Sequence[int]) -> Scientist:
    """First index in class order whose language contains the content seen.

    Falls back to the memorizer's conjecture when no class member fits, so the
    result stays total and consistent.
    """
    if not class_order:
        raise ValueError("class order must be non-empty")
    order = tuple(class_order)
    for p in order:
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise ValueError(f"class order entries must be indices >= 0, got {p!r}")
    fallback = memorizer(fam)

    def conjecture(sigma: Experience) -> int:
        seen = sigma.content()
        for p in order:
            lang = fam.language_of(p)
            if all(lang.contains(a) for a in seen):
                return p
        return fallback.conjecture(sigma)

    return Scientist(name="enumeration", family=fam, conjecture=conjecture)


def ever_changing(fam: Family) -> Scientist:
    """Outputs the experience length, so every extension moves the index."""
    return Scientist(
        name="ever_changing", family=fam, conjecture=lambda sigma: len(sigma)
    )


def confidence_annotating(
    fam: LanguageFamily, base: Scientist, initial_confidence: int = 3
) -> Scientist:
    """Tracks a base hypothesis with a confidence counter, annotated into the index.

    Replaying the experience from empty: a datum inside the current base
    language raises confidence by one, a datum outside lowers it by one, and
    at zero the base hypothesis is re-asked on the data so far and confidence
    resets. Pauses change nothing but the step count. The emitted index pairs
    the base index with (confidence, step count), so it moves at every
    extension while denoting whatever the base index denotes. The base must
    conjecture in ``fam`` itself: the index of a nested annotator is a pair,
    not an index of ``fam``.
    """
    if base.family is not fam:
        raise ValueError(
            f"the base {base.name} does not conjecture in the annotated family"
        )
    if initial_confidence < 1:
        raise ValueError(
            f"initial confidence must be >= 1, got {initial_confidence}"
        )
    wrapped = AnnotationFamily(fam)

    def conjecture(sigma: Experience) -> int:
        b = base.conjecture(_EMPTY)
        contains = fam.language_of(b).contains
        c = initial_confidence
        for i, d in enumerate(sigma):
            if is_pause(d):
                continue
            if contains(d):
                c += 1
            else:
                c -= 1
                if c == 0:
                    reasked = base.conjecture(sigma[: i + 1])
                    if reasked != b:
                        b = reasked
                        contains = fam.language_of(b).contains
                    c = initial_confidence
        return pair(b, pair(c, len(sigma)))

    return Scientist(
        name=f"confidence_annotating({base.name},{initial_confidence})",
        family=wrapped,
        conjecture=conjecture,
    )


def last_novel(fam: LanguageFamily) -> Scientist:
    """Singleton language of the most recent first-occurrence artefact.

    The last datum that was absent from everything strictly before it: a
    dict keeps each datum at its first occurrence, so that datum is the dict's
    last artefact key. With no artefacts yet, conjectures the empty language.
    Order-sensitive by design.
    """

    def conjecture(sigma: Experience) -> int:
        firsts = dict.fromkeys(sigma.items)
        firsts.pop(PAUSE, None)
        return fam.finite_index((next(reversed(firsts)),) if firsts else ())

    return Scientist(name="last_novel", family=fam, conjecture=conjecture)


def set_driven_wrapper(base: Scientist) -> Scientist:
    """Feed the base only the canonical listing of the content: set-driven by construction."""
    return Scientist(
        name=f"set_driven({base.name})",
        family=base.family,
        conjecture=lambda sigma: base.conjecture(
            canonical_experience(sigma.content())
        ),
    )


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
    universe = scientist.family.universe
    for t in range(trials):
        found = probe(rng, sample_experience(rng, universe))
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
        ranked = sorted(sigma.content(), key=lambda x: x.rank)
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
