"""Executable witnesses for the relationship between novelty and transformation.

Each witness constructs its claim concretely and raises TheoremCheckError on
any violation, so the suite is build-breaking by design. The property checks
combine an exhaustive small-universe sweep with seeded random sampling. Each
case asks novelty first and rates transformativeness only on a non-novel
append: only there can "transformative implies novel" fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .core import PAUSE, Artefact, Experience, Universe, derived_rng
from .families import LanguageFamily, family_from_config
from .sampling import ranked_artefacts, sample_cases
from .scientists import (
    SCIENTISTS,
    Scientist,
    dumb_visionary,
    ever_changing,
    is_set_driven_sampled,
    last_novel,
    memorizer,
    set_driven_wrapper,
)
from .schemas import Situation, novelty, transformativeness

__all__ = [
    "SuiteItem",
    "TheoremCheckError",
    "WitnessRecord",
    "novelty_guard_without_set_drivenness_witness",
    "novelty_not_necessary_witness",
    "novelty_not_sufficient_witness",
    "run_theorem_suite",
    "set_driven_novelty_property",
]


class TheoremCheckError(AssertionError):
    """A witness or property failed; the build must not be trusted."""


@dataclass(frozen=True)
class WitnessRecord:
    claim: str
    values: dict


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise TheoremCheckError(message)


def _witness_family() -> LanguageFamily:
    return family_from_config({"specials": ["evens", "odds"]})


def _require_novel_if_transformative(
    scientist: Scientist, sigma: Experience, a: Artefact
) -> None:
    """Transformativeness is rated only when ``a`` is not novel after ``sigma``.

    A novel append cannot falsify "transformative implies novel", so it costs
    no conjecture; a non-novel one must leave the index where it was.
    """
    s = Situation(scientist, sigma)
    if novelty(a, s) == 0 and transformativeness(a, s) == 1:
        # The message is built only on failure: most non-novel cases pass.
        raise TheoremCheckError(
            f"{scientist.name} transformed on non-novel {a!r} after {sigma!r}"
        )


def _single_append_witness(
    scientist: Scientist, rank: int, expected: dict, claim: str
) -> WitnessRecord:
    """Append the artefact of ``rank`` to (2 4) and require the expected schema values."""
    u = scientist.family.universe
    sigma = Experience.of(u.artefact(2), u.artefact(4))
    a = u.artefact(rank)
    s = Situation(scientist, sigma)
    values = {"novel": novelty(a, s), "transformative": transformativeness(a, s)}
    _check(
        values == expected,
        f"{scientist.name} rated {a!r} after {sigma!r} {values}, expected {expected}",
    )
    shown = {"scientist": scientist.name, "experience": "(2 4)", "artefact": str(rank)}
    return WitnessRecord(claim, shown | values)


def novelty_not_sufficient_witness() -> WitnessRecord:
    """A constant scientist meets a never-seen artefact and does not budge."""
    fam = _witness_family()
    return _single_append_witness(
        dumb_visionary(fam, fam.specials[0]), 5, {"novel": 1, "transformative": 0},
        "a novel artefact need not be transformative",
    )


def novelty_not_necessary_witness() -> WitnessRecord:
    """An ever-changing scientist moves its index on an already-seen artefact."""
    return _single_append_witness(
        ever_changing(_witness_family()), 2, {"novel": 0, "transformative": 1},
        "a transformative artefact need not be novel",
    )


def _sweep(fleet: list[Scientist], universe: Universe, max_len: int) -> int:
    """Append each rank 0-2 artefact to every experience up to ``max_len`` over
    ranks 0-2 and the pause, for each scientist; returns the number of cases,
    novel appends included.
    """
    candidates = [universe.artefact(r) for r in range(3)]
    alphabet = candidates + [PAUSE]
    cases = 0
    for scientist in fleet:
        for length in range(max_len + 1):
            for items in product(alphabet, repeat=length):
                sigma = Experience(items)
                for a in candidates:
                    _require_novel_if_transformative(scientist, sigma, a)
                    cases += 1
    return cases


def _sample(fleet: list[Scientist], artefacts: tuple, rng: random.Random, trials: int) -> None:
    """Check ``trials`` random (scientist, experience, artefact) cases drawn from ``rng``."""
    for scientist, sigma, a in sample_cases(rng, fleet, artefacts, trials):
        _require_novel_if_transformative(scientist, sigma, a)


def _set_driven_fleet(fam: LanguageFamily) -> list[Scientist]:
    """Memorizer, dumb visionaries, and the set-driven wrap of every registered base."""
    fleet = [
        memorizer(fam),
        dumb_visionary(fam, fam.specials[0]),
        dumb_visionary(fam, fam.specials[1]),
    ]
    for name, builder in sorted(SCIENTISTS.items()):
        if name == "set_driven":
            continue
        fleet.append(set_driven_wrapper(builder(fam, {})))
    return fleet


def set_driven_novelty_property(trials: int = 10_000, seed: int = 0) -> WitnessRecord:
    """For set-driven scientists, every transformative artefact is novel.

    Exhaustively sweeps all experiences of length up to 3 over a 3-element
    universe against every candidate artefact, then samples ``trials`` random
    (scientist, experience, artefact) triples over a wider range. A case
    conjectures only when its artefact is not novel.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    fam = _witness_family()
    u = fam.universe
    fleet = _set_driven_fleet(fam)
    exhaustive = _sweep(fleet, u, 3)
    _sample(fleet, ranked_artefacts(u), derived_rng("set-driven-novelty", seed), trials)
    return WitnessRecord(
        claim="set-driven scientists transform only on novel artefacts",
        values={
            "scientists": [m.name for m in fleet],
            "exhaustive_cases": exhaustive,
            "sampled_cases": trials,
            "violations": 0,
        },
    )


def novelty_guard_without_set_drivenness_witness(
    trials: int = 10_000, seed: int = 0
) -> WitnessRecord:
    """The last-novel scientist needs novelty to transform yet is order-sensitive.

    Part one sweeps all experiences of length up to 4 over a 3-element
    universe and checks that no non-novel append is transformative. Part two
    exhibits an equal-content experience pair that the scientist maps to
    different indices.
    """
    fam = _witness_family()
    scientist = last_novel(fam)
    swept = _sweep([scientist], fam.universe, 4)
    check = is_set_driven_sampled(scientist, trials=trials, seed=seed)
    _check(not check.passed, "last_novel unexpectedly looked set-driven under sampling")
    sigma, tau = check.counterexample
    _check(sigma.content() == tau.content(), "counterexample pair content differs")
    _check(
        scientist.conjecture(sigma) != scientist.conjecture(tau),
        "counterexample pair does not separate the scientist",
    )
    return WitnessRecord(
        claim="requiring novelty to transform does not make a scientist set-driven",
        values={
            "swept_cases": swept,
            "violations": 0,
            "counterexample": (repr(sigma), repr(tau)),
            "found_after_trials": check.trials,
        },
    )


@dataclass(frozen=True)
class SuiteItem:
    name: str
    passed: bool
    summary: str
    values: dict


def run_theorem_suite(trials: int = 10_000, seed: int = 0) -> tuple[SuiteItem, ...]:
    """Run all four checks, converting failures into failed items."""
    checks = (
        ("novelty-not-sufficient", novelty_not_sufficient_witness),
        ("novelty-not-necessary", novelty_not_necessary_witness),
        (
            "set-driven-novelty-necessity",
            lambda: set_driven_novelty_property(trials=trials, seed=seed),
        ),
        (
            "novelty-guard-without-set-drivenness",
            lambda: novelty_guard_without_set_drivenness_witness(trials=trials, seed=seed),
        ),
    )
    items = []
    for name, check in checks:
        try:
            record = check()
            items.append(SuiteItem(name, True, record.claim, record.values))
        except TheoremCheckError as err:
            items.append(SuiteItem(name, False, str(err), {}))
    return tuple(items)
