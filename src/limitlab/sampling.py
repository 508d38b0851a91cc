"""Random experience generators for sampled property checks."""

from __future__ import annotations

import random

from .core import PAUSE, Artefact, Experience, Universe

__all__ = ["sample_artefact", "sample_experience", "sample_same_content"]


def sample_artefact(rng: random.Random, universe: Universe, max_rank: int = 7) -> Artefact:
    return universe.artefact(rng.randint(0, max_rank))


def sample_experience(
    rng: random.Random,
    universe: Universe,
    max_rank: int = 7,
    max_len: int = 8,
    pause_rate: float = 0.2,
) -> Experience:
    """Random experience with pauses; duplicates arise from the small rank range."""
    n = rng.randint(0, max_len)
    items = tuple(
        PAUSE if rng.random() < pause_rate else sample_artefact(rng, universe, max_rank)
        for _ in range(n)
    )
    return Experience(items)


def sample_same_content(
    rng: random.Random,
    sigma: Experience,
    max_extra: int = 3,
    pause_rate: float = 0.2,
) -> Experience:
    """A fresh experience with exactly the content of ``sigma``.

    Reorders the inspiring set, re-duplicates elements of it, and sprinkles
    pauses, so the pair (sigma, result) probes order and repetition
    sensitivity without touching content.
    """
    # Rank order, not set order: set iteration follows the string hash seed.
    artefacts = sorted(sigma.content(), key=lambda a: a.rank)
    if not artefacts:
        return Experience(tuple(PAUSE for _ in range(rng.randint(0, max_extra))))
    seq = artefacts + [rng.choice(artefacts) for _ in range(rng.randint(0, max_extra))]
    rng.shuffle(seq)
    items: list = []
    for a in seq:
        while rng.random() < pause_rate:
            items.append(PAUSE)
        items.append(a)
    return Experience(tuple(items))
