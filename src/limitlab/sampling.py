"""Random experience generators for sampled property checks."""

from __future__ import annotations

import random

from .core import PAUSE, Artefact, Experience, Universe

__all__ = ["sample_artefact", "sample_experience", "sample_same_content"]

PAUSE_RATE = 0.2  # per-draw chance of a pause in a sampled experience
MAX_EXTRA = 3  # most re-duplicated elements in a same-content experience


def sample_artefact(rng: random.Random, universe: Universe, max_rank: int = 7) -> Artefact:
    return universe.artefact(rng.randint(0, max_rank))


def sample_experience(
    rng: random.Random,
    universe: Universe,
    max_rank: int = 7,
    max_len: int = 8,
) -> Experience:
    """Random experience with pauses; duplicates arise from the small rank range."""
    n = rng.randint(0, max_len)
    items = tuple(
        PAUSE if rng.random() < PAUSE_RATE else sample_artefact(rng, universe, max_rank)
        for _ in range(n)
    )
    return Experience(items)


def sample_same_content(rng: random.Random, sigma: Experience) -> Experience:
    """A fresh experience with exactly the content of ``sigma``.

    Reorders the inspiring set, re-duplicates elements of it, and sprinkles
    pauses, so the pair (sigma, result) probes order and repetition
    sensitivity without touching content.
    """
    # Rank order, not set order: set iteration follows the string hash seed.
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
