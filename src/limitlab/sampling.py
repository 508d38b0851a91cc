"""Random experience generators for sampled property checks.

Every uniform integer draw but ``sample_same_content``'s shuffle goes through
``_below``, which makes exactly the random bits that ``random.Random``'s
``randint``, ``randrange`` and ``choice`` make, so a seed's stream is the one
those methods would give.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Sequence, TypeVar

from .core import PAUSE, Artefact, Experience, Universe

__all__ = [
    "ranked_artefacts",
    "sample_artefact",
    "sample_experience",
    "sample_experience_over",
    "sample_member",
    "sample_same_content",
]

PAUSE_RATE = 0.2  # per-draw chance of a pause in a sampled experience
MAX_EXTRA = 3  # most re-duplicated elements in a same-content experience

T = TypeVar("T")


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from ``range(n)``: the bits and final state of ``rng.randrange(n)``.

    CPython's ``Random._randbelow_with_getrandbits`` inlined: draw
    ``n.bit_length()`` bits, and redraw while they read ``n`` or more.
    """
    if n <= 0:
        raise ValueError(f"cannot draw from an empty range (n = {n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def sample_member(rng: random.Random, seq: Sequence[T]) -> T:
    """``rng.choice(seq)``, with the same draws; an empty ``seq`` raises ValueError."""
    return seq[_below(rng, len(seq))]


def ranked_artefacts(universe: Universe, max_rank: int = 7) -> tuple[Artefact, ...]:
    """The artefacts of ranks 0 to ``max_rank``, indexed by rank.

    A sampled loop builds this once and draws from it with ``sample_member``
    and ``sample_experience_over``.
    """
    if max_rank < 0:
        raise ValueError(f"max_rank must be >= 0, got {max_rank}")
    return tuple(universe.artefact(r) for r in range(max_rank + 1))


def sample_artefact(rng: random.Random, universe: Universe, max_rank: int = 7) -> Artefact:
    return universe.artefact(_below(rng, max_rank + 1))


def sample_experience_over(
    rng: random.Random, artefacts: Sequence[Artefact], max_len: int = 8
) -> Experience:
    """Random experience of up to ``max_len`` data, each a pause or a member of ``artefacts``.

    Duplicates arise from the small artefact range.
    """
    n = len(artefacts)
    return Experience(tuple([
        PAUSE if rng.random() < PAUSE_RATE else artefacts[_below(rng, n)]
        for _ in range(_below(rng, max_len + 1))
    ]))


def sample_experience(
    rng: random.Random,
    universe: Universe,
    max_rank: int = 7,
    max_len: int = 8,
) -> Experience:
    """Random experience with pauses over ranks 0 to ``max_rank``."""
    return sample_experience_over(rng, ranked_artefacts(universe, max_rank), max_len)


def sample_same_content(rng: random.Random, sigma: Experience) -> Experience:
    """A fresh experience with exactly the content of ``sigma``.

    Reorders the inspiring set, re-duplicates elements of it, and sprinkles
    pauses, so the pair (sigma, result) probes order and repetition
    sensitivity without touching content.
    """
    # Rank order, not set order: set iteration follows the string hash seed.
    artefacts = sorted(sigma.content(), key=attrgetter("rank"))
    extra = _below(rng, MAX_EXTRA + 1)
    if not artefacts:
        return Experience(tuple(PAUSE for _ in range(extra)))
    seq = artefacts + [sample_member(rng, artefacts) for _ in range(extra)]
    rng.shuffle(seq)
    items: list = []
    for a in seq:
        while rng.random() < PAUSE_RATE:
            items.append(PAUSE)
        items.append(a)
    return Experience(tuple(items))
