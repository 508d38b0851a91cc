"""Random experience generators for sampled property checks.

Every uniform integer draw but ``sample_same_content``'s shuffle makes exactly
the random bits that ``random.Random``'s ``randint``, ``randrange`` and
``choice`` make, so a seed's stream is the one those methods would give. The
per-draw samplers draw through ``_below``. A sampled witness loop draws its
(member, experience, artefact) cases through ``sample_cases``, which makes the
same calls as ``sample_member``, ``sample_experience_over`` and
``sample_member`` in turn with the rejection rule written inline, so a case
costs one generator step instead of a Python call per draw.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Iterator, Sequence, TypeVar

from .core import PAUSE, Artefact, Experience, Universe

__all__ = [
    "ranked_artefacts",
    "sample_artefact",
    "sample_cases",
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

    A sampled loop builds this once and draws from it with ``sample_cases``,
    or with ``sample_member`` and ``sample_experience_over``.
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

    Duplicates arise from the small artefact range. An empty ``artefacts``
    raises ValueError before any draw, whatever the length would have been.
    """
    n = len(artefacts)
    if n == 0:
        raise ValueError("cannot draw an experience over no artefacts")
    return Experience(tuple([
        PAUSE if rng.random() < PAUSE_RATE else artefacts[_below(rng, n)]
        for _ in range(_below(rng, max_len + 1))
    ]))


def sample_cases(
    rng: random.Random,
    members: Sequence[T],
    artefacts: Sequence[Artefact],
    trials: int,
    max_len: int = 8,
) -> Iterator[tuple[T, Experience, Artefact]]:
    """``trials`` (member, experience, artefact) cases, drawn as one loop would draw them.

    Case by case, the triple and the draws of ``sample_member(rng, members)``,
    ``sample_experience_over(rng, artefacts, max_len)`` and
    ``sample_member(rng, artefacts)``, so ``rng`` ends in the state those calls
    leave. Empty ``members`` or ``artefacts`` and a negative ``max_len`` raise
    ValueError here, before any draw: ``getrandbits(0)`` is always 0, so an
    empty range would reject forever.
    """
    if not members:
        raise ValueError("cannot draw a case from no members")
    if not artefacts:
        raise ValueError("cannot draw a case over no artefacts")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    return _cases(rng, members, artefacts, trials, max_len)


def _cases(
    rng: random.Random,
    members: Sequence[T],
    artefacts: Sequence[Artefact],
    trials: int,
    max_len: int,
) -> Iterator[tuple[T, Experience, Artefact]]:
    # _below inlined three times: draw n.bit_length() bits, redraw while >= n.
    bits, uniform = rng.getrandbits, rng.random
    m, n, lengths = len(members), len(artefacts), max_len + 1
    km, kn, kl = m.bit_length(), n.bit_length(), lengths.bit_length()
    for _ in range(trials):
        r = bits(km)
        while r >= m:
            r = bits(km)
        member = members[r]
        length = bits(kl)
        while length >= lengths:
            length = bits(kl)
        items = []
        for _ in range(length):
            if uniform() < PAUSE_RATE:
                items.append(PAUSE)
            else:
                r = bits(kn)
                while r >= n:
                    r = bits(kn)
                items.append(artefacts[r])
        r = bits(kn)
        while r >= n:
            r = bits(kn)
        yield member, Experience(tuple(items)), artefacts[r]


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
