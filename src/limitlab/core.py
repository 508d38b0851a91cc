"""Artefact universes, experiences, and deterministic text (fate) generators.

A universe fixes a bijective enumeration of every artefact that can ever
occur. Experiences are finite datum sequences, fates are total generators of
infinite datum sequences. A text strategy is a language-free schedule of
ordinals, -1 a pause, with configurable pause, order, and repetition texture,
and a deadline by which its first ordinals have all appeared.
A language's text is that schedule relabelled: reduced by the language's size
(``_reduction``), and read as data by one reader (``_reader``), its element r
standing for ordinal r.
``make_fate`` streams it; ``Schedule`` draws a schedule's first positions once
and keys them.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from dataclasses import dataclass, fields
from functools import partial
from itertools import count, islice, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from .families import LanguageRepr

__all__ = [
    "PAUSE",
    "Artefact",
    "Canonical",
    "Datum",
    "Experience",
    "Fate",
    "Padded",
    "Pause",
    "RepetitionHeavy",
    "STRATEGIES",
    "Schedule",
    "ShuffledWindow",
    "TextStrategy",
    "UNIVERSES",
    "Universe",
    "canonical_experience",
    "decimal_universe",
    "derived_rng",
    "experience_from_tokens",
    "experience_to_tokens",
    "fate_from_function",
    "is_pause",
    "letters_universe",
    "make_fate",
]


class Pause:
    """The null datum: a text step that carries no artefact.

    A singleton: ``Pause()``, copies and unpickled pauses are all ``PAUSE``,
    so the pause hashes and compares by identity, in C.
    """

    __slots__ = ()

    def __new__(cls) -> Pause:
        return PAUSE

    def __reduce__(self) -> str:
        return "PAUSE"  # copy, deepcopy and pickle hand back the singleton

    def __repr__(self) -> str:
        return "#"


PAUSE = object.__new__(Pause)


class Artefact(NamedTuple):
    """One member of the universe, identified by its token and its rank.

    A tuple underneath, so hashing and equality run in C. It therefore also
    compares equal to the plain ``(token, rank)`` tuple; ``isinstance`` still
    tells the two apart.
    """

    token: str
    rank: int

    def __repr__(self) -> str:
        return f"Artefact({self.token})"


Datum = Artefact | Pause


def is_pause(d: Datum) -> bool:
    return d is PAUSE


@dataclass(frozen=True)
class Universe:
    """A fixed bijective enumeration of all possible artefact tokens.

    ``to_token`` and ``from_token`` must be mutually inverse over the
    naturals; "#" is reserved for the pause and is never a valid token.
    """

    name: str
    to_token: Callable[[int], str]
    from_token: Callable[[str], int]

    def artefact(self, rank: int) -> Artefact:
        # A set code cannot hold a bit past sys.maxsize (``1 << rank`` overflows).
        if not 0 <= rank <= sys.maxsize:
            raise ValueError(f"universe rank must be from 0 to {sys.maxsize}, got {rank}")
        return Artefact(self.to_token(rank), rank)

    def parse(self, token: str) -> Artefact:
        """The artefact a token spells canonically, ranked below 2**24 (a 2 MiB set code)."""
        rank = self.from_token(token)
        if rank >= 1 << 24:
            raise ValueError(f"universe rank of a token must be below {1 << 24}, got {rank}")
        a = self.artefact(rank)
        if a.token != token:
            raise ValueError(f"token {token!r} is not canonical: rank {rank} is {a.token!r}")
        return a


def decimal_universe() -> Universe:
    """Universe whose tokens are the decimal numerals 0, 1, 2, ..."""

    def from_token(token: str) -> int:
        if not token.isdigit():  # parse rejects leading zeros as non-canonical
            raise ValueError(f"not a decimal numeral: {token!r}")
        return int(token)

    return Universe("decimal", str, from_token)


def letters_universe() -> Universe:
    """Universe whose tokens count through a, b, ..., z, aa, ab, ... bijectively."""

    def to_token(rank: int) -> str:
        n = rank + 1
        out = []
        while n:
            n, r = divmod(n - 1, 26)
            out.append(chr(ord("a") + r))
        return "".join(reversed(out))

    def from_token(token: str) -> int:
        if not token or not all("a" <= c <= "z" for c in token):
            raise ValueError(f"not a letter token: {token!r}")
        n = 0
        for c in token:
            n = n * 26 + (ord(c) - ord("a") + 1)
        return n - 1

    return Universe("letters", to_token, from_token)


UNIVERSES: dict[str, Callable[[], Universe]] = {
    "decimal": decimal_universe,
    "letters": letters_universe,
}


@dataclass(frozen=True)
class Experience:
    """A finite ordered record of data: everything a scientist has seen so far."""

    items: tuple = ()

    @classmethod
    def of(cls, *data: Datum) -> Experience:
        return cls(tuple(data))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Experience(self.items[index])
        return self.items[index]

    def __add__(self, other: Experience) -> Experience:
        return Experience(self.items + other.items)

    def append(self, d: Datum) -> Experience:
        return Experience(self.items + (d,))

    def content(self) -> frozenset:
        """The inspiring set: artefacts seen, pauses dropped, duplicates collapsed."""
        seen = set(self.items)
        seen.discard(PAUSE)
        return frozenset(seen)

    def __repr__(self) -> str:
        inner = " ".join("#" if is_pause(d) else d.token for d in self.items)
        return f"Experience({inner})"


def canonical_experience(artefacts: Iterable[Artefact]) -> Experience:
    """List a set of artefacts once each, sorted by universe rank, no pauses."""
    return Experience(tuple(sorted(artefacts, key=attrgetter("rank"))))


def experience_to_tokens(sigma: Experience) -> list[str]:
    """JSON-ready form: a list of tokens with "#" standing for the pause."""
    return ["#" if is_pause(d) else d.token for d in sigma]


def experience_from_tokens(tokens: Iterable[str], universe: Universe) -> Experience:
    return Experience(
        tuple(PAUSE if t == "#" else universe.parse(t) for t in tokens)
    )


@dataclass(frozen=True, eq=False)
class Fate:
    """A total deterministic source of one infinite datum sequence.

    ``stream_factory`` returns a fresh infinite iterator on every call, so
    repeated reads of the same index always agree and fates stay observably
    pure without shared mutable state; the sequence itself is never stored.
    A fate from ``make_fate`` relabels a strategy's schedule on every read.
    """

    stream_factory: Callable[[], Iterator[Datum]]
    platonic: "LanguageRepr | None" = None

    def at(self, n: int) -> Datum:
        if n < 0:
            raise ValueError(f"text index must be >= 0, got {n}")
        return next(islice(self.stream_factory(), n, None))

    def prefix(self, n: int) -> Experience:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        return Experience(tuple(islice(self.stream_factory(), n)))


def fate_from_function(
    fn: Callable[[int], Datum], platonic: "LanguageRepr | None" = None
) -> Fate:
    """Wrap an explicit index-to-datum function as a fate."""

    def factory() -> Iterator[Datum]:
        n = 0
        while True:
            yield fn(n)
            n += 1

    return Fate(factory, platonic)


def derived_rng(*parts) -> random.Random:
    """Deterministic, platform-independent RNG keyed by the given parts."""
    key = ":".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


_PAD_BLOCK = 8  # slots per padded block; density resolves to floor(density * 8) pauses


def _reduction(size: int | None) -> Callable[[Iterable[int]], Iterable[int]]:
    """The relabel rule, over a stream of ordinals: each k to the ordinal of the element it becomes.

    A pause (-1) stays -1. For a finite size s > 0, ordinal k becomes k % s; for
    size 0 every position becomes a pause; an infinite language keeps every k.
    """
    if size is None:
        return lambda ordinals: ordinals
    if size == 0:
        return partial(map, lambda k: -1)
    return partial(map, lambda k: -1 if k < 0 else k % size)


def _reader(lang: "LanguageRepr") -> Callable[[Iterable[int]], Iterator[Datum]]:
    """``lang``'s text from reduced ordinals: -1 is a pause, r is ``lang``'s r-th element.

    A finite language reads its members from a table built once, with the
    pause last so that -1 lands on it; an infinite one calls ``element``.
    """
    if lang.size is None:
        element = lang.element
        return lambda ordinals: (PAUSE if r < 0 else element(r) for r in ordinals)
    return partial(map, (*map(lang.element, range(lang.size)), PAUSE).__getitem__)


def _check_rate(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < 1:
        raise ValueError(f"{what} must be a number in [0, 1), got {value!r}")


class _Strategy:
    """Shared spelling of the text strategies, and their one contract.

    A strategy's ``schedule(seed)`` is an infinite stream of ordinals, -1 a
    pause, that depends on the seed alone, and in which every ordinal k
    appears by a computable deadline: ``deadline(k)`` is a prefix length of
    the schedule that holds every ordinal from 0 through k, whatever the
    seed. A language's text is that schedule relabelled (``make_fate``), so
    it lists the language exhaustively, and a finite language of s members
    has listed them all by ``deadline(s - 1)``.

    A strategy has at most one parameter, its only dataclass field. It prints
    as ``name`` or ``name(param)`` and parses from ``name`` or ``name:param``.
    """

    name: ClassVar[str]

    def __str__(self) -> str:
        params = ",".join(str(getattr(self, f.name)) for f in fields(self))
        return f"{self.name}({params})" if params else self.name

    @classmethod
    def parse(cls, arg: str) -> TextStrategy:
        """The strategy with the parameter text after ``name:``; empty keeps the default."""
        if not arg:
            return cls()
        params = fields(cls)
        if not params:
            raise ValueError(f"{cls.name} takes no parameter")
        (param,) = params
        return cls(type(param.default)(arg))


@dataclass(frozen=True)
class Canonical(_Strategy):
    """Elements in canonical order; nonempty finite languages cycle forever."""

    name: ClassVar[str] = "canonical"

    def schedule(self, seed: int) -> Iterator[int]:
        return count()

    def deadline(self, k: int) -> int:
        return k + 1


@dataclass(frozen=True)
class Padded(_Strategy):
    """Canonical order with pauses mixed in at a fixed density per block."""

    name: ClassVar[str] = "padded"
    pause_density: float = 0.25

    def __post_init__(self) -> None:
        _check_rate(self.pause_density, "pause density")

    def _pauses_per_block(self) -> int:
        return int(self.pause_density * _PAD_BLOCK)

    def schedule(self, seed: int) -> Iterator[int]:
        pauses_per_block = self._pauses_per_block()
        ordinals = count()
        for block in count():
            rng = derived_rng("padded", seed, block)
            pause_slots = set(rng.sample(range(_PAD_BLOCK), pauses_per_block))
            for slot in range(_PAD_BLOCK):
                yield -1 if slot in pause_slots else next(ordinals)

    def deadline(self, k: int) -> int:
        """The end of the block holding ordinal k: each block lists the next ordinals in order."""
        return _PAD_BLOCK * (k // (_PAD_BLOCK - self._pauses_per_block()) + 1)


@dataclass(frozen=True)
class ShuffledWindow(_Strategy):
    """Canonical order permuted within consecutive windows of fixed size."""

    name: ClassVar[str] = "shuffled-window"
    window: int = 4

    def __post_init__(self) -> None:
        # A window is held in memory whole before its first datum is yielded.
        if type(self.window) is not int or not 1 <= self.window <= 1 << 16:
            raise ValueError(
                f"window size must be an integer from 1 to {1 << 16}, got {self.window!r}"
            )

    def schedule(self, seed: int) -> Iterator[int]:
        w = self.window
        for block in count():
            chunk = list(range(block * w, (block + 1) * w))
            derived_rng("window", seed, block).shuffle(chunk)
            yield from chunk

    def deadline(self, k: int) -> int:
        """The end of the window holding ordinal k."""
        return self.window * (k // self.window + 1)


@dataclass(frozen=True)
class RepetitionHeavy(_Strategy):
    """Canonical order with elements repeated up to twice extra at a fixed rate."""

    name: ClassVar[str] = "repetition-heavy"
    repeat_rate: float = 0.25

    def __post_init__(self) -> None:
        _check_rate(self.repeat_rate, "repeat rate")

    def schedule(self, seed: int) -> Iterator[int]:
        for k in count():
            rng = derived_rng("repeat", seed, k)
            reps = 1 + (rng.random() < self.repeat_rate) + (rng.random() < self.repeat_rate)
            yield from repeat(k, reps)

    def deadline(self, k: int) -> int:
        """Past the at most three positions of each ordinal before k."""
        return 3 * k + 1


TextStrategy = Canonical | Padded | ShuffledWindow | RepetitionHeavy

STRATEGIES: dict[str, type[TextStrategy]] = {
    cls.name: cls for cls in (Canonical, Padded, ShuffledWindow, RepetitionHeavy)
}


def _checked(strategy: TextStrategy) -> TextStrategy:
    """``strategy`` itself, or TypeError if it is not a text strategy (a name, say)."""
    if not isinstance(strategy, TextStrategy):
        raise TypeError(f"unknown text strategy: {strategy!r}")
    return strategy


def _ordinals(strategy: TextStrategy, seed: int) -> Callable[[], Iterator[int]]:
    """Fresh reads of ``strategy``'s schedule at ``seed``."""
    return partial(_checked(strategy).schedule, seed)


def make_fate(lang: "LanguageRepr", strategy: TextStrategy, seed: int = 0) -> Fate:
    """``lang``'s text under a text strategy: the strategy's schedule at ``seed``, relabelled.

    By the strategy contract (``_Strategy``) the k-th canonical element
    appears by a computable deadline, so the limiting content of the fate is
    the language; the empty language's fate is all pauses.
    """
    ordinals, reduce, read = _ordinals(strategy, seed), _reduction(lang.size), _reader(lang)
    return Fate(lambda: read(reduce(ordinals())), lang)


@dataclass(frozen=True, eq=False)
class Schedule:
    """A strategy's schedule at one seed, its first ``n`` positions drawn once.

    ``drawn`` holds the ordinal at each drawn position, or -1 for a pause, as
    native 8-byte words. ``key(size)`` reduces it by the relabel rule for a
    language of that size, and ``reader(lang)`` reads ``lang``'s text off such
    a key with ``make_fate``'s reader: the same text as ``make_fate``'s,
    without drawing the strategy's randomness again. A caller draws only the
    positions that can matter to it, up to a deadline (``identify_class``).
    """

    drawn: bytes

    @classmethod
    def draw(cls, strategy: TextStrategy, seed: int, n: int) -> Schedule:
        """The first ``n`` positions of ``strategy``'s schedule at ``seed``."""
        return cls(array("q", islice(_ordinals(strategy, seed)(), n)).tobytes())

    def key(self, size: int | None) -> bytes:
        """The text of a language of ``size`` over the drawn positions, compactly.

        The relabel rule's reduced ordinals, one byte each for at most 128
        members (they run from -1 to size - 1), else eight. An infinite
        language keeps every ordinal, so its key is ``drawn`` itself. Schedules
        with equal keys for a size give every language of that size the same
        text up to their drawn length.
        """
        if size is None:
            return self.drawn
        ordinals = memoryview(self.drawn).cast("q")
        return array(_key_code(size), _reduction(size)(ordinals)).tobytes()

    @staticmethod
    def reader(lang: "LanguageRepr") -> Callable[[bytes], tuple[Datum, ...]]:
        """``lang``'s text from its key, read as ``make_fate`` reads it (``_reader``)."""
        read, code = _reader(lang), _key_code(lang.size)
        return lambda key: tuple(read(memoryview(key).cast(code)))


def _key_code(size: int | None) -> str:
    """The array type code of a key for a language of ``size``: bytes up to 128 members."""
    return "q" if size is None or size > 128 else "b"
