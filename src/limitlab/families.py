"""Indexed hypothesis spaces: every natural number names a language.

A family lists a finite roster of special (typically infinite) languages and
then enumerates every finite artefact set through a bit-set code, so grammar
indices are total over the naturals while membership stays decidable and
enumeration stays computable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Mapping

from .core import UNIVERSES, Artefact, Universe

__all__ = [
    "AnnotationFamily",
    "Equality",
    "IndeterminateError",
    "LANGUAGES",
    "LanguageFamily",
    "LanguageRepr",
    "NotInFamilyError",
    "all_language",
    "compare_languages",
    "decode_finite_set",
    "encode_finite_set",
    "evens_language",
    "family_from_config",
    "finite_language",
    "odds_language",
    "pair",
    "registry_oracle",
    "resolve_language",
    "unpair",
]


class Equality(Enum):
    """Three-valued semantic comparison; UNKNOWN is a value, not an error."""

    EQUAL = "equal"
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"


class NotInFamilyError(LookupError):
    """No family index denotes the requested language."""


class IndeterminateError(LookupError):
    """Undecided comparisons below a candidate block the minimality claim."""


def encode_finite_set(artefacts: Iterable[Artefact]) -> int:
    """Bit-set code of a finite artefact set: bit r is set iff some member has rank r."""
    code = 0
    for a in artefacts:
        code |= 1 << a.rank
    return code


def _ranks(code: int, start: int = 0) -> list[int]:
    """The ranks whose bits are set in a set code, from ``start`` up, ascending."""
    # One linear scan of the binary digits, least significant first; shifting
    # the big int instead would copy it once per bit.
    bits = bin(code >> start)[:1:-1]
    return [start + r for r, bit in enumerate(bits) if bit == "1"]


def decode_finite_set(code: int, universe: Universe) -> frozenset:
    if code < 0:
        raise ValueError(f"set code must be >= 0, got {code}")
    return frozenset(map(universe.artefact, _ranks(code)))


def pair(x: int, y: int) -> int:
    """Cantor pairing, a bijection between pairs of naturals and naturals."""
    return (x + y) * (x + y + 1) // 2 + y


def unpair(n: int) -> tuple[int, int]:
    w = (math.isqrt(8 * n + 1) - 1) // 2
    y = n - w * (w + 1) // 2
    return w - y, y


@dataclass(frozen=True, eq=False)
class LanguageRepr:
    """A language as a decidable membership test plus a canonical enumeration.

    ``element(k)`` is the k-th member in canonical order, or None past the end
    of a finite language, which is its set ``code``. ``code`` is None for
    declared-infinite languages, which carry a ``label`` naming their identity.
    """

    contains: Callable[[Artefact], bool]
    element: Callable[[int], Artefact | None]
    code: int | None = None
    label: str | None = None

    @property
    def size(self) -> int | None:
        return None if self.code is None else self.code.bit_count()

    def describe(self) -> str:
        if self.label is not None:
            return self.label
        return _set_literal(self.element(k).token for k in range(self.size))


def _set_literal(tokens: Iterable[str]) -> str:
    """The literal of a finite set, from its members' tokens in rank order."""
    return "{" + ",".join(tokens) + "}"


def finite_language(universe: Universe, artefacts: Iterable[Artefact]) -> LanguageRepr:
    return _tail_language(universe, encode_finite_set(artefacts))


def _tail_language(universe: Universe, code: int) -> LanguageRepr:
    """The finite language with set code ``code``, decoded on first enumeration only.

    Membership is a bit test plus a token check, so an artefact of another
    universe with a member's rank stays a non-member.
    """
    to_token = universe.to_token
    decoded: list[tuple] = []  # the members in rank order, once decoded

    def contains(a: Artefact) -> bool:
        rank = a.rank
        return (code >> rank) & 1 == 1 and a.token == to_token(rank)

    def element(k: int) -> Artefact | None:
        if not decoded:
            decoded.append(tuple(map(universe.artefact, _ranks(code))))
        ordered = decoded[0]
        return ordered[k] if 0 <= k < len(ordered) else None

    return LanguageRepr(contains=contains, element=element, code=code)


def evens_language(universe: Universe) -> LanguageRepr:
    # Positive even ranks only: 2, 4, 6, ...
    return LanguageRepr(
        contains=lambda a: a.rank > 0 and a.rank % 2 == 0,
        element=lambda k: universe.artefact(2 * (k + 1)),
        label="evens",
    )


def odds_language(universe: Universe) -> LanguageRepr:
    return LanguageRepr(
        contains=lambda a: a.rank % 2 == 1,
        element=lambda k: universe.artefact(2 * k + 1),
        label="odds",
    )


def all_language(universe: Universe) -> LanguageRepr:
    return LanguageRepr(
        contains=lambda a: True,
        element=universe.artefact,
        label="all",
    )


LANGUAGES: dict[str, Callable[[Universe], LanguageRepr]] = {
    "evens": evens_language,
    "odds": odds_language,
    "all": all_language,
}


Oracle = Mapping[frozenset, Equality]


def registry_oracle() -> dict[frozenset, Equality]:
    """Pairwise distinctness facts for the registered special languages."""
    names = sorted(LANGUAGES)
    facts: dict[frozenset, Equality] = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            facts[frozenset({a, b})] = Equality.NOT_EQUAL
    return facts


def compare_languages(
    a: LanguageRepr, b: LanguageRepr, oracle: Oracle | None = None
) -> Equality:
    """Sound three-valued equality: EQUAL and NOT_EQUAL answers are decisive.

    A finite language is its set code: with a finite side, equal codes are
    EQUAL and all else NOT_EQUAL, no decode. Both must share one universe.
    """
    if a is b:
        return Equality.EQUAL
    if a.code is not None or b.code is not None:
        return Equality.EQUAL if a.code == b.code else Equality.NOT_EQUAL
    if a.label is not None and b.label is not None:
        if a.label == b.label:
            return Equality.EQUAL
        if oracle is not None:
            verdict = oracle.get(frozenset({a.label, b.label}))
            if verdict is not None:
                return verdict
    return Equality.UNKNOWN


@dataclass(frozen=True, eq=False)
class LanguageFamily:
    """Roster of specials followed by the canonical finite-set tail.

    Index p < len(specials) names the p-th special; index len(specials) + n
    names the finite set with bit-set code n. Every natural is a valid index.
    """

    universe: Universe
    specials: tuple = ()
    oracle: Oracle | None = None

    @property
    def offset(self) -> int:
        return len(self.specials)

    def language_of(self, p: int) -> LanguageRepr:
        if p < 0:
            raise ValueError(f"hypothesis index must be >= 0, got {p}")
        if p < self.offset:
            return self.specials[p]
        return _tail_language(self.universe, p - self.offset)

    def finite_index(self, artefacts: Iterable[Artefact]) -> int:
        """Index of a finite language in the tail (ignoring duplicate specials)."""
        return self.offset + encode_finite_set(artefacts)

    def semantic_equals(self, p: int, q: int) -> Equality:
        if p == q and p >= 0:
            return Equality.EQUAL
        low, high = sorted((p, q))  # a negative low fails in language_of
        if low >= self.offset:
            # compare_languages's code rule, without building two tail languages.
            return Equality.NOT_EQUAL
        return self.compare_index_with(high, self.language_of(low))

    def compare_index_with(self, p: int, target: LanguageRepr) -> Equality:
        return compare_languages(self.language_of(p), target, self.oracle)

    def min_index_for(self, target: LanguageRepr) -> int:
        """Least index denoting ``target``.

        Raises NotInFamilyError when no index compares EQUAL, and
        IndeterminateError when an UNKNOWN comparison sits below the best
        candidate, leaving minimality uncertifiable.
        """
        best: int | None = None
        unknown_below: list[int] = []
        for p, special in enumerate(self.specials):
            verdict = compare_languages(special, target, self.oracle)
            if verdict is Equality.EQUAL:
                best = p
                break
            if verdict is Equality.UNKNOWN:
                unknown_below.append(p)
        if best is None and target.code is not None:
            best = self.offset + target.code
        if best is None:
            raise NotInFamilyError(
                f"no index denotes {target.describe()} in this family"
            )
        if any(u < best for u in unknown_below):
            raise IndeterminateError(
                f"equality with index {unknown_below[0]} is undecided below "
                f"candidate {best}"
            )
        return best

    def tail_set_literals(self, indices: Iterable[int]) -> list[str | None]:
        """The decoded set literal of each index in the finite-set tail.

        A special index gives ``None``. The first tail index decodes; every
        later one patches the sorted ranks and tokens of the code before it,
        one flipped bit at a time, so the consecutive indices of a trace cost
        about their literal's length each.
        """
        offset, universe = self.offset, self.universe
        literals: list[str | None] = []
        code: int | None = None  # the last tail code rendered
        ranks: list[int] = []  # its members, in rank order
        tokens: list[str] = []
        for p in indices:
            if p < offset:
                if p < 0:
                    raise ValueError(f"hypothesis index must be >= 0, got {p}")
                literals.append(None)
                continue
            new = p - offset
            if code is None:
                members = sorted(decode_finite_set(new, universe), key=attrgetter("rank"))
                ranks = [a.rank for a in members]
                tokens = [a.token for a in members]
            else:
                flips = new ^ code
                while flips:
                    rank = flips.bit_length() - 1
                    flips ^= 1 << rank
                    at = bisect_left(ranks, rank)
                    if at < len(ranks) and ranks[at] == rank:
                        del ranks[at], tokens[at]
                    else:
                        ranks.insert(at, rank)
                        tokens.insert(at, universe.to_token(rank))
            code = new
            literals.append(_set_literal(tokens))
        return literals


@dataclass(frozen=True, eq=False)
class AnnotationFamily:
    """Pairs an annotation counter onto a base family's indices.

    Index pair(b, k) denotes exactly what b denotes in the base family, so
    annotated conjectures can churn syntactically while holding one language.
    """

    base: LanguageFamily

    @property
    def universe(self) -> Universe:
        return self.base.universe

    @property
    def oracle(self) -> Oracle | None:
        return self.base.oracle

    def _base_index(self, p: int) -> int:
        if p < 0:
            raise ValueError(f"hypothesis index must be >= 0, got {p}")
        return unpair(p)[0]

    def language_of(self, p: int) -> LanguageRepr:
        return self.base.language_of(self._base_index(p))

    def semantic_equals(self, p: int, q: int) -> Equality:
        if p == q and p >= 0:
            return Equality.EQUAL
        return self.base.semantic_equals(self._base_index(p), self._base_index(q))

    def compare_index_with(self, p: int, target: LanguageRepr) -> Equality:
        return self.base.compare_index_with(self._base_index(p), target)

    def tail_set_literals(self, indices: Iterable[int]) -> list[str | None]:
        return self.base.tail_set_literals(map(self._base_index, indices))


def resolve_language(spec: str, universe: Universe) -> LanguageRepr:
    """Parse a language spec: a registry name or a finite literal like {2,4}."""
    if not isinstance(spec, str):
        raise ValueError(f"language spec must be a string, got {spec!r}")
    s = spec.strip()
    if s.startswith("{") and s.endswith("}"):
        inner = s[1:-1].strip()
        tokens = [t.strip() for t in inner.split(",") if t.strip()] if inner else []
        return finite_language(universe, (universe.parse(t) for t in tokens))
    if s in LANGUAGES:
        return LANGUAGES[s](universe)
    raise ValueError(f"unknown language: {spec!r}")


def family_from_config(config: Mapping) -> LanguageFamily:
    """Build a family from a declarative descriptor.

    Keys: ``universe`` (registry name, default "decimal"), ``specials``
    (ordered registry names), ``registry_oracle`` (bool, default True:
    install the shipped distinctness facts for registered specials).
    Any other key is an error.
    """
    unknown = sorted(set(config) - {"universe", "specials", "registry_oracle"})
    if unknown:
        raise ValueError(f"family takes no {', '.join(map(repr, unknown))} entry")
    universe_name = config.get("universe", "decimal")
    if universe_name not in UNIVERSES:
        raise ValueError(f"unknown universe: {universe_name!r}")
    universe = UNIVERSES[universe_name]()
    names = config.get("specials", [])
    if not isinstance(names, list):
        raise ValueError(f"specials must be a list, got {names!r}")
    specials = []
    for name in names:
        if name not in LANGUAGES:
            raise ValueError(f"unknown special language: {name!r}")
        specials.append(LANGUAGES[name](universe))
    use_oracle = config.get("registry_oracle", True)
    if not isinstance(use_oracle, bool):
        raise ValueError(f"registry_oracle must be true or false, got {use_oracle!r}")
    oracle = registry_oracle() if use_oracle else None
    return LanguageFamily(universe, tuple(specials), oracle)
