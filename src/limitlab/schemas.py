"""Situations and the dichotomic rating schemas over artefacts.

A situation pairs a scientist with an experience. Novelty asks whether an
artefact is absent from the inspiring set; transformativeness asks whether
appending it moves the scientist's conjecture. The semantic variant compares
the denoted languages instead of the raw indices and may be indeterminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final, Union

from .core import Artefact, Experience
from .families import Equality, LanguageRepr
from .scientists import Scientist

__all__ = [
    "INDETERMINATE",
    "Situation",
    "Verdict",
    "change_verdict",
    "hypothetical_space",
    "novelty",
    "semantic_transformativeness",
    "transformativeness",
]

INDETERMINATE: Final = "indeterminate"

# Decisive schemas return 0 or 1; the semantic variant may also return
# INDETERMINATE when the underlying language comparison is undecided.
Verdict = Union[int, str]


@dataclass(frozen=True)
class Situation:
    """An ordered (scientist, experience) pair; fixes one hypothetical space."""

    scientist: Scientist
    experience: Experience


def hypothetical_space(s: Situation) -> LanguageRepr:
    """The language denoted by the scientist's conjecture in this situation."""
    return s.scientist.family.language_of(s.scientist.conjecture(s.experience))


def _require_artefact(a: Artefact) -> None:
    if not isinstance(a, Artefact):
        raise TypeError(f"schemas rate artefacts only, got {a!r}")


def novelty(a: Artefact, s: Situation) -> int:
    """1 iff the artefact is absent from the inspiring set.

    Depends on the experience alone, never on the scientist, so any scientist
    can compute it exactly.
    """
    _require_artefact(a)
    return int(a not in s.experience.items)  # a pause never equals an artefact


def transformativeness(a: Artefact, s: Situation) -> int:
    """1 iff appending the artefact changes the conjectured index."""
    _require_artefact(a)
    before = s.scientist.conjecture(s.experience)
    after = s.scientist.conjecture(s.experience.append(a))
    return int(before != after)


def semantic_transformativeness(a: Artefact, s: Situation) -> Verdict:
    """1 iff appending the artefact provably changes the denoted language.

    0 on a provably equal language, INDETERMINATE when the comparison is
    undecided.
    """
    _require_artefact(a)
    before = s.scientist.conjecture(s.experience)
    after = s.scientist.conjecture(s.experience.append(a))
    return change_verdict(s.scientist.family.semantic_equals(before, after))


def change_verdict(equality: Equality) -> Verdict:
    """The semantic-change flag of a before/after comparison: 0, 1 or INDETERMINATE."""
    if equality is Equality.EQUAL:
        return 0
    if equality is Equality.NOT_EQUAL:
        return 1
    return INDETERMINATE
