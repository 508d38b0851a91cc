"""Index plumbing: set codes, language lookup, three-valued equality."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    U,
    art,
    reference_compare_index_with,
    reference_semantic_equals,
    standard_family,
)
from limitlab import (
    Equality,
    IndeterminateError,
    LanguageFamily,
    LanguageRepr,
    NotInFamilyError,
    all_language,
    compare_languages,
    decode_finite_set,
    encode_finite_set,
    evens_language,
    family_from_config,
    finite_language,
    letters_universe,
    odds_language,
    pair,
    registry_oracle,
    resolve_language,
    unpair,
)
from limitlab import families
from limitlab.families import AnnotationFamily

FAM = standard_family()
PLAIN = standard_family(oracle=False)
EVENS = FAM.specials[0]
ODDS = FAM.specials[1]


def finite(*ranks):
    return finite_language(U, tuple(art(r) for r in ranks))


# ---------------------------------------------------------------------------
# set codes


def test_encode_matches_power_sum():
    assert encode_finite_set({art(2), art(4)}) == 2**2 + 2**4
    assert encode_finite_set(()) == 0


def test_decode_zero_is_empty():
    assert decode_finite_set(0, U) == frozenset()


@given(st.sets(st.integers(0, 15)))
def test_code_round_trips_from_sets(ranks):
    members = frozenset(art(r) for r in ranks)
    assert decode_finite_set(encode_finite_set(members), U) == members


@given(st.integers(0, 2**16 - 1))
def test_code_round_trips_from_naturals(n):
    assert encode_finite_set(decode_finite_set(n, U)) == n


@given(st.sets(st.integers(0, 50_000), max_size=40))
def test_code_round_trips_from_sets_with_large_ranks(ranks):
    members = frozenset(art(r) for r in ranks)
    assert decode_finite_set(encode_finite_set(members), U) == members


def test_decode_dense_and_sparse_large_codes():
    assert decode_finite_set(1 << 50_000, U) == {art(50_000)}
    assert decode_finite_set((1 << 3000) - 1, U) == {art(r) for r in range(3000)}


# ---------------------------------------------------------------------------
# pairing


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_pairing_round_trip(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(st.integers(0, 200_000))
def test_pairing_is_onto(n):
    x, y = unpair(n)
    assert pair(x, y) == n


# ---------------------------------------------------------------------------
# language_of


def test_roster_indices_name_the_specials():
    assert FAM.language_of(0) is EVENS
    assert FAM.language_of(1) is ODDS


def test_tail_index_names_coded_finite_set():
    code = 2**2 + 2**4
    lang = FAM.language_of(FAM.offset + code)
    assert lang.finite_members() == {art(2), art(4)}


def test_tail_zero_is_empty_language():
    assert FAM.language_of(FAM.offset).finite_members() == frozenset()


def test_language_of_is_deterministic():
    for p in (0, 1, 2, 7, 100):
        first, second = FAM.language_of(p), FAM.language_of(p)
        assert compare_languages(first, second) is Equality.EQUAL


def test_enumeration_agrees_with_membership():
    for p in range(40):
        lang = FAM.language_of(p)
        bound = 25 if lang.size is None else lang.size
        seen = set()
        for k in range(bound):
            a = lang.element(k)
            assert lang.contains(a)
            assert a not in seen
            seen.add(a)


LETTERS = letters_universe()
# Each tail family paired with a universe whose artefacts it must never contain.
TAIL_CASES = [(FAM, LETTERS), (LanguageFamily(LETTERS), U)]
set_codes = st.one_of(
    st.integers(0, 2**70),
    st.sets(st.integers(0, 400), max_size=10).map(lambda ranks: sum(1 << r for r in ranks)),
)


@pytest.mark.parametrize("fam, foreign", TAIL_CASES, ids=["decimal", "letters"])
@given(code=set_codes)
def test_tail_language_agrees_with_the_decoded_finite_language(fam, foreign, code):
    lazy = fam.language_of(fam.offset + code)
    reference = finite_language(fam.universe, decode_finite_set(code, fam.universe))
    for rank in range(code.bit_length() + 3):
        a = fam.universe.artefact(rank)
        assert lazy.contains(a) == reference.contains(a)
        assert lazy.contains(foreign.artefact(rank)) == reference.contains(foreign.artefact(rank))
    assert lazy.size == reference.size
    for k in range(-1, lazy.size + 1):
        assert lazy.element(k) == reference.element(k)
    assert lazy.finite_members() == reference.finite_members()
    assert lazy.describe() == reference.describe()


def test_tail_membership_and_size_do_not_decode(monkeypatch):
    def refuse(code, universe):
        raise AssertionError("decoded")

    monkeypatch.setattr(families, "decode_finite_set", refuse)
    lang = FAM.language_of(FAM.offset + 2**2 + 2**400)
    assert lang.size == 2
    assert lang.contains(art(400)) and lang.contains(art(2))
    assert not lang.contains(art(3)) and not lang.contains(art(401))
    assert not lang.contains(LETTERS.artefact(2))


def test_finite_enumeration_defined_exactly_below_size():
    lang = finite(1, 5, 9)
    assert [lang.element(k).rank for k in range(3)] == [1, 5, 9]
    assert lang.element(3) is None
    assert lang.element(-1) is None


# ---------------------------------------------------------------------------
# semantic_equals


def test_reflexive_indices_are_equal():
    for p in (0, 1, 5, 17):
        assert FAM.semantic_equals(p, p) is Equality.EQUAL


def test_infinite_vs_finite_is_not_equal():
    assert compare_languages(EVENS, finite(2, 4)) is Equality.NOT_EQUAL


def test_distinct_specials_without_oracle_are_unknown():
    assert PLAIN.semantic_equals(0, 1) is Equality.UNKNOWN


def test_distinct_specials_with_registry_oracle_differ():
    assert FAM.semantic_equals(0, 1) is Equality.NOT_EQUAL


def test_equal_codes_compare_equal_across_index_forms():
    p = FAM.finite_index({art(2), art(4)})
    q = FAM.finite_index({art(4), art(2)})
    assert p == q
    assert FAM.semantic_equals(p, q) is Equality.EQUAL


def test_semantic_equals_symmetry_and_transitivity():
    indices = [0, 1, FAM.offset, FAM.offset + 4, FAM.offset + 20, FAM.offset + 20]
    for p in indices:
        for q in indices:
            assert FAM.semantic_equals(p, q) is FAM.semantic_equals(q, p)
    for p in indices:
        for q in indices:
            for r in indices:
                if (
                    FAM.semantic_equals(p, q) is Equality.EQUAL
                    and FAM.semantic_equals(q, r) is Equality.EQUAL
                ):
                    assert FAM.semantic_equals(p, r) is Equality.EQUAL


# ---------------------------------------------------------------------------
# min_index_for


def test_min_index_prefers_roster():
    assert FAM.min_index_for(evens_language(U)) == 0
    assert FAM.min_index_for(odds_language(U)) == 1


def test_min_index_finds_tail_code():
    assert FAM.min_index_for(finite(2, 4)) == FAM.offset + 20


def test_min_index_prefers_duplicate_special():
    fam = LanguageFamily(U, (finite(2, 4),))
    assert fam.min_index_for(finite(2, 4)) == 0


def test_min_index_missing_language_raises():
    primes = LanguageRepr(
        contains=lambda a: a.rank in (2, 3, 5, 7, 11, 13),
        element=lambda k: art((2, 3, 5, 7, 11, 13)[k % 6]),
        size=None,
        label="primes",
    )
    fam = LanguageFamily(U, (evens_language(U),))
    with pytest.raises(NotInFamilyError):
        fam.min_index_for(primes)


def test_min_index_blocked_by_unknown_below_raises():
    mystery = LanguageRepr(
        contains=lambda a: True,
        element=lambda k: art(k),
        size=None,
        label="mystery",
    )
    fam = LanguageFamily(U, (mystery, odds_language(U)))
    with pytest.raises(IndeterminateError):
        fam.min_index_for(odds_language(U))


# ---------------------------------------------------------------------------
# annotation family


@given(st.integers(0, 500), st.integers(0, 500))
def test_annotation_family_ignores_the_note(b, k):
    wrapped = AnnotationFamily(FAM)
    noted = wrapped.language_of(pair(b, k))
    base = FAM.language_of(b)
    assert compare_languages(noted, base, FAM.oracle) is Equality.EQUAL


def test_annotation_family_tail_literal_comes_from_base():
    wrapped = AnnotationFamily(FAM)
    p = pair(FAM.finite_index({art(2)}), 9)
    assert wrapped.tail_set_literal(p) == "{2}"
    assert wrapped.tail_set_literal(pair(0, 3)) is None


# ---------------------------------------------------------------------------
# config plumbing


def test_resolve_language_literals_and_names():
    assert resolve_language("{2,4}", U).finite_members() == {art(2), art(4)}
    assert resolve_language("{}", U).finite_members() == frozenset()
    assert resolve_language("evens", U).label == "evens"
    with pytest.raises(ValueError):
        resolve_language("primes", U)


def test_family_from_config():
    fam = family_from_config({"universe": "decimal", "specials": ["evens", "odds"]})
    assert [s.label for s in fam.specials] == ["evens", "odds"]
    assert fam.semantic_equals(0, 1) is Equality.NOT_EQUAL
    bare = family_from_config({"specials": [], "registry_oracle": False})
    assert bare.oracle is None


def test_family_from_config_rejects_unknown_names():
    with pytest.raises(ValueError):
        family_from_config({"universe": "martian"})
    with pytest.raises(ValueError):
        family_from_config({"specials": ["primes"]})


def test_family_from_config_rejects_wrongly_typed_values():
    with pytest.raises(ValueError, match="specials must be a list"):
        family_from_config({"specials": "evens"})
    with pytest.raises(ValueError, match="registry_oracle must be true or false"):
        family_from_config({"registry_oracle": "no"})


def test_registry_oracle_is_pairwise_not_equal():
    oracle = registry_oracle()
    assert oracle[frozenset({"evens", "odds"})] is Equality.NOT_EQUAL
    assert oracle[frozenset({"evens", "all"})] is Equality.NOT_EQUAL


def test_describe_labels_and_literals():
    assert EVENS.describe() == "evens"
    assert finite(4, 2).describe() == "{2,4}"
    assert finite().describe() == "{}"


# ---------------------------------------------------------------------------
# fast comparisons against decode-and-compare

FINITE_SPECIAL = LanguageFamily(U, (EVENS, finite(2, 4), ODDS), registry_oracle())
COMPARE_FAMILIES = {
    "oracle": FAM,
    "plain": PLAIN,
    "finite-special": FINITE_SPECIAL,
    "annotated": AnnotationFamily(FAM),
    "annotated-finite-special": AnnotationFamily(FINITE_SPECIAL),
}
# Each family gets indices from its roster, the start of the tail, and a few
# large tail codes; annotated families pair them with a note.
base_indices = st.one_of(
    st.integers(0, 40), st.integers(0, 2**70).map(lambda n: n | (1 << 71))
)
COMPARE_TARGETS = (
    EVENS,
    ODDS,
    evens_language(U),  # equal to EVENS by label, not by identity
    all_language(U),
    finite(),
    finite(2, 4),
    finite(0, 3, 71),
)


def family_index(name: str, base: int, note: int) -> int:
    return pair(base, note) if name.startswith("annotated") else base


@pytest.mark.parametrize("name", sorted(COMPARE_FAMILIES))
@given(base_indices, base_indices, st.integers(0, 5), st.integers(0, 5))
def test_semantic_equals_matches_decoding(name, b, c, note_b, note_c):
    family = COMPARE_FAMILIES[name]
    p, q = family_index(name, b, note_b), family_index(name, c, note_c)
    assert family.semantic_equals(p, q) is reference_semantic_equals(family, p, q)


@pytest.mark.parametrize("name", sorted(COMPARE_FAMILIES))
@pytest.mark.parametrize("target", COMPARE_TARGETS, ids=LanguageRepr.describe)
@given(base_indices, st.integers(0, 5))
def test_compare_index_with_matches_decoding(name, target, b, note):
    family = COMPARE_FAMILIES[name]
    p = family_index(name, b, note)
    expected = reference_compare_index_with(family, p, target)
    assert family.compare_index_with(p, target) is expected


@pytest.mark.parametrize("name", sorted(COMPARE_FAMILIES))
def test_fast_comparisons_reject_negative_indices(name):
    family = COMPARE_FAMILIES[name]
    with pytest.raises(ValueError):
        family.semantic_equals(-1, 3)
    with pytest.raises(ValueError):
        family.compare_index_with(-1, EVENS)
