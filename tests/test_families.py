"""Index plumbing: set codes, language lookup, three-valued equality."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    U,
    art,
    experiences,
    members,
    reference_compare_index_with,
    reference_compare_languages,
    reference_finite_language,
    reference_semantic_equals,
    reference_set_literal,
    standard_family,
)
from limitlab import (
    LANGUAGES,
    Artefact,
    Equality,
    Experience,
    IndeterminateError,
    LanguageFamily,
    LanguageRepr,
    NotInFamilyError,
    all_language,
    build_scientist,
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


def test_encode_sets_one_bit_per_distinct_rank():
    # Artefacts from different universes may share a rank; a sum would carry.
    clash = frozenset({Artefact("a", 0), Artefact("0", 0)})
    assert encode_finite_set(clash) == 1
    assert encode_finite_set([art(3), art(3), Artefact("d", 3), art(1)]) == 2**3 + 2**1


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
    assert members(lang) == {art(2), art(4)}


def test_tail_zero_is_empty_language():
    assert members(FAM.language_of(FAM.offset)) == frozenset()


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
    reference = reference_finite_language(fam.universe, decode_finite_set(code, fam.universe))
    for rank in range(code.bit_length() + 3):
        a = fam.universe.artefact(rank)
        assert lazy.contains(a) == reference.contains(a)
        assert lazy.contains(foreign.artefact(rank)) == reference.contains(foreign.artefact(rank))
    assert lazy.size == reference.size
    for k in range(-1, lazy.size + 1):
        assert lazy.element(k) == reference.element(k)
    assert members(lazy) == members(reference)
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


def test_finite_comparisons_do_not_decode(monkeypatch):
    def refuse(code, universe):
        raise AssertionError("decoded")

    monkeypatch.setattr(families, "decode_finite_set", refuse)
    big = finite(2, 400)
    assert compare_languages(big, finite(400, 2)) is Equality.EQUAL
    assert compare_languages(big, finite(2)) is Equality.NOT_EQUAL
    assert compare_languages(big, EVENS, FAM.oracle) is Equality.NOT_EQUAL
    assert compare_languages(ODDS, finite()) is Equality.NOT_EQUAL
    p = FAM.offset + 2**2 + 2**400
    assert FAM.compare_index_with(p, big) is Equality.EQUAL
    assert FAM.compare_index_with(p, finite(400)) is Equality.NOT_EQUAL
    assert FAM.min_index_for(big) == p
    assert FINITE_SPECIAL.min_index_for(finite(4, 2)) == 1


languages = st.one_of(
    st.sets(st.integers(0, 12), max_size=4).map(lambda ranks: finite(*ranks)),
    st.sets(st.integers(0, 12), max_size=4).map(
        lambda ranks: reference_finite_language(U, (art(r) for r in ranks))
    ),
    st.sampled_from(sorted(LANGUAGES)).map(lambda name: LANGUAGES[name](U)),
    st.sampled_from((EVENS, ODDS)),
)


@given(languages, languages, st.sampled_from((None, registry_oracle())))
def test_compare_languages_matches_member_sets(a, b, oracle):
    assert compare_languages(a, b, oracle) is reference_compare_languages(a, b, oracle)


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
        label="primes",
    )
    fam = LanguageFamily(U, (evens_language(U),))
    with pytest.raises(NotInFamilyError):
        fam.min_index_for(primes)


def test_min_index_blocked_by_unknown_below_raises():
    mystery = LanguageRepr(
        contains=lambda a: True,
        element=lambda k: art(k),
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
    assert wrapped.tail_set_literals([p]) == ["{2}"]
    assert wrapped.tail_set_literals([pair(0, 3)]) == [None]


# ---------------------------------------------------------------------------
# incremental set literals


@st.composite
def code_walks(draw):
    """Set codes in a row: bit flips (up to a dozen at once), jumps, zero.

    A ``None`` stands for index 0, a special in a family that has specials.
    """
    code = draw(st.one_of(st.just(0), st.integers(0, 2**70)))
    codes = [code]
    for _ in range(draw(st.integers(0, 12))):
        move = draw(st.sampled_from(("flip", "flip", "flip", "jump", "zero", "special")))
        if move == "flip":
            for rank in draw(st.lists(st.integers(0, 90), max_size=12)):
                code ^= 1 << rank
        elif move == "jump":
            code = draw(st.integers(0, 2**200))
        elif move == "zero":
            code = 0
        codes.append(None if move == "special" else code)
    return codes


@pytest.mark.parametrize("fam", [FAM, LanguageFamily(LETTERS)], ids=["decimal", "letters"])
@settings(max_examples=200)
@given(codes=code_walks(), notes=st.lists(st.integers(0, 50), min_size=14, max_size=14))
def test_tail_set_literals_match_per_index_decoding(fam, codes, notes):
    indices = [0 if c is None else fam.offset + c for c in codes]
    expected = [reference_set_literal(fam, p) for p in indices]
    assert fam.tail_set_literals(indices) == expected
    assert fam.tail_set_literals(iter(indices)) == expected
    wrapped = AnnotationFamily(fam)
    paired = [pair(p, k) for p, k in zip(indices, notes)]
    assert wrapped.tail_set_literals(paired) == expected


TRACE_SPECS = ("memorizer", "last_novel", "set_driven:last_novel", "enumeration",
               "confidence_annotating:memorizer:1", "confidence_annotating:last_novel:2")


@pytest.mark.parametrize("spec", TRACE_SPECS)
@settings(max_examples=60)
@given(sigma=experiences(max_rank=12, max_len=30))
def test_tail_set_literals_match_along_scientist_traces(spec, sigma):
    # Growing (memorizer), jumping (last_novel), dipping below the offset
    # (enumeration) and paired (annotator) index sequences.
    sci = build_scientist(spec, FAM)
    indices = [sci.conjecture(Experience(sigma.items[:n])) for n in range(len(sigma) + 1)]
    literals = sci.family.tail_set_literals(indices)
    assert literals == [reference_set_literal(sci.family, p) for p in indices]


def test_tail_set_literals_decode_only_the_first_tail_index(monkeypatch):
    decoded = []

    def counting_decode(code, universe):
        decoded.append(code)
        return decode_finite_set(code, universe)

    monkeypatch.setattr(families, "decode_finite_set", counting_decode)
    codes = [0, 1, 5, None, 4, 4 | 1 << 300, 1 << 300]  # None: the special at index 1
    literals = FAM.tail_set_literals([1 if c is None else FAM.offset + c for c in codes])
    assert literals == ["{}", "{0}", "{0,2}", None, "{2}", "{2,300}", "{300}"]
    assert decoded == [0]
    jump = (1 << 200) - 1  # two hundred bits flip at once
    assert FAM.tail_set_literals([FAM.offset + 1, FAM.offset + jump]) == [
        "{0}", reference_set_literal(FAM, FAM.offset + jump)]
    assert decoded == [0, 1]


# ---------------------------------------------------------------------------
# config plumbing


def test_resolve_language_literals_and_names():
    assert members(resolve_language("{2,4}", U)) == {art(2), art(4)}
    assert members(resolve_language("{}", U)) == frozenset()
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
    with pytest.raises(ValueError, match="family takes no 'special' entry"):
        family_from_config({"special": ["odds"]})


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
