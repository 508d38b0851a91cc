"""Convergence reports, identification verdicts, class experiments, traces."""

from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    U,
    art,
    exp,
    padded_repeats_evens_text,
    pair_swapped_evens_text,
    plain_evens_text,
    reference_bc_converges_at,
    reference_identifies_text,
    reference_identify_class,
    reference_transformation_trace,
    standard_family,
)
from limitlab import (
    INDETERMINATE,
    SCIENTISTS,
    Canonical,
    Equality,
    LanguageFamily,
    Outcome,
    Padded,
    RepetitionHeavy,
    Schedule,
    Scientist,
    ShuffledWindow,
    all_language,
    build_scientist,
    bc_converges_at,
    confidence_annotating,
    converges_at,
    core,
    derived_rng,
    dumb_visionary,
    ever_changing,
    fate_from_function,
    finite_language,
    identifies_text,
    identify_class,
    is_pause,
    last_novel,
    make_fate,
    memorizer,
    transformation_trace,
)

FAM = standard_family()
EVENS = FAM.specials[0]
ODDS = FAM.specials[1]


def finite(*ranks):
    return finite_language(U, tuple(art(r) for r in ranks))


DIFF_STRATEGIES = (Canonical(), Padded(0.3), ShuffledWindow(3), RepetitionHeavy(0.4))


# ---------------------------------------------------------------------------
# converges_at


def test_constant_scientist_stabilizes_from_the_start():
    report = converges_at(dumb_visionary(FAM, EVENS), plain_evens_text(), 50)
    assert report.stabilized
    assert report.last_change_step is None
    assert report.stable_since == 0
    assert report.stabilized_index == 0
    assert len(report.trace) == 51


def test_ever_changing_never_stabilizes():
    report = converges_at(ever_changing(FAM), plain_evens_text(), 50)
    assert report.last_change_step == 50
    assert not report.stabilized
    assert report.stabilized_index is None


def test_memorizer_stabilizes_once_content_is_complete():
    fate = make_fate(finite(2, 4, 6), Canonical())
    report = converges_at(memorizer(FAM), fate, 10)
    assert report.stabilized
    assert report.last_change_step == 3
    assert report.stabilized_index == FAM.finite_index({art(2), art(4), art(6)})


def test_converges_at_requires_positive_horizon():
    with pytest.raises(ValueError):
        converges_at(memorizer(FAM), plain_evens_text(), 0)


def test_horizon_monotonicity():
    rng = derived_rng("horizon-monotonicity")
    scientists = [memorizer(FAM), last_novel(FAM), dumb_visionary(FAM, EVENS)]
    fates = [
        make_fate(finite(1, 3), Padded(0.4), seed=2),
        make_fate(EVENS, ShuffledWindow(3), seed=5),
        plain_evens_text(),
    ]
    for _ in range(60):
        sci = rng.choice(scientists)
        fate = rng.choice(fates)
        h = rng.randint(2, 15)
        h2 = h + rng.randint(0, 10)
        first = converges_at(sci, fate, h)
        second = converges_at(sci, fate, h2)
        if first.stabilized:
            assert (
                second.last_change_step == first.last_change_step
                or (second.last_change_step or 0) > h
            )


# ---------------------------------------------------------------------------
# identifies_text


def test_visionary_identifies_all_three_evens_texts():
    dv = dumb_visionary(FAM, EVENS)
    for fate in (
        plain_evens_text(),
        padded_repeats_evens_text(),
        pair_swapped_evens_text(),
    ):
        verdict = identifies_text(dv, fate, 50)
        assert verdict.outcome is Outcome.IDENTIFIED
        assert verdict.report.stable_since == 0


def test_visionary_on_odds_is_wrong_language():
    verdict = identifies_text(dumb_visionary(FAM, EVENS), make_fate(ODDS, Canonical()), 50)
    assert verdict.outcome is Outcome.NOT_IDENTIFIED
    assert verdict.reason == "wrong-language"
    assert verdict.label() == "NotIdentified(wrong-language)"


def test_memorizer_on_infinite_language_never_settles():
    verdict = identifies_text(memorizer(FAM), plain_evens_text(), 50)
    assert verdict.label() == "NotIdentified(no-stabilization)"


def test_identification_without_oracle_is_indeterminate():
    plain = standard_family(oracle=False)
    dv = dumb_visionary(plain, plain.specials[0])
    verdict = identifies_text(dv, make_fate(plain.specials[1], Canonical()), 20)
    assert verdict.outcome is Outcome.INDETERMINATE
    assert verdict.reason == "equality-unknown"


def test_fate_without_platonic_language_is_rejected():
    bare = fate_from_function(lambda n: art(2))
    with pytest.raises(ValueError):
        identifies_text(memorizer(FAM), bare, 10)
    with pytest.raises(ValueError):
        bc_converges_at(memorizer(FAM), bare, 10)


# ---------------------------------------------------------------------------
# behaviourally correct identification


def test_annotation_churn_still_bc_identifies():
    sci = confidence_annotating(FAM, memorizer(FAM), 3)
    fate = make_fate(finite(2, 4), Canonical())
    syntactic = identifies_text(sci, fate, 20)
    semantic = bc_converges_at(sci, fate, 20)
    assert syntactic.label() == "NotIdentified(no-stabilization)"
    assert semantic.outcome is Outcome.IDENTIFIED
    assert semantic.semantic_settle_step == 3


def test_syntactic_identification_implies_bc():
    cases = [
        (dumb_visionary(FAM, EVENS), plain_evens_text()),
        (memorizer(FAM), make_fate(finite(1, 2), Canonical())),
        (memorizer(FAM), make_fate(finite(), Canonical())),
    ]
    for sci, fate in cases:
        if identifies_text(sci, fate, 30).identified:
            assert bc_converges_at(sci, fate, 30).identified


def test_ever_changing_fails_bc():
    verdict = bc_converges_at(ever_changing(FAM), make_fate(finite(2), Canonical()), 20)
    assert verdict.outcome is Outcome.NOT_IDENTIFIED


def test_bc_without_oracle_is_indeterminate():
    plain = standard_family(oracle=False)
    dv = dumb_visionary(plain, plain.specials[0])
    verdict = bc_converges_at(dv, make_fate(plain.specials[1], Canonical()), 20)
    assert verdict.outcome is Outcome.INDETERMINATE
    assert verdict.reason == "equality-unknown"


# ---------------------------------------------------------------------------
# verdicts against the compare-every-index references

VERDICT_LANGUAGES = {"evens": EVENS, "odds": ODDS, "{}": finite(), "{1,2,5,8}": finite(1, 2, 5, 8)}


def _assert_verdicts_match_references(scientist, fate, horizon):
    bc = bc_converges_at(scientist, fate, horizon)
    assert bc == reference_bc_converges_at(scientist, fate, horizon)
    assert identifies_text(scientist, fate, horizon) == reference_identifies_text(
        scientist, fate, horizon
    )
    return bc


@pytest.mark.parametrize("name", sorted(SCIENTISTS))
@pytest.mark.parametrize("language", sorted(VERDICT_LANGUAGES))
@pytest.mark.parametrize("strategy", DIFF_STRATEGIES, ids=str)
def test_verdicts_match_the_compare_every_index_references(name, language, strategy):
    scientist = build_scientist(name, FAM)
    fate = make_fate(VERDICT_LANGUAGES[language], strategy, seed=4)
    for horizon in (1, 2, 7, 24):
        _assert_verdicts_match_references(scientist, fate, horizon)


@pytest.mark.parametrize(
    "oracle, scientist, language, horizon, outcome, settle",
    [
        # The final comparison is UNKNOWN: no oracle tells evens from odds.
        (False, "visionary", "odds", 12, Outcome.INDETERMINATE, None),
        (False, "late", "evens", 4, Outcome.INDETERMINATE, None),
        # Settled from step 0, mid-run, and only at the horizon.
        (True, "visionary", "evens", 12, Outcome.IDENTIFIED, 0),
        (True, "memorizer", "{1,2,5,8}", 12, Outcome.IDENTIFIED, 4),
        (True, "memorizer", "{1,2,5,8}", 4, Outcome.IDENTIFIED, 4),
        (False, "late", "evens", 5, Outcome.IDENTIFIED, 5),
        (False, "late", "evens", 9, Outcome.IDENTIFIED, 5),
        (True, "late", "evens", 3, Outcome.NOT_IDENTIFIED, None),
    ],
)
def test_bc_settle_steps_and_undecided_finals_match_the_reference(
    oracle, scientist, language, horizon, outcome, settle
):
    family = standard_family(oracle=oracle)
    sci = {
        "visionary": dumb_visionary(family, family.specials[0]),
        "memorizer": memorizer(family),
        # Odds (index 1) on prefixes shorter than 5, evens (index 0) from then on.
        "late": Scientist("late", family, lambda sigma: int(len(sigma) < 5)),
    }[scientist]
    fate = make_fate(VERDICT_LANGUAGES[language], Canonical())
    verdict = _assert_verdicts_match_references(sci, fate, horizon)
    assert verdict.outcome is outcome
    assert verdict.semantic_settle_step == settle


@pytest.mark.parametrize("name", ["memorizer", "last_novel", "ever_changing", "set_driven",
                                  "confidence_annotating"])
def test_bc_compares_a_finite_final_index_with_an_infinite_language_once(monkeypatch, name):
    calls = []
    compare = LanguageFamily.compare_index_with

    def counting(self, p, target):
        calls.append(p)
        return compare(self, p, target)

    monkeypatch.setattr(LanguageFamily, "compare_index_with", counting)
    scientist = build_scientist(name, FAM)
    verdict = bc_converges_at(scientist, plain_evens_text(), 24)
    assert verdict.label() == "NotIdentified(wrong-language)"
    assert len(calls) == 1


@pytest.mark.parametrize("annotated", [False, True])
def test_bc_walks_a_settled_run_of_tail_indices_back_without_comparing(monkeypatch, annotated):
    calls = []
    compare = LanguageFamily.compare_index_with

    def counting(self, p, target):
        calls.append(p)
        return compare(self, p, target)

    scientist = memorizer(FAM)
    if annotated:  # a new index on every step, all denoting the memorizer's set
        scientist = confidence_annotating(FAM, scientist, 3)
    fate = make_fate(finite(2, 4), Canonical())
    reference = reference_bc_converges_at(scientist, fate, 24)
    monkeypatch.setattr(LanguageFamily, "compare_index_with", counting)
    verdict = bc_converges_at(scientist, fate, 24)
    assert verdict == reference
    assert verdict.semantic_settle_step == 2 + annotated
    assert len(calls) == 1


def test_bc_walk_back_compares_with_the_platonic_when_sameness_is_unknown(monkeypatch):
    monkeypatch.setattr(LanguageFamily, "semantic_equals", lambda self, p, q: Equality.UNKNOWN)
    fate = make_fate(finite(1, 2, 5, 8), Canonical())
    verdict = bc_converges_at(memorizer(FAM), fate, 12)
    assert verdict == reference_bc_converges_at(memorizer(FAM), fate, 12)
    assert verdict.semantic_settle_step == 4


# ---------------------------------------------------------------------------
# class experiments


def _first_four_subsets():
    elements = [art(r) for r in range(4)]
    langs = []
    for k in range(5):
        for combo in itertools.combinations(elements, k):
            langs.append(finite_language(U, combo))
    return langs


def test_memorizer_identifies_all_small_finite_languages():
    table = identify_class(
        memorizer(FAM),
        _first_four_subsets(),
        [Canonical(), Padded(0.25), ShuffledWindow(4)],
        seeds=[0],
        horizon=64,
    )
    assert len(table.rows) == 48
    assert {row.verdict for row in table.rows} == {"Identified"}
    assert "48/48" in table.summary()


def test_visionary_class_summary_fails_on_odds():
    table = identify_class(
        dumb_visionary(FAM, EVENS), [EVENS, ODDS], [Canonical()], [0], horizon=32
    )
    verdicts = [row.verdict for row in table.rows]
    assert verdicts == ["Identified", "NotIdentified(wrong-language)"]
    assert "not identified" in table.summary()


def test_empty_class_is_vacuously_identifiable():
    table = identify_class(memorizer(FAM), [], [Canonical()], [0], horizon=8)
    assert table.rows == ()
    assert table.summary() == "vacuously identifiable (empty class)"
    # No language, so no text schedule is drawn, however long the horizon.
    assert identify_class(memorizer(FAM), [], [Canonical()], [0], sys.maxsize - 1).rows == ()


@pytest.mark.parametrize("languages", [[], [finite(2)]])
def test_identify_class_checks_the_horizon_of_any_class(languages):
    with pytest.raises(ValueError, match="horizon must be >= 1, got -5"):
        identify_class(memorizer(FAM), languages, [Canonical()], [0], -5)


@pytest.mark.parametrize("strategies, seeds", [([], [0]), ([Canonical()], []), ([], [])])
def test_a_class_without_strategies_or_seeds_is_refused(strategies, seeds):
    with pytest.raises(ValueError, match="at least one strategy and one seed"):
        identify_class(memorizer(FAM), [finite(2)], strategies, seeds, horizon=8)


def test_identify_class_refuses_a_strategy_given_by_name():
    # A strategy's name is not a strategy: the schedule draw checks it as make_fate does.
    with pytest.raises(TypeError, match="unknown text strategy"):
        identify_class(memorizer(FAM), [finite(2)], ["canonical"], [0], horizon=8)


@pytest.mark.parametrize("name", sorted(SCIENTISTS))
def test_identify_class_matches_the_per_cell_reference(name):
    scientist = build_scientist(name, FAM)
    # Duplicated languages, strategies and seeds each get their own rows.
    languages = [finite(), finite(2), EVENS, finite(1, 5, 7), ODDS, finite(2), all_language(U)]
    strategies = [
        Canonical(), Padded(0.25), ShuffledWindow(3), Canonical(), RepetitionHeavy(0.5),
        Padded(0), ShuffledWindow(8),
    ]
    seeds = [0, 2**64 - 1, 0, 9]
    table = identify_class(scientist, languages, strategies, seeds, horizon=12)
    assert table == reference_identify_class(scientist, languages, strategies, seeds, 12)


PLAIN = standard_family(oracle=False)
# Repeated sizes (1, 2) and one language of 130 members, past one-byte keys.
GRID_LANGUAGES = [
    finite(), finite(2), finite(7), finite(1, 5), finite(3, 9), finite(3, 4, 9),
    finite(*range(0, 260, 2)), EVENS, ODDS, all_language(U),
]
GRID_STRATEGIES = [
    Canonical(), Padded(0.25), Padded(0), ShuffledWindow(1), ShuffledWindow(3), RepetitionHeavy(0.5),
]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SCIENTISTS)),
    family=st.sampled_from([FAM, PLAIN]),
    languages=st.lists(st.sampled_from(GRID_LANGUAGES), min_size=1, max_size=4).map(
        lambda langs: langs + langs[:1]
    ),
    strategies=st.lists(st.sampled_from(GRID_STRATEGIES), min_size=1, max_size=3),
    seeds=st.lists(st.sampled_from([0, 1, 2**64 - 1]) | st.integers(0, 2**64 - 1),
                   min_size=1, max_size=3),
    horizon=st.integers(1, 12),
)
def test_identify_class_matches_the_per_cell_reference_on_random_grids(
    name, family, languages, strategies, seeds, horizon
):
    # Without an oracle, evens against odds or all is undecided: Indeterminate rows.
    scientist = build_scientist(name, family)
    table = identify_class(scientist, languages, strategies, seeds, horizon)
    assert table == reference_identify_class(scientist, languages, strategies, seeds, horizon)


def test_identify_class_walks_each_languages_distinct_texts_once():
    calls = []
    base = memorizer(FAM).conjecture

    def conjecture(sigma):
        calls.append(len(sigma))
        return base(sigma)

    scientist = Scientist("counted", FAM, conjecture)
    # Sizes 2, 1, 2, 0, 1, infinite: equal-size languages share keys, not walks.
    languages = [finite(1, 5), finite(2), finite(3, 9), finite(), finite(7), EVENS]
    strategies = [Canonical(), ShuffledWindow(3), Padded(0.25)]
    seeds = [0, 1, 2]
    schedules = [
        Schedule.draw(strategy, seed, 16)
        for strategy in strategies
        for seed in seeds
    ]
    distinct = sum(len({s.key(lang.size) for s in schedules}) for lang in languages)
    # {} has one text; {2} and {7} get canonical's text from every window.
    assert distinct < len(languages) * len(schedules)
    for _ in range(2):  # nothing is kept between calls
        calls.clear()
        table = identify_class(scientist, languages, strategies, seeds, 16)
        assert len(calls) == distinct * 17
    # Rows come back in input order, whatever order the sizes are visited in.
    assert [row.language for row in table.rows[:: len(schedules)]] == [
        lang.describe() for lang in languages
    ]
    assert table == reference_identify_class(scientist, languages, strategies, seeds, 16)


def test_identify_class_draws_each_text_once_per_call(monkeypatch):
    draws = []
    real = core.derived_rng

    def counting(*parts):
        draws.append(parts)
        return real(*parts)

    monkeypatch.setattr(core, "derived_rng", counting)
    strategies = [Padded(0.25), ShuffledWindow(2), RepetitionHeavy(0.25)]

    def count(languages, calls=1):
        draws.clear()
        for _ in range(calls):
            identify_class(memorizer(FAM), languages, strategies, [0, 1], horizon=16)
        return len(draws)

    one = count([finite(1, 2)])
    assert one > 0
    assert count(_first_four_subsets()) == one  # 16 languages
    assert count([finite(1, 2)], calls=2) == 2 * one  # nothing is kept between calls


def test_class_of_empty_language_uses_the_all_pause_fate():
    table = identify_class(memorizer(FAM), [finite()], [Canonical()], [0], horizon=8)
    assert [row.verdict for row in table.rows] == ["Identified"]


def test_table_csv_shape():
    table = identify_class(
        memorizer(FAM), [finite(2, 4)], [Canonical()], [0], horizon=8
    )
    lines = table.to_csv().splitlines()
    assert lines[0] == "language,strategy,seed,horizon,verdict,last_change_step"
    assert lines[1] == '"{2,4}",canonical,0,8,Identified,2'


# ---------------------------------------------------------------------------
# transformation traces


def test_visionary_trace_is_never_transformative():
    trace = transformation_trace(dumb_visionary(FAM, EVENS), plain_evens_text(), 6)
    firsts = set()
    for step in trace:
        assert step.transformative == 0
        expected_novel = int(step.datum not in firsts)
        assert step.novel == expected_novel
        firsts.add(step.datum)


def test_ever_changing_trace_is_always_transformative():
    trace = transformation_trace(ever_changing(FAM), plain_evens_text(), 6)
    assert all(step.transformative == 1 for step in trace)
    assert all(step.hyp_changed for step in trace)


def test_memorizer_trace_flags_first_occurrences_only():
    trace = transformation_trace(memorizer(FAM), padded_repeats_evens_text(), 5)
    transformative_steps = [s.step for s in trace if s.transformative == 1]
    assert transformative_steps == [1, 3]  # the steps introducing 2 and 4
    for step in trace:
        if is_pause(step.datum):
            assert step.novel is None
            assert step.transformative is None
            assert step.semantically_transformative is None


def test_trace_hyp_changed_matches_transformativeness_on_artefacts():
    trace = transformation_trace(memorizer(FAM), padded_repeats_evens_text(), 9)
    for step in trace:
        if not is_pause(step.datum):
            assert step.hyp_changed == bool(step.transformative)


def test_trace_is_deterministic():
    fate = make_fate(finite(1, 2, 3), Padded(0.3), seed=6)
    first = transformation_trace(memorizer(FAM), fate, 12)
    second = transformation_trace(memorizer(FAM), fate, 12)
    assert first == second


def test_declared_platonic_fates_emit_only_members():
    for lang in (EVENS, finite(0, 3)):
        fate = make_fate(lang, Padded(0.25), seed=8)
        for d in fate.prefix(50):
            assert is_pause(d) or fate.platonic.contains(d)


# ---------------------------------------------------------------------------
# transformation_trace against replay-from-empty schemas

DIFF_LANGUAGES = {
    "evens": EVENS,
    "odds": ODDS,
    "all": all_language(U),
    "finite": finite(1, 2, 5, 8),
}


@pytest.mark.parametrize("name", sorted(SCIENTISTS))
@pytest.mark.parametrize("language", sorted(DIFF_LANGUAGES))
@pytest.mark.parametrize("strategy", DIFF_STRATEGIES, ids=str)
def test_trace_matches_replay_reference(name, language, strategy):
    scientist = build_scientist(name, FAM)
    fate = make_fate(DIFF_LANGUAGES[language], strategy, seed=5)
    horizon = 20
    expected = reference_transformation_trace(scientist, fate, horizon)
    trace = transformation_trace(scientist, fate, horizon)
    assert trace == expected
    hyp_indices = tuple(step.hyp_index for step in trace)
    assert converges_at(scientist, fate, horizon).trace == hyp_indices


@pytest.mark.parametrize("strategy", DIFF_STRATEGIES, ids=str)
def test_trace_matches_replay_reference_when_equality_is_undecided(strategy):
    # Without an oracle, evens (index 0) against odds (index 1) is UNKNOWN,
    # and this scientist switches between the two at every other step.
    plain = standard_family(oracle=False)
    flipper = Scientist("flipper", plain, lambda sigma: len(sigma) // 2 % 2)
    fate = make_fate(EVENS, strategy, seed=9)
    trace = transformation_trace(flipper, fate, 16)
    assert trace == reference_transformation_trace(flipper, fate, 16)
    flags = [s.semantically_transformative for s in trace]
    assert INDETERMINATE in flags and 0 in flags
