"""Experiences, inspiring sets, and text strategy behaviour."""

from __future__ import annotations

import copy
import pickle
import sys
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_TEXTS, U, art, exp, experiences, reference_text
from limitlab import (
    LANGUAGES,
    PAUSE,
    STRATEGIES,
    Artefact,
    Canonical,
    Experience,
    Padded,
    Pause,
    RepetitionHeavy,
    Schedule,
    ShuffledWindow,
    all_language,
    decimal_universe,
    evens_language,
    experience_from_tokens,
    experience_to_tokens,
    finite_language,
    is_pause,
    letters_universe,
    make_fate,
    resolve_language,
)

EVENS = evens_language(U)
EMPTY_LANG = finite_language(U, ())
TWO_FOUR = finite_language(U, (art(2), art(4)))

ALL_STRATEGIES = (Canonical(), Padded(0.25), ShuffledWindow(4), RepetitionHeavy(0.25))


# ---------------------------------------------------------------------------
# content


def test_content_drops_pauses_and_duplicates():
    assert exp("# 2 # 4 4 #").content() == {art(2), art(4)}


def test_content_of_empty_prefix():
    assert exp("").content() == frozenset()


def test_content_collapses_repeats():
    assert exp("5 5 5").content() == {art(5)}


@settings(max_examples=200)
@given(experiences(max_rank=5, max_len=30))
def test_content_matches_the_filtering_reference(sigma):
    content = sigma.content()
    assert type(content) is frozenset
    assert content == frozenset(d for d in sigma.items if not is_pause(d))


# ---------------------------------------------------------------------------
# the pause


def test_pause_is_one_value_that_hashes_by_identity():
    assert Pause() is PAUSE
    assert repr(PAUSE) == "#"
    assert type(PAUSE).__hash__ is object.__hash__ and type(PAUSE).__eq__ is object.__eq__
    assert copy.copy(PAUSE) is PAUSE and copy.deepcopy(PAUSE) is PAUSE
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(PAUSE, protocol)) is PAUSE
    assert copy.deepcopy(exp("# 2")).items[0] is PAUSE
    assert is_pause(Pause()) and not is_pause(art(0))
    assert exp("# 2 #").content() == {art(2)} and PAUSE not in exp("#").content()


# ---------------------------------------------------------------------------
# artefacts


@given(st.sampled_from("0 1 2 a b".split()), st.integers(0, 3),
       st.sampled_from("0 1 2 a b".split()), st.integers(0, 3))
def test_artefacts_are_equal_exactly_when_token_and_rank_are(t1, r1, t2, r2):
    a, b = Artefact(t1, r1), Artefact(t2, r2)
    assert (a == b) == ((t1, r1) == (t2, r2))
    assert hash(a) == hash((a.token, a.rank))


def test_artefact_value_semantics():
    a = art(7)
    assert repr(a) == "Artefact(7)"
    assert a != PAUSE and PAUSE != a
    assert a == ("7", 7)  # a tuple underneath, as documented
    with pytest.raises(AttributeError):
        a.rank = 8
    with pytest.raises(AttributeError):
        a.token = "8"


# ---------------------------------------------------------------------------
# concatenation


def test_concat_orders_and_lengths():
    combined = exp("2") + exp("4")
    assert combined == exp("2 4")
    assert len(combined) == 2
    assert combined[:1] == exp("2")


def test_concat_identity():
    sigma = exp("2 # 4")
    assert sigma + Experience() == sigma
    assert Experience() + sigma == sigma


def test_content_of_concat_matches_list_oracle():
    left, right = exp("2 4"), exp("4 6")
    oracle = {d for d in list(left) + list(right) if not is_pause(d)}
    assert (left + right).content() == oracle


@given(experiences(), experiences())
def test_content_monotone_under_concat(sigma, tau):
    assert sigma.content() <= (sigma + tau).content()
    assert sigma.content() - (sigma + tau).content() == frozenset()


@given(experiences(), experiences())
def test_concat_content_delta_bounded_by_suffix(sigma, tau):
    assert (sigma + tau).content() - sigma.content() <= tau.content()


@given(experiences())
def test_append_delta_is_at_most_the_new_artefact(sigma):
    a = art(3)
    assert sigma.append(a).content() - sigma.content() <= {a}


# ---------------------------------------------------------------------------
# prefixes


def test_canonical_evens_prefix():
    fate = make_fate(EVENS, Canonical())
    assert fate.prefix(5) == exp("2 4 6 8 10")


def test_zero_prefix_is_empty():
    fate = make_fate(EVENS, Padded(0.5), seed=3)
    assert fate.prefix(0) == Experience()


def test_empty_language_prefix_is_all_pauses():
    fate = make_fate(EMPTY_LANG, Canonical())
    assert fate.prefix(3) == Experience((PAUSE, PAUSE, PAUSE))


def test_prefix_monotonicity():
    fate = make_fate(EVENS, Padded(0.25), seed=1)
    for n in range(12):
        shorter, longer = fate.prefix(n), fate.prefix(n + 1)
        assert shorter.items == longer.items[:n]
        assert shorter.content() <= longer.content()


def test_at_matches_prefix():
    fate = make_fate(TWO_FOUR, RepetitionHeavy(0.5), seed=9)
    items = fate.prefix(20).items
    for n in (0, 3, 7, 19):
        assert fate.at(n) == items[n]


# ---------------------------------------------------------------------------
# make_fate


def test_canonical_evens_stream():
    fate = make_fate(EVENS, Canonical())
    assert [d.token for d in fate.prefix(4)] == ["2", "4", "6", "8"]


def test_shuffled_window_permutes_pairs():
    fate = make_fate(EVENS, ShuffledWindow(2), seed=5)
    items = fate.prefix(10).items
    for b in range(5):
        window = {items[2 * b].rank, items[2 * b + 1].rank}
        assert window == {4 * b + 2, 4 * b + 4}


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_empty_language_always_yields_all_pause_fate(strategy):
    fate = make_fate(EMPTY_LANG, strategy, seed=11)
    assert all(is_pause(d) for d in fate.prefix(40))


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_emitted_artefacts_belong_to_the_language(strategy):
    for lang in (EVENS, TWO_FOUR, all_language(U)):
        fate = make_fate(lang, strategy, seed=2)
        for d in fate.prefix(64):
            assert is_pause(d) or lang.contains(d)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_fate_determinism(strategy):
    first = make_fate(EVENS, strategy, seed=7).prefix(50)
    second = make_fate(EVENS, strategy, seed=7).prefix(50)
    assert first == second


FAIRNESS_DEADLINES = {
    Canonical(): lambda k: k + 1,
    Padded(0.25): lambda k: 8 * (k // 6 + 2),
    ShuffledWindow(4): lambda k: 4 * (k // 4 + 1),
    RepetitionHeavy(0.25): lambda k: 3 * (k + 1),
}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=13)
def test_fairness_deadlines(seed):
    # Element k of the canonical enumeration must appear by a computable
    # deadline: the dovetailing guarantee behind content(T) = L. The deadline
    # is the schedule's own: ordinal k appears in it by then.
    for strategy, deadline in FAIRNESS_DEADLINES.items():
        fate = make_fate(EVENS, strategy, seed)
        for k in range(20):
            horizon = deadline(k)
            assert k in islice(strategy.schedule(seed), horizon), (
                f"{strategy}: ordinal {k} missing from the schedule at deadline {horizon}"
            )
            assert EVENS.element(k) in fate.prefix(horizon).content(), (
                f"{strategy}: element {k} missing at deadline {horizon}"
            )


def test_finite_language_cycles_forever():
    fate = make_fate(TWO_FOUR, Canonical())
    assert [d.token for d in fate.prefix(6)] == ["2", "4", "2", "4", "2", "4"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Padded(1.0),
        lambda: Padded(-0.01),
        lambda: ShuffledWindow(0),
        lambda: RepetitionHeavy(1.0),
        lambda: Padded(False),
        lambda: Padded("0.5"),
        lambda: ShuffledWindow(True),
        lambda: ShuffledWindow(2.0),
        lambda: RepetitionHeavy(True),
        lambda: RepetitionHeavy(float("nan")),
        lambda: ShuffledWindow(sys.maxsize + 1),
    ],
)
def test_out_of_range_strategy_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_window_bound_is_two_to_the_16():
    # A window is materialised whole before it yields, so it stays memory-sized.
    assert ShuffledWindow(2**16).window == 2**16
    with pytest.raises(ValueError, match="from 1 to 65536"):
        ShuffledWindow(2**16 + 1)


def test_integer_density_keeps_its_label():
    assert str(Padded(0)) == "padded(0)"
    assert str(RepetitionHeavy(0)) == "repetition-heavy(0)"


def test_make_fate_rejects_a_non_strategy():
    with pytest.raises(TypeError, match="unknown text strategy"):
        make_fate(TWO_FOUR, "canonical")
    with pytest.raises(TypeError, match="unknown text strategy"):
        Schedule.draw("canonical", 0, 4)


# ---------------------------------------------------------------------------
# make_fate and shared schedules against each strategy's text as first written

# Each registered strategy over its parameter range, ends included.
TEXT_STRATEGIES = {
    "canonical": st.just(Canonical()),
    "padded": (st.just(0.0) | st.floats(0, 1, exclude_max=True)).map(Padded),
    "shuffled-window": st.integers(1, 12).map(ShuffledWindow),
    "repetition-heavy": (st.just(0.0) | st.floats(0, 1, exclude_max=True)).map(RepetitionHeavy),
}


def test_schedule_cases_cover_the_strategy_registry():
    assert set(TEXT_STRATEGIES) == set(STRATEGIES)
    assert set(REFERENCE_TEXTS) == set(STRATEGIES)


@st.composite
def languages(draw):
    """The empty, finite (up to 5 members, so windows reach past them) and special languages."""
    universe = draw(st.sampled_from([decimal_universe(), letters_universe()]))
    name = draw(st.sampled_from(["empty", "finite", *LANGUAGES]))
    if name in LANGUAGES:
        return LANGUAGES[name](universe)
    ranks = () if name == "empty" else draw(st.sets(st.integers(0, 40), min_size=1, max_size=5))
    return finite_language(universe, map(universe.artefact, ranks))


@settings(max_examples=300, deadline=None)
@given(
    strategy=st.sampled_from(sorted(TEXT_STRATEGIES)).flatmap(TEXT_STRATEGIES.get),
    lang=languages(),
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(0, 40),
)
def test_a_relabelled_schedule_is_the_languages_own_text(strategy, lang, seed, n):
    schedule = Schedule.draw(strategy, seed, n)
    assert len(schedule.drawn) == 8 * n
    own = make_fate(lang, strategy, seed)
    assert own.platonic is lang
    expected = tuple(islice(reference_text(lang, strategy, seed), 3 * n + 1))
    # The key's text up to the drawn horizon; make_fate's up to it and re-streamed past it.
    assert Schedule.reader(lang)(schedule.key(lang.size)) == expected[:n]
    for length in (n, 3 * n + 1):
        assert own.prefix(length) == Experience(expected[:length])


# ---------------------------------------------------------------------------
# text keys: a schedule reduced by the relabel rule


def _drawn(strategy, seed, n=32):
    return Schedule.draw(strategy, seed, n)


@st.composite
def keyed_languages(draw):
    """Languages of 0, 1, 2-5 and 127-129 members (both key widths), and the special ones."""
    name = draw(st.sampled_from(["finite", *LANGUAGES]))
    if name in LANGUAGES:
        return LANGUAGES[name](U)
    size = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 127, 128, 129]))
    ranks = draw(st.sets(st.integers(0, max(40, 2 * size + 42)), min_size=size, max_size=size))
    return finite_language(U, map(U.artefact, ranks))


TEXTS = st.tuples(
    st.sampled_from(sorted(TEXT_STRATEGIES)).flatmap(TEXT_STRATEGIES.get),
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(lang=keyed_languages(), first=TEXTS, second=TEXTS, n=st.integers(0, 40))
def test_text_keys_are_equal_exactly_when_the_texts_are(lang, first, second, n):
    one, other = _drawn(*first, n), _drawn(*second, n)
    # The ground truth is the texts as first written, not the reader under test.
    text, other_text = (tuple(islice(reference_text(lang, *t), n)) for t in (first, second))
    key = one.key(lang.size)
    assert (key == other.key(lang.size)) == (text == other_text)
    if lang.size is None:
        assert key is one.drawn  # an infinite language's key is the schedule, not a copy
    else:
        assert len(key) == n * (1 if lang.size <= 128 else 8)


SEEDS = (0, 1, 7, 2**64 - 1)


def test_text_keys_are_shared_where_the_relabel_rule_forgets_the_schedule():
    def keys(lang, texts):
        return {_drawn(strategy, seed).key(lang.size) for strategy, seed in texts}

    for lang in (EMPTY_LANG, TWO_FOUR, EVENS):
        assert len(keys(lang, [(Canonical(), 0), (Canonical(), 2**64 - 1)])) == 1
    every_text = [(strategy, seed) for strategy in ALL_STRATEGIES for seed in SEEDS]
    assert len(keys(EMPTY_LANG, every_text)) == 1
    singleton = finite_language(U, (art(5),))
    windows = [(ShuffledWindow(w), seed) for w in (1, 3, 4) for seed in SEEDS]
    assert len(keys(singleton, [(Canonical(), 0), *windows])) == 1
    # Pauses count: a singleton's padded texts differ by seed.
    assert len(keys(singleton, [(Padded(0.25), seed) for seed in SEEDS])) == len(SEEDS)


# ---------------------------------------------------------------------------
# universes and serialization


@pytest.mark.parametrize("universe", [decimal_universe(), letters_universe()])
def test_universe_rank_bijection(universe):
    tokens = set()
    for rank in range(200):
        a = universe.artefact(rank)
        assert a.rank == rank
        assert universe.parse(a.token) == a
        tokens.add(a.token)
    assert len(tokens) == 200


@pytest.mark.parametrize(
    "universe, token", [(decimal_universe(), "99999999999999999999"), (letters_universe(), "z" * 14)]
)
def test_ranks_past_maxsize_are_rejected(universe, token):
    # Both tokens rank past sys.maxsize, so no set code could give them a bit.
    with pytest.raises(ValueError, match="universe rank"):
        universe.parse(token)
    with pytest.raises(ValueError, match="universe rank"):
        experience_from_tokens(["#", token], universe)
    with pytest.raises(ValueError, match="universe rank"):
        resolve_language("{" + token + "}", universe)
    with pytest.raises(ValueError, match="universe rank"):
        universe.artefact(sys.maxsize + 1)


@pytest.mark.parametrize("token", ["٣", "３", "03", "00"])
def test_non_canonical_tokens_are_rejected(token):
    # Each reads as a rank whose own token differs, so it names no artefact.
    with pytest.raises(ValueError, match="not canonical"):
        U.parse(token)
    with pytest.raises(ValueError, match="not canonical"):
        resolve_language("{" + token + "}", U)


@pytest.mark.parametrize("universe", [decimal_universe(), letters_universe()])
def test_token_ranks_stop_below_two_to_the_24(universe):
    top = universe.artefact(2**24 - 1)
    assert universe.parse(top.token) == top
    with pytest.raises(ValueError, match="universe rank"):
        universe.parse(universe.to_token(2**24))
    with pytest.raises(ValueError, match="universe rank"):
        resolve_language("{" + universe.to_token(2**32) + "}", universe)
    # Generated artefacts keep the sys.maxsize range.
    assert universe.artefact(2**40).rank == 2**40


def test_largest_letters_token():
    letters = letters_universe()
    assert letters.parse("ajrnin").rank == 2**24 - 1
    assert letters.parse("zzzzz").rank < 2**24  # every token of five letters or fewer


def test_pause_token_is_reserved():
    with pytest.raises(ValueError):
        U.parse("#")
    with pytest.raises(ValueError):
        letters_universe().parse("#")


def test_letters_universe_rollover():
    letters = letters_universe()
    assert letters.artefact(0).token == "a"
    assert letters.artefact(25).token == "z"
    assert letters.artefact(26).token == "aa"


def test_experience_json_round_trip():
    sigma = exp("2 # 4 4 #")
    tokens = experience_to_tokens(sigma)
    assert tokens == ["2", "#", "4", "4", "#"]
    assert experience_from_tokens(tokens, U) == sigma


def test_artefact_equality_tracks_token_and_rank():
    assert art(2) == U.parse("2")
    assert art(2) != art(3)
    assert art(2) != PAUSE
