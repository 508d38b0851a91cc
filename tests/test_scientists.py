"""Built-in scientists, wrappers, and the sampled strategy checks."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CONTENT_SPECS,
    U,
    art,
    exp,
    experiences,
    plain_evens_text,
    reference_confidence_conjecture,
    reference_conjecture,
    reference_last_novel,
    reference_memorizer,
    reference_set_driven,
    standard_family,
)
from limitlab import (
    PAUSE,
    SCIENTISTS,
    Artefact,
    Experience,
    Fold,
    Scientist,
    build_scientist,
    canonical_experience,
    confidence_annotating,
    derived_rng,
    dumb_visionary,
    enumeration_scientist,
    ever_changing,
    evens_language,
    is_consistent_sampled,
    is_set_driven_sampled,
    last_novel,
    memorizer,
    set_driven_wrapper,
    unpair,
)
from limitlab.sampling import sample_experience, sample_same_content

FAM = standard_family()
EVENS = FAM.specials[0]


def tail_index(*ranks):
    return FAM.finite_index(tuple(art(r) for r in ranks))


# ---------------------------------------------------------------------------
# dumb visionary


def test_dumb_visionary_ignores_input():
    dv = dumb_visionary(FAM, EVENS)
    assert dv(exp("")) == 0
    assert dv(exp("3 1 4")) == 0


def test_dumb_visionary_constant_along_any_evens_text():
    dv = dumb_visionary(FAM, EVENS)
    fate = plain_evens_text()
    indices = {dv(fate.prefix(n)) for n in range(20)}
    assert indices == {0}


def test_dumb_visionary_propagates_lookup_failure():
    from limitlab import LanguageRepr, NotInFamilyError

    primes = LanguageRepr(
        contains=lambda a: False, element=lambda k: art(2), label="primes"
    )
    with pytest.raises(NotInFamilyError):
        dumb_visionary(FAM, primes)


# ---------------------------------------------------------------------------
# memorizer


def test_memorizer_codes_the_content():
    m = memorizer(FAM)
    assert m(exp("2 4 4 #")) == tail_index(2, 4)
    assert m(exp("")) == tail_index()


def test_memorizer_is_set_driven_by_construction():
    m = memorizer(FAM)
    assert m(exp("2 4")) == m(exp("4 2 2"))


def test_memorizer_codes_rank_clashes_like_the_replay():
    # Two artefacts of one rank set one bit, in the fold and in the set code.
    sigma = Experience((Artefact("a", 0), Artefact("0", 0), art(2)))
    assert memorizer(FAM)(sigma) == reference_memorizer(FAM, sigma) == tail_index(0, 2)


# ---------------------------------------------------------------------------
# enumeration scientist


def _example_class_order():
    return [tail_index(), tail_index(2), tail_index(2, 4), 0]


def test_enumeration_picks_first_consistent():
    sci = enumeration_scientist(FAM, _example_class_order())
    assert sci(exp("2")) == tail_index(2)
    assert sci(exp("2 8")) == 0  # only evens contains {2, 8}
    assert sci(exp("")) == tail_index()


def test_enumeration_falls_back_to_memorizer():
    sci = enumeration_scientist(FAM, [tail_index(2)])
    assert sci(exp("3 5")) == tail_index(3, 5)


def test_enumeration_tells_artefacts_apart_by_rank():
    # A foreign artefact with a member's rank counts as that member, as in the memorizer.
    sci = enumeration_scientist(FAM, [tail_index(2), 0])
    assert sci(Experience((Artefact("two", 2),))) == tail_index(2)
    assert sci(Experience((Artefact("two", 2), art(4)))) == 0


def test_enumeration_requires_nonempty_class():
    with pytest.raises(ValueError):
        enumeration_scientist(FAM, [])


# Specials, tail indices, the empty language and a tail set far above the sampled
# ranks; the short orders leave most experiences to the memorizer fallback.
ENUMERATION_ORDERS = [
    [tail_index(), tail_index(2), tail_index(2, 4), 0],
    [1, tail_index(), 0],
    [tail_index(3), tail_index(1, 3, 5, 7, 9)],
    [tail_index()],
    [FAM.offset + (1 << 5000 | 1 << 2 | 1 << 4), tail_index(0, 1, 2, 3, 4, 5, 6, 7), 1],
]


def test_enumeration_gives_the_replay_references_indices():
    # The reference asks language_of on every conjecture; which entry answered, by position.
    answered = set()
    for order in ENUMERATION_ORDERS:
        reference = reference_conjecture({"name": "enumeration", "class_order": order}, FAM)
        sci = enumeration_scientist(FAM, order)
        rng = derived_rng("enumeration-differential", len(order))
        for _ in range(400):
            sigma = sample_experience(rng, U, 9, 6)
            expected = reference(sigma)
            assert sci(sigma) == expected
            answered.add(order.index(expected) if expected in order else "fallback")
    assert answered == {0, 1, 2, 3, "fallback"}


def test_enumeration_builds_and_conjectures_without_decoding(monkeypatch):
    import limitlab.families as families

    decoded = []
    real = families.decode_finite_set
    monkeypatch.setattr(families, "decode_finite_set", lambda *a: decoded.append(a) or real(*a))
    sci = enumeration_scientist(FAM, ENUMERATION_ORDERS[-1])
    assert decoded == []
    assert sci(exp("2 4")) == ENUMERATION_ORDERS[-1][0]
    assert sci(exp("2 4 6")) == tail_index(0, 1, 2, 3, 4, 5, 6, 7)
    assert decoded == []


@pytest.mark.parametrize("class_order", ["evens", 5, 2.5, {"evens": 1}])
def test_enumeration_spec_refuses_a_class_order_that_is_not_a_list(class_order):
    with pytest.raises(ValueError, match="class_order"):
        build_scientist({"name": "enumeration", "class_order": class_order}, FAM)


def test_enumeration_spec_takes_a_tuple_class_order():
    sci = build_scientist({"name": "enumeration", "class_order": ("{2}", 0)}, FAM)
    assert sci(exp("2")) == tail_index(2) and sci(exp("4")) == 0


# ---------------------------------------------------------------------------
# ever-changing


def test_ever_changing_outputs_the_length():
    sci = ever_changing(FAM)
    assert sci(exp("")) == 0
    assert sci(exp("2")) == 1
    assert sci(exp("2 2")) == 2
    assert sci(exp("# #")) == 2


def test_ever_changing_moves_on_every_extension():
    sci = ever_changing(FAM)
    rng = derived_rng("ever-changing-test")
    for _ in range(200):
        sigma = sample_experience(rng, U)
        for d in (art(rng.randint(0, 7)),):
            assert sci(sigma.append(d)) != sci(sigma)


def test_ever_changing_depends_only_on_length():
    sci = ever_changing(FAM)
    assert sci(exp("2 4 6")) == sci(exp("6 2 4")) == sci(exp("# # #"))


# ---------------------------------------------------------------------------
# confidence annotating


def test_annotated_indices_all_distinct_along_evens_text():
    base = memorizer(FAM)
    sci = confidence_annotating(FAM, base, 3)
    fate = plain_evens_text()
    indices = [sci(fate.prefix(n)) for n in range(11)]
    assert len(set(indices)) == 11


def test_annotated_base_component_matches_independent_replay():
    base = memorizer(FAM)
    sci = confidence_annotating(FAM, base, 3)
    fate = plain_evens_text()
    switches = 0
    for n in range(11):
        sigma = fate.prefix(n)
        b, note = unpair(reference_confidence_conjecture(FAM, base, 3, sigma))
        c, _ = unpair(note)
        emitted_b, note = unpair(sci(sigma))
        emitted_c, steps = unpair(note)
        assert emitted_b == b
        assert emitted_c == c
        assert steps == n
        if n and emitted_b != unpair(sci(fate.prefix(n - 1)))[0]:
            switches += 1
    # base hypothesis re-asked exactly on confidence-zero events
    assert switches == 3  # resets after steps 3, 6, 9 on 2,4,6,8,...


def test_annotated_language_changes_only_when_base_switches():
    base = memorizer(FAM)
    sci = confidence_annotating(FAM, base, 3)
    fate = plain_evens_text()
    for n in range(1, 11):
        p, q = sci(fate.prefix(n - 1)), sci(fate.prefix(n))
        semantically_same = sci.family.semantic_equals(p, q)
        bases_equal = unpair(p)[0] == unpair(q)[0]
        assert (semantically_same.value == "equal") == bases_equal


def test_annotating_is_deterministic():
    sci = confidence_annotating(FAM, memorizer(FAM), 3)
    assert sci(exp("2 3 # 5")) == sci(exp("2 3 # 5"))


@pytest.mark.parametrize(
    "base_spec", ["memorizer", "last_novel", "enumeration", "dumb_visionary:evens",
                  "set_driven:last_novel", "ever_changing"]
)
@pytest.mark.parametrize("initial", [1, 2, 3, 5])
def test_annotating_matches_per_datum_decoding_reference(base_spec, initial):
    base = build_scientist(base_spec, FAM)
    sci = confidence_annotating(FAM, base, initial)
    rng = derived_rng("annotator-reference", initial, base_spec)
    samples = [sample_experience(rng, U, max_rank=9, max_len=14) for _ in range(150)]
    samples += [plain_evens_text().prefix(n) for n in range(0, 30, 3)]
    for sigma in samples:
        assert sci.conjecture(sigma) == reference_confidence_conjecture(
            FAM, base, initial, sigma
        )


def test_annotating_rejects_zero_confidence():
    with pytest.raises(ValueError):
        confidence_annotating(FAM, memorizer(FAM), 0)


@pytest.mark.parametrize(
    "base_spec",
    ["confidence_annotating", {"name": "set_driven", "base": "confidence_annotating"}],
)
def test_annotating_rejects_a_base_from_another_family(base_spec):
    # A nested annotator emits paired indices, which are not indices of FAM.
    base = build_scientist(base_spec, FAM)
    with pytest.raises(ValueError, match="does not conjecture in the annotated family"):
        confidence_annotating(FAM, base, 3)
    with pytest.raises(ValueError):
        confidence_annotating(standard_family(), memorizer(FAM), 3)


# ---------------------------------------------------------------------------
# last novel


def test_last_novel_tracks_latest_first_occurrence():
    sci = last_novel(FAM)
    assert sci(exp("2 4 2")) == tail_index(4)


def test_last_novel_is_order_sensitive():
    sci = last_novel(FAM)
    assert sci(exp("2 4")) == tail_index(4)
    assert sci(exp("4 2")) == tail_index(2)
    assert sci(exp("2 4")) != sci(exp("4 2"))


def test_last_novel_on_pause_only_experience():
    sci = last_novel(FAM)
    assert sci(exp("# #")) == tail_index()


def test_last_novel_unchanged_when_repeating_the_novel_artefact():
    sci = last_novel(FAM)
    assert sci(exp("2 4")) == sci(exp("2 4 4"))


@settings(max_examples=300)
@given(experiences(max_rank=6, max_len=25))
def test_last_novel_matches_the_scanning_reference(sigma):
    assert last_novel(FAM).conjecture(sigma) == reference_last_novel(FAM, sigma)


# ---------------------------------------------------------------------------
# set-driven wrapper


def test_wrapper_canonicalizes_content():
    wrapped = set_driven_wrapper(last_novel(FAM))
    assert wrapped(exp("2 4")) == wrapped(exp("4 2 2"))


@pytest.mark.parametrize(
    "spec", ["memorizer", "dumb_visionary:odds", {"name": "enumeration", "class_order": [1, "{2}"]}],
    ids=str,
)
def test_wrapper_over_a_content_base_gives_the_bases_indices(spec):
    base = build_scientist(spec, FAM)
    wrapped = set_driven_wrapper(base)
    assert wrapped.content is base.content  # the base is set-driven already
    rng = derived_rng("wrapper-test")
    for _ in range(300):
        sigma = sample_experience(rng, U)
        assert wrapped(sigma) == base(sigma)


def test_wrapper_treats_pause_only_like_empty():
    wrapped = set_driven_wrapper(ever_changing(FAM))
    assert wrapped(exp("# # #")) == wrapped(exp(""))


def test_canonical_experience_sorts_by_rank():
    assert canonical_experience({art(4), art(2)}) == exp("2 4")


def test_wrapper_makes_every_registered_base_set_driven():
    from limitlab.scientists import SCIENTISTS

    for name, builder in sorted(SCIENTISTS.items()):
        wrapped = set_driven_wrapper(builder(FAM, {}))
        assert is_set_driven_sampled(wrapped, trials=500, seed=2).passed, name


def test_wrapper_steps_a_fold_base_only_from_the_first_changed_rank():
    stepped = []

    def step(n, d):
        stepped.append(d.rank)
        return n + 1

    wrapped = set_driven_wrapper(Scientist("counting", FAM, fold=Fold(0, step, lambda n: n)))
    assert wrapped(exp("2 8")) == 2 and stepped == [2, 8]
    stepped.clear()
    assert wrapped(exp("2 8 6 4 #")) == 4 and stepped == [4, 6, 8]
    stepped.clear()
    assert wrapped(exp("8 # 2 6 4 8")) == 4 and stepped == []  # same content
    assert wrapped(exp("2 8 6 4 10")) == 5 and stepped == [10]
    stepped.clear()
    assert wrapped(exp("6")) == 1 and stepped == [6]  # not a superset: from the start


# One wrapper per registered base with its defaults (the content bases, the
# fold bases and set_driven over set_driven) and one over a user replay base.
WRAP_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.integers(0, 12)),
        st.tuples(st.just("pause"), st.none()),
        st.tuples(st.just("repeat"), st.none()),
        st.tuples(st.just("shrink"), st.integers(0, 12)),
        st.tuples(st.just("unrelated"), experiences(max_rank=12, max_len=10)),
        st.tuples(st.just("interleave"), st.none()),
    ),
    max_size=30,
)


def _last_two_listed():
    # A replay scientist that reads the order of its data: the set of its last two artefacts.
    return Scientist(
        "last_two", FAM, lambda sigma: tail_index(*[d.rank for d in sigma if d is not PAUSE][-2:])
    )


@pytest.mark.parametrize("base", sorted(SCIENTISTS) + ["user"])
@settings(max_examples=60, deadline=None)
@given(calls=WRAP_CALLS)
def test_one_shared_wrapper_agrees_with_a_fresh_base_over_any_call_sequence(base, calls):
    if base == "user":
        user = _last_two_listed()  # a replay keeps no memo, so it serves as its own fresh base
        wrapped = set_driven_wrapper(user)
        reference = lambda sigma: user.conjecture(canonical_experience(sigma.content()))
    else:
        wrapped = build_scientist({"name": "set_driven", "base": base}, FAM)
        reference = reference_set_driven(base, FAM)
    items: tuple = ()
    other: tuple = (art(3), PAUSE, art(1))  # the second experience of an interleaving
    for kind, arg in calls:
        if kind == "extend":
            items = items + (art(arg),)
        elif kind == "pause":
            items = items + (PAUSE,)
        elif kind == "repeat":
            items = tuple(list(items))  # equal data in a new tuple
        elif kind == "shrink":
            items = items[:arg]
        elif kind == "unrelated":
            items = arg.items
        else:
            items, other = other, items
        sigma = Experience(items)
        assert wrapped.conjecture(sigma) == reference(sigma), (kind, sigma)


# ---------------------------------------------------------------------------
# sampled checks


def test_memorizer_passes_set_driven_check():
    assert is_set_driven_sampled(memorizer(FAM), trials=1000).passed


def test_dumb_visionary_passes_set_driven_check():
    assert is_set_driven_sampled(dumb_visionary(FAM, EVENS), trials=1000).passed


def test_last_novel_fails_set_driven_check_with_valid_pair():
    sci = last_novel(FAM)
    check = is_set_driven_sampled(sci, trials=1000)
    assert not check.passed
    sigma, tau = check.counterexample
    assert sigma.content() == tau.content()
    assert sci(sigma) != sci(tau)


def test_memorizer_passes_consistency_check():
    assert is_consistent_sampled(memorizer(FAM), trials=1000).passed


def test_enumeration_passes_consistency_check():
    sci = enumeration_scientist(FAM, _example_class_order())
    assert is_consistent_sampled(sci, trials=1000).passed


def test_dumb_visionary_fails_consistency_on_non_evens():
    dv = dumb_visionary(FAM, EVENS)
    check = is_consistent_sampled(dv, trials=1000)
    assert not check.passed
    sigma, a = check.counterexample
    assert a in sigma.content()
    assert not EVENS.contains(a)


def test_sampled_checks_reject_nonpositive_trials():
    with pytest.raises(ValueError):
        is_set_driven_sampled(memorizer(FAM), trials=0)
    with pytest.raises(ValueError):
        is_consistent_sampled(memorizer(FAM), trials=0)


def test_same_content_sampler_preserves_content():
    rng = derived_rng("sampler-test")
    for _ in range(500):
        sigma = sample_experience(rng, U)
        tau = sample_same_content(rng, sigma)
        assert tau.content() == sigma.content()


# ---------------------------------------------------------------------------
# folds: resuming from the last experience never changes an index


def test_scientist_needs_exactly_one_of_conjecture_fold_and_content():
    fold = Fold(0, lambda n, d: n + 1, lambda n: n)
    content = FAM.offset.__add__
    for forms in (
        {},
        {"conjecture": len, "fold": fold},
        {"conjecture": len, "content": content},
        {"fold": fold, "content": content},
        {"conjecture": len, "fold": fold, "content": content},
    ):
        with pytest.raises(ValueError, match="exactly one"):
            Scientist("forms", FAM, **forms)


@pytest.mark.parametrize("spec", CONTENT_SPECS, ids=str)
def test_a_content_scientists_memo_gives_the_replays_indices(spec):
    built, reference = build_scientist(spec, FAM), reference_conjecture(spec, FAM)
    assert built.content is not None
    emitted = []
    sci = Scientist(built.name, FAM, content=lambda code: emitted.append(code) or built.content(code))
    # An extension, then calls that share a prefix with the memo but do not extend it.
    for sigma in (exp("2 4"), exp("2 4 # 6 4"), exp("2 4 # 3"), exp("2"), exp(""), exp("7 # 7")):
        assert sci(sigma) == reference(sigma), sigma
    assert emitted == [0b10100, 0b1010100, 0b11100, 0b100, 0, 0b10000000]
    # A content left as it was asks no emit, on an extension or on a fresh start.
    assert sci(exp("7 # 7 7 #")) == sci(exp("# 7")) == reference(exp("7"))
    assert len(emitted) == 6
    # Two artefacts of one rank set one bit, coded whole or as an extension.
    clash = Experience((Artefact("a", 0), Artefact("0", 0), art(2)))
    assert sci(clash) == reference(exp("0 2"))
    assert sci(Experience(clash.items[:1])) == reference(exp("0"))
    assert sci(Experience(clash.items[:2])) == reference(exp("0"))
    assert sci(clash) == reference(exp("0 2"))


@pytest.mark.parametrize("spec", CONTENT_SPECS, ids=str)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigmas=st.lists(experiences(), max_size=8))
def test_every_content_scientist_is_set_driven_and_matches_the_reference(spec, seed, sigmas):
    sci, reference = build_scientist(spec, FAM), reference_conjecture(spec, FAM)
    assert is_set_driven_sampled(sci, trials=50, seed=seed).passed
    for sigma in sigmas:
        assert sci(sigma) == reference(sigma), sigma


def test_fold_conjecture_steps_only_the_new_data_of_an_extension():
    stepped, emitted = [], []

    def step(n, d):
        stepped.append(d)
        return n + 1

    def emit(n):
        emitted.append(n)
        return n

    sci = Scientist("counting", FAM, fold=Fold(0, step, emit))
    assert sci(exp("2 4")) == 2 and stepped == [art(2), art(4)] and emitted == [2]
    stepped.clear()
    assert sci(exp("2 4 # 6")) == 4 and stepped == [PAUSE, art(6)] and emitted == [2, 4]
    stepped.clear()
    assert sci(exp("2 4 # 6")) == 4 and stepped == [] and emitted == [2, 4]
    assert sci(exp("2 5")) == 2 and stepped == [art(2), art(5)] and emitted == [2, 4, 2]
    # A step that leaves the state as it was asks no emit: a pause or a seen artefact on
    # last_novel, on an extension or on a fresh start.
    fold = last_novel(FAM).fold
    emitted.clear()
    sci = Scientist("last_novel", FAM, fold=Fold(fold.init, fold.step, lambda s: emit(s[1])))
    assert sci(exp("2 4")) == 1 << 4 and emitted == [1 << 4]
    assert sci(exp("2 4 #")) == sci(exp("2 4 # 2")) == sci(exp("2 4 # 2 #")) == 1 << 4
    assert sci(exp("2 4 # 2 # 6")) == 1 << 6 and emitted == [1 << 4, 1 << 6]
    assert sci(exp("2 4 6")) == 1 << 6 and emitted == [1 << 4, 1 << 6]


def _user_scientist():
    # A plain replay scientist that churns between two finite languages.
    return Scientist("flip", FAM, lambda sigma: tail_index(len(sigma) // 3 % 2))


# Every registered scientist with its defaults, two with their parameter set,
# wrappers nested two deep, an annotator over set_driven and one over a user
# scientist.
DIFFERENTIAL_SPECS = sorted(SCIENTISTS) + [
    {"name": "enumeration", "class_order": ["{2}", "evens", "{2,4}"]},
    "dumb_visionary:odds",
    {"name": "set_driven", "base": {"name": "set_driven", "base": "memorizer"}},
    {"name": "set_driven", "base": {"name": "confidence_annotating", "base": "last_novel",
                                    "initial_confidence": 1}},
    {"name": "confidence_annotating", "base": {"name": "set_driven", "base": "last_novel"},
     "initial_confidence": 2},
    {"name": "confidence_annotating", "base": "enumeration", "initial_confidence": 1},
    {"name": "confidence_annotating", "base": "dumb_visionary", "initial_confidence": 2},
    {"name": "confidence_annotating", "base": "ever_changing", "initial_confidence": 1},
    "user",
    "annotated user",
]


def _scientist_and_reference(spec):
    if spec == "user":
        user = _user_scientist()
        return user, reference_conjecture(user, FAM)
    if spec == "annotated user":
        user = _user_scientist()
        return confidence_annotating(FAM, user, 1), lambda sigma: reference_confidence_conjecture(
            FAM, user, 1, sigma
        )
    return build_scientist(spec, FAM), reference_conjecture(spec, FAM)


DATUM = st.one_of(st.none(), st.integers(0, 6)).map(lambda r: PAUSE if r is None else art(r))
CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), DATUM),
        st.tuples(st.just("swap last"), DATUM),
        st.tuples(st.just("truncate"), st.integers(0, 12)),
        st.tuples(st.just("repeat"), st.none()),
        st.tuples(st.just("unrelated"), experiences(max_rank=6, max_len=8)),
    ),
    max_size=30,
)


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=str)
@settings(max_examples=60, deadline=None)
@given(calls=CALLS)
def test_every_scientist_agrees_with_replay_over_any_call_sequence(spec, calls):
    sci, reference = _scientist_and_reference(spec)
    items: tuple = ()
    for kind, arg in calls:
        if kind == "extend":
            items = items + (arg,)
        elif kind == "swap last":
            items = items[:-1] + (arg,)
        elif kind == "truncate":
            items = items[:arg]
        elif kind == "repeat":
            items = tuple(list(items))  # equal data in a new tuple
        else:
            items = arg.items
        sigma = Experience(items)
        assert sci.conjecture(sigma) == reference(sigma), (kind, sigma)


def _walk_shared_by_threads(spec, ranks: int) -> None:
    # Four threads walk the prefixes of their own texts through one scientist,
    # so each call may find the memo of another thread's experience.
    sci, reference = build_scientist(spec, FAM), reference_conjecture(spec, FAM)
    rng = derived_rng("threads")
    texts = [tuple(art(rng.randrange(ranks)) for _ in range(60)) for _ in range(4)]
    expected = [[reference(Experience(t[:n])) for n in range(len(t) + 1)] for t in texts]
    got: list = [None] * len(texts)

    def walk(k: int) -> None:
        got[k] = [sci(Experience(texts[k][:n])) for _ in range(5) for n in range(len(texts[k]) + 1)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(len(texts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [e * 5 for e in expected]


def test_a_fold_scientist_shared_by_threads_stays_exact():
    _walk_shared_by_threads({"name": "confidence_annotating", "initial_confidence": 2}, 10)


def test_a_content_scientist_shared_by_threads_stays_exact():
    _walk_shared_by_threads({"name": "enumeration", "class_order": ["{2}", "evens", "{2,4}"]}, 10)


def test_a_set_driven_wrap_shared_by_threads_stays_exact():
    # Most calls insert an artefact in the middle of the wrap's listing.
    _walk_shared_by_threads({"name": "set_driven", "base": "last_novel"}, 40)


# ---------------------------------------------------------------------------
# totality and determinism of every built-in


def _fleet():
    return [
        memorizer(FAM),
        dumb_visionary(FAM, EVENS),
        enumeration_scientist(FAM, _example_class_order()),
        ever_changing(FAM),
        confidence_annotating(FAM, memorizer(FAM), 3),
        last_novel(FAM),
        set_driven_wrapper(last_novel(FAM)),
    ]


def test_every_builtin_is_total_and_deterministic():
    rng = derived_rng("determinism")
    samples = [sample_experience(rng, U) for _ in range(10_000)]
    for sci in _fleet():
        for sigma in samples[:: len(_fleet())]:
            first = sci(sigma)
            second = sci(Experience(tuple(sigma.items)))
            assert first == second
            assert isinstance(first, int) and first >= 0


# ---------------------------------------------------------------------------
# registry


def test_build_scientist_from_string_specs():
    assert build_scientist("memorizer", FAM).name == "memorizer"
    assert build_scientist("dumb_visionary:evens", FAM).name == "dumb_visionary(evens)"
    sci = build_scientist("confidence_annotating:memorizer:2", FAM)
    assert sci.name == "confidence_annotating(memorizer,2)"
    assert build_scientist("set_driven:last_novel", FAM).name == "set_driven(last_novel)"
    enum = build_scientist("enumeration:{}|{2}|evens", FAM)
    assert enum(exp("2")) == tail_index(2)


def test_build_scientist_from_dict_specs():
    sci = build_scientist({"name": "dumb_visionary", "language": "{2,4}"}, FAM)
    assert sci(exp("9")) == tail_index(2, 4)
    enum = build_scientist(
        {"name": "enumeration", "class_order": ["{}", "{2}", "evens"]}, FAM
    )
    assert enum(exp("2 8")) == 0


def test_build_scientist_rejects_bad_specs():
    with pytest.raises(ValueError):
        build_scientist("oracle_of_delphi", FAM)
    with pytest.raises(ValueError):
        build_scientist("memorizer:extra", FAM)
    with pytest.raises(ValueError):
        build_scientist({"language": "evens"}, FAM)


@pytest.mark.parametrize("name", sorted(SCIENTISTS))
def test_build_scientist_rejects_unknown_keys(name):
    with pytest.raises(ValueError, match="takes no 'bogus' entry"):
        build_scientist({"name": name, "bogus": 1}, FAM)
    with pytest.raises(ValueError, match="takes no 'bogus' entry"):
        build_scientist({"name": "set_driven", "base": {"name": name, "bogus": 1}}, FAM)


def test_build_scientist_accepts_every_named_key():
    sci = build_scientist(
        {"name": "confidence_annotating", "base": "memorizer", "initial_confidence": 2}, FAM
    )
    assert sci.name == "confidence_annotating(memorizer,2)"
