"""Samplers draw exactly the random streams of their ``randint``/``choice`` references,
the case kernel draws exactly the per-draw samplers' cases, and the witness check asks
novelty first yet flags exactly the cases it flagged before."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    U,
    art,
    exp,
    experiences,
    reference_require_novel_if_transformative,
    reference_sample_artefact,
    reference_sample_experience,
    reference_sample_same_content,
    standard_family,
)
from limitlab import Scientist, derived_rng, ever_changing, is_pause, memorizer, theorems
from limitlab.sampling import (
    ranked_artefacts,
    sample_artefact,
    sample_cases,
    sample_experience,
    sample_experience_over,
    sample_member,
    sample_same_content,
)
from limitlab.scientists import SCIENTISTS
from limitlab.theorems import (
    TheoremCheckError,
    _require_novel_if_transformative,
    _sample,
    _set_driven_fleet,
    _sweep,
    _witness_family,
)

FAM = standard_family()
SEEDS = range(60)


def _twin_rngs(seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("max_len", [0, 1, 8, 14])
@pytest.mark.parametrize("max_rank", [0, 1, 7, 9, 100])
def test_experience_samplers_draw_the_reference_stream(max_rank, max_len):
    artefacts = ranked_artefacts(U, max_rank)
    for seed in SEEDS:
        rng, ref = _twin_rngs(seed)
        for _ in range(5):
            expected = reference_sample_experience(ref, U, max_rank, max_len)
            assert sample_experience(rng, U, max_rank, max_len) == expected
            expected = reference_sample_experience(ref, U, max_rank, max_len)
            assert sample_experience_over(rng, artefacts, max_len) == expected
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("max_rank", [0, 1, 7, 9, 100])
def test_artefact_samplers_draw_the_reference_stream(max_rank):
    artefacts = ranked_artefacts(U, max_rank)
    assert artefacts == tuple(art(r) for r in range(max_rank + 1))
    for seed in SEEDS:
        rng, ref = _twin_rngs(seed)
        for _ in range(5):
            assert sample_artefact(rng, U, max_rank) == reference_sample_artefact(ref, U, max_rank)
            assert sample_member(rng, artefacts) == reference_sample_artefact(ref, U, max_rank)
        assert rng.getstate() == ref.getstate()


def test_member_sampler_draws_the_choice_stream_over_the_witness_fleet():
    fleet = _set_driven_fleet(_witness_family())
    assert len(fleet) == 9
    for seed in range(500):
        rng, ref = _twin_rngs(seed)
        drawn = [sample_member(rng, fleet) for _ in range(7)]
        assert drawn == [ref.choice(fleet) for _ in range(7)]
        assert rng.getstate() == ref.getstate()


def test_same_content_sampler_draws_the_reference_stream():
    for seed in SEEDS:
        rng, ref = _twin_rngs(seed)
        for _ in range(5):
            sigma = sample_experience(rng, U, 9, 14)
            assert sigma == reference_sample_experience(ref, U, 9, 14)
            assert sample_same_content(rng, sigma) == reference_sample_same_content(ref, sigma)
        assert rng.getstate() == ref.getstate()


def _drawn_cases(rng, members, artefacts, trials, max_len=8):
    """The per-draw reference of ``sample_cases``: three sampler calls per case."""
    return [
        (
            sample_member(rng, members),
            sample_experience_over(rng, artefacts, max_len),
            sample_member(rng, artefacts),
        )
        for _ in range(trials)
    ]


@pytest.mark.parametrize("max_len", [0, 1, 8, 14])
@pytest.mark.parametrize("members", [1, 2, 3, 8, 9, 17])
def test_case_kernel_draws_the_per_draw_samplers_cases(members, max_len):
    fleet = tuple(f"m{i}" for i in range(members))
    for n in (1, 2, 7, 8, 9):
        artefacts = ranked_artefacts(U, n - 1)
        for seed in range(200):
            rng, ref = _twin_rngs(seed)
            drawn = list(sample_cases(rng, fleet, artefacts, 3, max_len))
            assert drawn == _drawn_cases(ref, fleet, artefacts, 3, max_len)
            assert rng.getstate() == ref.getstate()


def test_case_kernel_is_lazy_and_stops_after_its_trials():
    rng, ref = _twin_rngs(7)
    artefacts = ranked_artefacts(U)
    cases = sample_cases(rng, "ab", artefacts, 2)
    assert rng.getstate() == ref.getstate()
    assert next(cases) == _drawn_cases(ref, "ab", artefacts, 1)[0]
    assert list(cases) == _drawn_cases(ref, "ab", artefacts, 1)
    assert list(sample_cases(rng, "ab", artefacts, 0)) == []
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: sample_member(rng, ()),
        lambda rng: sample_artefact(rng, U, -1),
        lambda rng: sample_experience(rng, U, max_len=-1),
        lambda rng: ranked_artefacts(U, -1),
        lambda rng: sample_experience_over(rng, ()),
        lambda rng: sample_experience_over(rng, (), 0),
        lambda rng: sample_cases(rng, (), ranked_artefacts(U), 1),
        lambda rng: sample_cases(rng, "ab", (), 1),
        lambda rng: sample_cases(rng, "ab", ranked_artefacts(U), 1, -1),
    ],
    ids=["empty-member", "artefact-rank", "experience-length", "ranked-artefacts",
         "experience-over-nothing", "empty-experience-over-nothing", "case-member",
         "case-artefact", "case-length"],
)
def test_empty_ranges_raise_instead_of_spinning(draw):
    # The kernel raises when called, not on its first step, and no case draws first.
    rng, ref = _twin_rngs(0)
    with pytest.raises(ValueError):
        draw(rng)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("max_len", [0, 1, 8])
def test_experience_over_no_artefacts_raises_for_every_seed(max_len):
    for seed in range(200):
        rng, ref = _twin_rngs(seed)
        with pytest.raises(ValueError):
            sample_experience_over(rng, (), max_len)
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# the witness's sampled loop against the per-draw loop


def _sample_per_draw(fleet, artefacts, rng, trials):
    """``theorems._sample`` as a per-draw loop: the reference order of draws and checks."""
    for _ in range(trials):
        scientist = sample_member(rng, fleet)
        sigma = sample_experience_over(rng, artefacts)
        _require_novel_if_transformative(scientist, sigma, sample_member(rng, artefacts))


def test_set_driven_property_checks_the_per_draw_loops_cases(monkeypatch):
    checked = []

    def record(scientist, sigma, a):
        checked.append((scientist.name, sigma, a))
        _require_novel_if_transformative(scientist, sigma, a)

    monkeypatch.setattr(theorems, "_require_novel_if_transformative", record)
    fam = _witness_family()
    fleet = _set_driven_fleet(fam)
    artefacts = ranked_artefacts(fam.universe)
    for seed in range(10):
        checked.clear()
        witness = theorems.set_driven_novelty_property(trials=2000, seed=seed)
        sampled = checked[witness.values["exhaustive_cases"]:]
        rng = derived_rng("set-driven-novelty", seed)
        expected = [(s.name, sigma, a) for s, sigma, a in _drawn_cases(rng, fleet, artefacts, 2000)]
        assert sampled == expected


def _last_seen_scientist():
    return Scientist("last_seen", FAM, _last_seen)


@pytest.mark.parametrize(
    "fleet",
    [
        lambda fam: [memorizer(fam), ever_changing(fam)],
        lambda fam: [memorizer(fam), _last_seen_scientist()],
        lambda fam: _set_driven_fleet(fam) + [_last_seen_scientist()],
    ],
    ids=["ever_changing", "last_seen", "set-driven-fleet-and-last_seen"],
)
def test_sampled_loop_fails_on_the_per_draw_loops_first_case(fleet):
    fam = _witness_family()
    artefacts = ranked_artefacts(fam.universe)
    for seed in range(20):
        rng, ref = _twin_rngs(seed)
        with pytest.raises(TheoremCheckError) as expected:
            _sample_per_draw(fleet(fam), artefacts, ref, 500)
        with pytest.raises(TheoremCheckError) as got:
            _sample(fleet(fam), artefacts, rng, 500)
        assert str(got.value) == str(expected.value)
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# novelty-first witness check against the transform-first reference


def _last_seen(sigma):
    """Not set-driven: the index of the singleton of the last artefact seen."""
    latest = next((d for d in reversed(sigma.items) if not is_pause(d)), None)
    return FAM.finite_index(() if latest is None else (latest,))


# Every registered scientist, ever_changing among them, and one outside the registry.
CHECKED = [builder(FAM, {}) for _, builder in sorted(SCIENTISTS.items())] + [
    Scientist("last_seen", FAM, _last_seen),
]


def _verdict(check, scientist, sigma, a) -> str | None:
    try:
        check(scientist, sigma, a)
    except TheoremCheckError as err:
        return str(err)
    return None


@settings(max_examples=300, deadline=None)
@given(
    scientist=st.sampled_from(CHECKED),
    sigma=experiences(max_rank=5, max_len=6),
    rank=st.integers(0, 5),
)
def test_novelty_first_check_flags_the_cases_the_transform_first_check_flags(
    scientist, sigma, rank
):
    a = art(rank)
    expected = _verdict(reference_require_novel_if_transformative, scientist, sigma, a)
    assert _verdict(_require_novel_if_transformative, scientist, sigma, a) == expected


def test_novelty_first_check_passes_a_novel_append_and_flags_a_moving_repeat():
    for scientist in (ever_changing(FAM), Scientist("last_seen", FAM, _last_seen)):
        _require_novel_if_transformative(scientist, exp("2 #"), art(3))
        flagged = r"non-novel Artefact\(2\) after Experience\(2 # 3\)"
        with pytest.raises(TheoremCheckError, match=flagged):
            _require_novel_if_transformative(scientist, exp("2 # 3"), art(2))


def test_sweep_of_an_ever_changing_fleet_fails_on_the_same_first_case():
    fam = _witness_family()
    with pytest.raises(TheoremCheckError) as excinfo:
        _sweep([ever_changing(fam)], fam.universe, 3)
    first = "ever_changing transformed on non-novel Artefact(0) after Experience(0)"
    assert str(excinfo.value) == first
