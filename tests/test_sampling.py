"""Samplers draw exactly the random streams of their ``randint``/``choice`` references,
and the witness check asks novelty first yet flags exactly the cases it flagged before."""

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
from limitlab import Scientist, ever_changing, is_pause
from limitlab.sampling import (
    ranked_artefacts,
    sample_artefact,
    sample_experience,
    sample_experience_over,
    sample_member,
    sample_same_content,
)
from limitlab.scientists import SCIENTISTS
from limitlab.theorems import (
    TheoremCheckError,
    _require_novel_if_transformative,
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


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: sample_member(rng, ()),
        lambda rng: sample_artefact(rng, U, -1),
        lambda rng: sample_experience(rng, U, max_len=-1),
        lambda rng: ranked_artefacts(U, -1),
    ],
    ids=["empty-member", "artefact-rank", "experience-length", "ranked-artefacts"],
)
def test_empty_ranges_raise_instead_of_spinning(draw):
    with pytest.raises(ValueError):
        draw(random.Random(0))


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
