"""Novelty and transformativeness schemas over situations."""

from __future__ import annotations

import pytest

from helpers import U, art, exp, members, plain_evens_text, standard_family
from limitlab import (
    INDETERMINATE,
    PAUSE,
    Situation,
    confidence_annotating,
    derived_rng,
    dumb_visionary,
    ever_changing,
    hypothetical_space,
    last_novel,
    memorizer,
    novelty,
    semantic_transformativeness,
    transformativeness,
)
from limitlab.sampling import sample_experience

FAM = standard_family()
EVENS = FAM.specials[0]


def sit(scientist, spec: str) -> Situation:
    return Situation(scientist, exp(spec))


# ---------------------------------------------------------------------------
# hypothetical space


def test_memorizer_space_is_the_content():
    space = hypothetical_space(sit(memorizer(FAM), "2 4"))
    assert members(space) == {art(2), art(4)}


def test_visionary_space_is_constant():
    dv = dumb_visionary(FAM, EVENS)
    assert hypothetical_space(sit(dv, "")).label == "evens"
    assert hypothetical_space(sit(dv, "9 7 #")).label == "evens"


def test_empty_experience_space_is_empty():
    assert members(hypothetical_space(sit(memorizer(FAM), ""))) == frozenset()


# ---------------------------------------------------------------------------
# novelty


def test_unseen_artefact_is_novel():
    assert novelty(art(6), sit(memorizer(FAM), "2 4")) == 1


def test_seen_artefact_is_not_novel():
    assert novelty(art(4), sit(memorizer(FAM), "2 4 4")) == 0


def test_everything_is_novel_against_pauses():
    assert novelty(art(0), sit(memorizer(FAM), "# #")) == 1


def test_novelty_ignores_the_scientist():
    rng = derived_rng("novelty-independence")
    scientists = [memorizer(FAM), dumb_visionary(FAM, EVENS), ever_changing(FAM)]
    for _ in range(200):
        sigma = sample_experience(rng, U)
        a = U.artefact(rng.randint(0, 7))
        verdicts = {novelty(a, Situation(m, sigma)) for m in scientists}
        assert len(verdicts) == 1


def test_schemas_reject_a_bare_tuple():
    # An artefact compares equal to its (token, rank) tuple; the schemas still
    # rate artefacts only.
    s = sit(memorizer(FAM), "2")
    for schema in (novelty, transformativeness, semantic_transformativeness):
        with pytest.raises(TypeError):
            schema(("2", 2), s)


def test_schemas_reject_the_pause():
    s = sit(memorizer(FAM), "2")
    with pytest.raises(TypeError):
        novelty(PAUSE, s)
    with pytest.raises(TypeError):
        transformativeness(PAUSE, s)
    with pytest.raises(TypeError):
        semantic_transformativeness(PAUSE, s)


# ---------------------------------------------------------------------------
# transformativeness


def test_novel_but_not_transformative_for_constant_scientist():
    s = sit(dumb_visionary(FAM, EVENS), "2 4")
    assert novelty(art(5), s) == 1
    assert transformativeness(art(5), s) == 0


def test_transformative_but_not_novel_for_ever_changing():
    s = sit(ever_changing(FAM), "2 4")
    assert novelty(art(2), s) == 0
    assert transformativeness(art(2), s) == 1


def test_repeat_leaves_memorizer_unchanged():
    assert transformativeness(art(4), sit(memorizer(FAM), "2 4")) == 0


def test_fresh_artefact_moves_the_memorizer_and_is_novel():
    s = sit(memorizer(FAM), "2 4")
    assert transformativeness(art(6), s) == 1
    assert novelty(art(6), s) == 1


def test_any_artefact_is_novel_on_empty_experience_but_constant_holds():
    s = sit(dumb_visionary(FAM, EVENS), "")
    for rank in range(5):
        assert novelty(art(rank), s) == 1
        assert transformativeness(art(rank), s) == 0


# ---------------------------------------------------------------------------
# semantic transformativeness


def test_annotation_churn_is_syntactic_not_semantic():
    sci = confidence_annotating(FAM, memorizer(FAM), 3)
    fate = plain_evens_text()
    sigma = fate.prefix(4)  # healthy confidence right after the reset at step 3
    s = Situation(sci, sigma)
    repeated = art(2)  # already in content and inside the base language
    assert novelty(repeated, s) == 0
    assert transformativeness(repeated, s) == 1
    assert semantic_transformativeness(repeated, s) == 0


def test_growing_memorizer_is_semantically_transformative():
    assert semantic_transformativeness(art(4), sit(memorizer(FAM), "2")) == 1


def test_constant_scientist_is_never_semantically_transformative():
    s = sit(dumb_visionary(FAM, EVENS), "2 4")
    for rank in range(6):
        assert semantic_transformativeness(art(rank), s) == 0


def test_equal_indices_force_semantic_zero():
    rng = derived_rng("semantic-reflexive")
    dv = dumb_visionary(FAM, EVENS)
    for _ in range(100):
        sigma = sample_experience(rng, U)
        a = U.artefact(rng.randint(0, 7))
        s = Situation(dv, sigma)
        assert transformativeness(a, s) == 0
        assert semantic_transformativeness(a, s) == 0


def test_unknown_language_comparison_is_indeterminate():
    plain = standard_family(oracle=False)

    def flip(sigma):
        return len(sigma) % 2  # alternates between the two specials

    from limitlab import Scientist

    sci = Scientist(name="flip", family=plain, conjecture=flip)
    verdict = semantic_transformativeness(art(2), Situation(sci, exp("")))
    assert verdict == INDETERMINATE


def test_set_driven_transformation_implies_novelty_sampled():
    rng = derived_rng("schemas-set-driven")
    from limitlab import set_driven_wrapper

    scientists = [memorizer(FAM), set_driven_wrapper(last_novel(FAM))]
    for _ in range(500):
        sigma = sample_experience(rng, U)
        a = U.artefact(rng.randint(0, 7))
        for sci in scientists:
            s = Situation(sci, sigma)
            if transformativeness(a, s) == 1:
                assert novelty(a, s) == 1
