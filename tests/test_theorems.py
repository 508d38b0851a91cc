"""The executable witness suite."""

from __future__ import annotations

import pytest

from helpers import CONTENT_SPECS, U, art, exp, standard_family
from limitlab import (
    Situation,
    build_scientist,
    dumb_visionary,
    ever_changing,
    finite_language,
    memorizer,
    novelty,
    novelty_guard_without_set_drivenness_witness,
    novelty_not_necessary_witness,
    novelty_not_sufficient_witness,
    run_theorem_suite,
    set_driven_novelty_property,
    transformativeness,
)
from limitlab.scientists import SampledCheck
from limitlab.theorems import _require_novel_if_transformative

FAM = standard_family()


def test_novelty_not_sufficient_witness_values():
    record = novelty_not_sufficient_witness()
    assert record.values["novel"] == 1
    assert record.values["transformative"] == 0


def test_any_constant_scientist_generalizes_the_witness():
    for lang in (FAM.specials[0], finite_language(U, (art(7),))):
        dv = dumb_visionary(FAM, lang)
        for sigma in (exp(""), exp("2 4"), exp("# 3")):
            for rank in range(6):
                a = art(rank)
                if a in sigma.content():
                    continue
                s = Situation(dv, sigma)
                assert novelty(a, s) == 1
                assert transformativeness(a, s) == 0


def test_novelty_not_necessary_witness_values():
    record = novelty_not_necessary_witness()
    assert record.values["novel"] == 0
    assert record.values["transformative"] == 1


def test_minimal_repeat_also_proves_non_necessity():
    s = Situation(ever_changing(FAM), exp("5"))
    assert novelty(art(5), s) == 0
    assert transformativeness(art(5), s) == 1


def test_set_driven_property_counts_and_passes():
    record = set_driven_novelty_property(trials=2000, seed=1)
    assert record.values["violations"] == 0
    assert record.values["exhaustive_cases"] >= 2000
    assert record.values["sampled_cases"] == 2000


def test_set_driven_property_rejects_bad_trials():
    with pytest.raises(ValueError):
        set_driven_novelty_property(trials=0)


def test_novelty_guard_witness_produces_separating_pair():
    record = novelty_guard_without_set_drivenness_witness(trials=2000, seed=1)
    assert record.values["violations"] == 0
    assert record.values["swept_cases"] == 1023  # 341 experiences x 3 candidates
    sigma_repr, tau_repr = record.values["counterexample"]
    assert sigma_repr != tau_repr


def test_suite_runs_all_four_and_passes():
    items = run_theorem_suite(trials=500, seed=3)
    assert [item.name for item in items] == [
        "novelty-not-sufficient",
        "novelty-not-necessary",
        "set-driven-novelty-necessity",
        "novelty-guard-without-set-drivenness",
    ]
    assert all(item.passed for item in items)


def _never_finds(sci, trials=0, seed=0):
    return SampledCheck(True, trials)


# (patched name in theorems, replacement, index of the one failing check, summary prefix)
@pytest.mark.parametrize(
    "name, replacement, failing, summary",
    [
        # A sampler that never finds the violation breaks the order-sensitivity witness.
        ("is_set_driven_sampled", _never_finds, 3, ""),
        # A memorizer holds its index on an already-seen artefact.
        ("ever_changing", memorizer, 1, ""),
        # An ever-changing scientist transforms on repeated artefacts.
        (
            "_set_driven_fleet",
            lambda fam: [ever_changing(fam)],
            2,
            "ever_changing transformed on non-novel",
        ),
    ],
    ids=["is_set_driven_sampled", "ever_changing", "_set_driven_fleet"],
)
def test_suite_reports_failures_instead_of_raising(
    monkeypatch, name, replacement, failing, summary
):
    from limitlab import theorems

    # Each break fails exactly one check; the suite turns it into a failed item.
    monkeypatch.setattr(theorems, name, replacement)
    items = theorems.run_theorem_suite(trials=50, seed=0)
    assert [item.passed for item in items] == [i != failing for i in range(4)]
    assert items[failing].summary.startswith(summary)


@pytest.mark.parametrize("spec", CONTENT_SPECS, ids=str)
def test_a_non_novel_append_still_asks_a_content_scientist_on_both_experiences(spec):
    # The witnesses rate the scientist by asking it, never by its set-driven form.
    sci = build_scientist(spec, FAM)
    asked = []
    inner = sci.conjecture
    object.__setattr__(sci, "conjecture", lambda sigma: asked.append(sigma) or inner(sigma))
    _require_novel_if_transformative(sci, exp("2 # 4"), art(2))
    assert asked == [exp("2 # 4"), exp("2 # 4 2")]
