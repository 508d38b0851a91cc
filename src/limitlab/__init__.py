"""Identification-in-the-limit experiments with novelty and transformation schemas.

A small laboratory for Gold-style inductive inference at finite horizons:
artefact universes and texts (fates), indexed language families as hypothesis
spaces, scientists as total deterministic learners, dichotomic rating schemas
over artefacts, and an executable witness suite relating novelty to
transformational behaviour.
"""

from .core import (
    PAUSE,
    Artefact,
    Canonical,
    Datum,
    Experience,
    Fate,
    NATURALS,
    Padded,
    Pause,
    RepetitionHeavy,
    STRATEGIES,
    Schedule,
    ShuffledWindow,
    TextStrategy,
    UNIVERSES,
    Universe,
    canonical_experience,
    decimal_universe,
    derived_rng,
    experience_from_tokens,
    experience_to_tokens,
    fate_from_function,
    is_pause,
    letters_universe,
    make_fate,
)
from .families import (
    LANGUAGES,
    AnnotationFamily,
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
    odds_language,
    pair,
    registry_oracle,
    resolve_language,
    unpair,
)
from .identification import (
    ConvergenceReport,
    ExperimentRow,
    ExperimentTable,
    IdentificationVerdict,
    Outcome,
    TraceStep,
    bc_converges_at,
    converges_at,
    identifies_text,
    identify_class,
    transformation_trace,
)
from .schemas import (
    INDETERMINATE,
    Situation,
    Verdict,
    change_verdict,
    hypothetical_space,
    novelty,
    semantic_transformativeness,
    transformativeness,
)
from .scientists import (
    SCIENTISTS,
    Fold,
    SampledCheck,
    Scientist,
    build_scientist,
    confidence_annotating,
    dumb_visionary,
    enumeration_scientist,
    ever_changing,
    is_consistent_sampled,
    is_set_driven_sampled,
    last_novel,
    memorizer,
    set_driven_wrapper,
)
from .theorems import (
    SuiteItem,
    TheoremCheckError,
    WitnessRecord,
    novelty_guard_without_set_drivenness_witness,
    novelty_not_necessary_witness,
    novelty_not_sufficient_witness,
    run_theorem_suite,
    set_driven_novelty_property,
)

__version__ = "0.1.0"
