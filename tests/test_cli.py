"""Command-line surface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limitlab
from helpers import U, art, exp, standard_family
from limitlab import (
    INDETERMINATE,
    PAUSE,
    Experience,
    STRATEGIES,
    Padded,
    Situation,
    TraceStep,
    letters_universe,
    make_fate,
    memorizer,
    novelty,
    resolve_language,
    semantic_transformativeness,
    transformativeness,
)
from limitlab.cli import _trace_json_line, main, parse_strategy

TRACE_KEYS = {
    "step",
    "datum",
    "hyp_index",
    "hyp_set",
    "hyp_changed",
    "novel",
    "transformative",
    "semantically_transformative",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# trace


def test_trace_memorizer_on_small_finite_language(capsys):
    code, out, _ = run(
        capsys,
        "trace",
        "--language",
        "{2,4}",
        "--strategy",
        "canonical",
        "--horizon",
        "5",
        "--format",
        "jsonl",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 6
    assert set(records[0]) == TRACE_KEYS
    changed_steps = [r["step"] for r in records if r["hyp_changed"]]
    assert changed_steps == [0, 1]  # the steps appending 2 and then 4
    assert records[2]["hyp_set"] == "{2,4}"


def test_trace_constant_scientist_never_changes(capsys):
    code, out, _ = run(
        capsys,
        "trace",
        "--scientist",
        "dumb_visionary:evens",
        "--language",
        "evens",
        "--horizon",
        "3",
        "--format",
        "jsonl",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(not r["hyp_changed"] for r in records)
    assert all(r["hyp_set"] is None for r in records)  # roster index, not tail


def test_trace_is_byte_identical_across_runs(capsys):
    argv = (
        "trace",
        "--scientist",
        "confidence_annotating:memorizer:3",
        "--language",
        "{1,2,3}",
        "--strategy",
        "padded:0.25",
        "--seed",
        "7",
        "--horizon",
        "12",
        "--format",
        "jsonl",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first.encode() == second.encode()


def test_trace_records_match_library_recomputation(capsys):
    _, out, _ = run(
        capsys,
        "trace",
        "--language",
        "{2,4}",
        "--strategy",
        "padded:0.25",
        "--seed",
        "3",
        "--horizon",
        "8",
        "--format",
        "jsonl",
    )
    fam = standard_family()
    sci = memorizer(fam)
    fate = make_fate(resolve_language("{2,4}", U), Padded(0.25), 3)
    data = fate.prefix(9).items
    for record in map(json.loads, out.splitlines()):
        n = record["step"]
        sigma = Experience(data[:n])
        assert record["hyp_index"] == sci(sigma)
        if record["datum"] == "#":
            assert record["novel"] is None
        else:
            a = U.parse(record["datum"])
            s = Situation(sci, sigma)
            assert record["novel"] == novelty(a, s)
            assert record["transformative"] == transformativeness(a, s)
            assert record["semantically_transformative"] == semantic_transformativeness(a, s)


def test_trace_pretty_format_mentions_the_run(capsys):
    code, out, _ = run(capsys, "trace", "--language", "{2}", "--horizon", "2")
    assert code == 0
    assert "memorizer" in out
    assert "{2}" in out


LETTERS = letters_universe()
DATA = st.one_of(
    st.just(PAUSE),
    st.integers(0, 10**6).map(U.artefact),
    st.integers(0, 10**6).map(LETTERS.artefact),
)
HYP_SETS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(["2", "10", "a", "zz", "007"]), max_size=4).map(
        lambda tokens: "{" + ",".join(tokens) + "}"
    ),
)
FLAGS = st.sampled_from([None, 0, 1])


@settings(max_examples=300, deadline=None)
@given(
    step=st.integers(0, 10**6),
    datum=DATA,
    hyp_index=st.integers(0, 10**4000),
    hyp_set=HYP_SETS,
    hyp_changed=st.booleans(),
    novel=FLAGS,
    transformative=FLAGS,
    semantic=st.sampled_from([None, 0, 1, INDETERMINATE]),
)
def test_trace_jsonl_line_is_json_dumps_of_its_record(
    step, datum, hyp_index, hyp_set, hyp_changed, novel, transformative, semantic
):
    trace_step = TraceStep(step, datum, hyp_index, hyp_changed, novel, transformative, semantic)
    record = {
        "step": step,
        "datum": "#" if datum is PAUSE else datum.token,
        "hyp_index": hyp_index,
        "hyp_set": hyp_set,
        "hyp_changed": hyp_changed,
        "novel": novel,
        "transformative": transformative,
        "semantically_transformative": semantic,
    }
    assert _trace_json_line(trace_step, hyp_set) == json.dumps(record, separators=(",", ":"))


# ---------------------------------------------------------------------------
# identify


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_identify_sixteen_finite_languages(tmp_path, capsys):
    literals = []
    elements = ["0", "1", "2", "3"]
    for mask in range(16):
        members = [elements[i] for i in range(4) if mask & (1 << i)]
        literals.append("{" + ",".join(members) + "}")
    config = _write_config(
        tmp_path,
        {
            "scientist": "memorizer",
            "languages": literals,
            "strategies": ["canonical", "padded:0.25", "shuffled-window:4"],
            "seeds": [0],
            "horizon": 64,
            "format": "csv",
        },
    )
    code, out, err = run(capsys, "identify", "--config", config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "language,strategy,seed,horizon,verdict,last_change_step"
    rows = lines[1:]
    assert len(rows) == 48
    assert all(",Identified," in row for row in rows)
    assert "48/48" in err


def test_identify_visionary_over_evens_and_odds(capsys):
    code, out, _ = run(
        capsys,
        "identify",
        "--scientist",
        "dumb_visionary:evens",
        "--languages",
        "evens;odds",
        "--format",
        "jsonl",
    )
    assert code == 0  # verdicts are data, not errors
    records = [json.loads(line) for line in out.splitlines()]
    verdicts = [r["verdict"] for r in records if "verdict" in r]
    assert verdicts == ["Identified", "NotIdentified(wrong-language)"]
    assert "not identified" in records[-1]["summary"]


def test_identify_empty_class_is_vacuous(tmp_path, capsys):
    config = _write_config(tmp_path, {"languages": [], "format": "pretty"})
    code, out, _ = run(capsys, "identify", "--config", config)
    assert code == 0
    assert "vacuously identifiable" in out


def test_structured_config_specs(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "universe": "decimal",
            "family": {"specials": ["evens"]},
            "scientist": {"name": "set_driven", "base": "last_novel"},
            "languages": ["{2}"],
            "strategies": [{"name": "padded", "pause_density": 0.5}],
            "seeds": [4],
            "horizon": 16,
            "format": "csv",
        },
    )
    code, out, _ = run(capsys, "identify", "--config", config)
    assert code == 0
    assert "{2},padded(0.5),4,16,Identified" in out


# ---------------------------------------------------------------------------
# theorems


def test_theorems_default_run_passes(capsys):
    code, out, _ = run(capsys, "theorems", "--trials", "200")
    assert code == 0
    assert out.count("PASS") == 4
    assert "4/4 checks passed" in out


def test_theorems_single_trial_still_passes(capsys):
    code, out, _ = run(capsys, "theorems", "--trials", "1", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["passed"] for r in records] == [True, True, True, True]


HASH_SEED_ARGV = {
    "theorems": ("theorems", "--trials", "1"),
    "trace": ("trace", "--scientist", "set_driven:last_novel",
              "--strategy", "shuffled-window:3", "--horizon", "24"),
    "identify": ("identify", "--scientist", "set_driven:memorizer",
                 "--languages", "{};{2,4};{3,5,7};evens",
                 "--strategies", "shuffled-window:3;repetition-heavy", "--seeds", "0;1"),
}


@pytest.mark.parametrize("argv", HASH_SEED_ARGV.values(), ids=HASH_SEED_ARGV.keys())
def test_output_does_not_depend_on_the_hash_seed(argv):
    # Artefact sets iterate in an order that follows the string hash.
    env = dict(os.environ, PYTHONPATH=str(Path(limitlab.__file__).parents[1]))
    outputs = set()
    for hash_seed in ("0", "8", "21"):
        done = subprocess.run(
            [sys.executable, "-m", "limitlab.cli", *argv, "--format", "jsonl"],
            env=dict(env, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        records = [json.loads(line) for line in done.stdout.splitlines()]
        if argv[0] == "theorems":
            assert [r["passed"] for r in records] == [True, True, True, True]
        else:
            assert len(records) > 1
        outputs.add(done.stdout)
    assert len(outputs) == 1


# The reader takes one line and leaves. "trace" and "identify" write far more
# than a pipe buffer holds, so they are still writing then, one line per write.
# "list" writes less than the stdout buffer holds into a pipe nobody reads, so
# buffered, only the final flush meets the closed pipe.
IDENTIFY_GRID = ("identify", "--scientist", "memorizer",
                 "--languages", "{};{2,4};{3,5,7};evens;odds",
                 "--strategies", "canonical;padded:0.25;shuffled-window:3;repetition-heavy",
                 "--seeds", ";".join(map(str, range(100))))
EARLY_CLOSE_ARGV = {
    "trace": ("trace", "--horizon", "600", "--format", "jsonl"),
    "identify": IDENTIFY_GRID,
    "identify-csv": (*IDENTIFY_GRID, "--format", "csv"),
    "list": ("list",),
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", EARLY_CLOSE_ARGV.values(), ids=EARLY_CLOSE_ARGV.keys())
def test_reader_closing_the_pipe_early_exits_141_without_a_traceback(argv, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(Path(limitlab.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    reads_a_line = argv != EARLY_CLOSE_ARGV["list"]
    if not reads_a_line:
        os.close(read_end)
    proc = subprocess.Popen(
        [sys.executable, "-m", "limitlab.cli", *argv],
        env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
    )
    os.close(write_end)
    if reads_a_line:
        with os.fdopen(read_end) as reader:
            assert reader.readline()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == ""


def test_theorems_broken_component_exits_one(monkeypatch, capsys):
    from limitlab import theorems
    from limitlab.scientists import SampledCheck

    monkeypatch.setattr(
        theorems,
        "is_set_driven_sampled",
        lambda sci, trials=0, seed=0: SampledCheck(True, trials),
    )
    code, out, _ = run(capsys, "theorems", "--trials", "50")
    assert code == 1
    assert "FAIL novelty-guard-without-set-drivenness" in out


# ---------------------------------------------------------------------------
# list and errors


def test_list_prints_registries(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for section in ("universes:", "languages:", "scientists:", "strategies:"):
        assert section in out
    assert "  evens" in out
    assert "  repetition-heavy" in out
    strategies = out.split("strategies:\n")[1]
    assert strategies.splitlines() == [f"  {name}" for name in STRATEGIES]


STRATEGY_SPECS = [
    ("canonical", {"name": "canonical"}),
    ("padded", {"name": "padded"}),
    ("padded:0.5", {"name": "padded", "pause_density": 0.5}),
    ("shuffled-window:3", {"name": "shuffled-window", "window": 3}),
    ("repetition-heavy:0.125", {"name": "repetition-heavy", "repeat_rate": 0.125}),
]


def test_strategy_specs_cover_the_registry():
    assert {params["name"] for _, params in STRATEGY_SPECS} == set(STRATEGIES)


@pytest.mark.parametrize("text, params", STRATEGY_SPECS)
def test_strategy_spec_forms_agree_and_round_trip(text, params):
    strategy = parse_strategy(text)
    assert type(strategy) is STRATEGIES[params["name"]]
    assert parse_strategy(params) == strategy
    assert parse_strategy(re.sub(r"\((.*)\)$", r":\1", str(strategy))) == strategy


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--horizon", "0"),
        ("trace", "--scientist", "oracle_of_delphi"),
        ("trace", "--language", "primes"),
        ("trace", "--strategy", "padded:1.5"),
        ("identify", "--seeds", "a;b"),
        # No cell would run: the class is not empty, its texts are.
        ("identify", "--seeds", ";"),
        # One flag would silently drop the other.
        ("identify", "--seed", "3", "--seeds", "1;2"),
        ("--seed", "3", "identify", "--seeds", "1;2"),
        ("identify", "--strategies", ";"),
        ("trace", "--strategy", "canonical:1"),
        ("trace", "--strategy", "zigzag"),
        ("trace", "--strategy", "shuffled-window:2.0"),
        ("trace", "--strategy", "shuffled-window:99999999999999999999", "--horizon", "2"),
        ("trace", "--scientist", "confidence_annotating:confidence_annotating"),
        ("theorems", "--format", "csv", "--trials", "1"),
        # Past sys.maxsize - 1: islice cannot stream horizon + 1 data.
        ("trace", "--horizon", "100000000000000000000"),
        ("identify", "--horizon", "100000000000000000000"),
        # A rank past sys.maxsize cannot be a set-code bit.
        ("trace", "--language", "{99999999999999999999}", "--horizon", "2"),
        ("identify", "--languages", "{99999999999999999999}", "--horizon", "2"),
        ("trace", "--scientist", "dumb_visionary:{99999999999999999999}", "--horizon", "2"),
        # A token must be its rank's own spelling: "٣" is a digit, but not "3".
        ("identify", "--languages", "{٣};{3}", "--horizon", "8"),
        # Ranks of 2**24 and up would take set codes of megabytes and more.
        ("trace", "--language", "{4294967296}", "--horizon", "2"),
        ("trace", "--scientist", "dumb_visionary:{4294967296}", "--horizon", "2"),
        # A window is held whole in memory, so it stops at 2**16.
        ("trace", "--strategy", "shuffled-window:65537", "--horizon", "1"),
    ],
)
def test_config_errors_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("limitlab: ")


def test_bad_format_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--format", "yaml"])
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["dance"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--horizon", "3", "trace", "--format", "jsonl"],
        ["trace", "--horizon", "3", "--format", "jsonl"],
        ["--format", "jsonl", "--horizon", "3", "trace"],
        ["--horizon", "9", "trace", "--horizon", "3", "--format", "jsonl"],
    ],
)
def test_common_flags_hold_before_or_after_the_subcommand(capsys, argv):
    # The subcommand's own flag wins when a flag is given in both places.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [json.loads(line)["step"] for line in out.splitlines()] == [0, 1, 2, 3]


def test_common_flags_before_the_subcommand_are_checked(capsys):
    code, out, err = run(capsys, "--horizon", "0", "trace")
    assert (code, out) == (2, "")
    assert "horizon" in err
    code, _, err = run(capsys, "--config", "/nonexistent/config.json", "identify")
    assert code == 2
    assert "cannot read config" in err


def test_unreadable_config_exits_two(capsys):
    code, _, err = run(capsys, "trace", "--config", "/nonexistent/config.json")
    assert code == 2
    assert "cannot read config" in err


def test_invalid_json_config_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "trace", "--config", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run(capsys, "trace", "--config", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "command, key", [("trace", "horizon"), ("identify", "horizon"), ("theorems", "trials")]
)
def test_boolean_config_numbers_rejected(tmp_path, capsys, command, key):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({key: True}), encoding="utf-8")
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and f"{key} must be an integer" in err


@pytest.mark.parametrize(
    "command, content",
    [
        ("identify", b'{"languages": [5]}'),
        ("trace", b'{"language": 5}'),
        ("identify", b'{"seeds": 5}'),
        ("identify", b'{"strategies": null}'),
        ("trace", b'{"scientist": {"name": "dumb_visionary", "language": 5}}'),
        ("trace", b'{"scientist": {"name": "enumeration", "class_order": [-1]}}'),
        ("trace", b'{"scientist": {"name": "enumeration", "class_order": [1.5]}}'),
        ("trace", b'{"strategy": {"name": "shuffled-window", "window": true}}'),
        ("trace", b'{"strategy": {"name": "shuffled-window", "window": 2.0}}'),
        ("identify", b'{"strategies": [{"name": "padded", "pause_density": false}]}'),
        ("identify", b'{"strategies": [{"name": "canonical", "window": 2}]}'),
        ("trace", b'{"scientist": {"name": "confidence_annotating", "initial_confidence": true}}'),
        ("trace", b'{"scientist": {"name": "confidence_annotating", "initial_confidence": 2.5}}'),
        ("trace", b"\xff\xfe{}"),
        ("trace", b"[" * 100_000 + b"]" * 100_000),
        ("trace", b'{"horizon": 1' + b"0" * 5000 + b"}"),
        ("trace", b'{"scientist": {"name": "confidence_annotating", "initial_confidance": 9}}'),
        ("trace", b'{"scientist": {"name": "memorizer", "bogus": 1}}'),
        ("trace", b'{"family": {"registry_oracle": "no"}}'),
        ("trace", b'{"family": {"specials": "evens"}}'),
        ("trace", b'{"horizn": 3}'),
        ("identify", b'{"seed": 0, "Seeds": [1]}'),
        ("trace", b'{"family": {"special": ["odds"]}}'),
        ("trace", b'{"family": {"universe": "letters"}}'),
        ("trace", b'{"family": ["evens"]}'),
        ("theorems", b'{"trials": 0}'),
    ],
)
def test_malformed_config_values_exit_two(tmp_path, capsys, command, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("limitlab: ")


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"horizn": 3}, "horizn"),
        ({"horizon": 3, "Seeds": [1]}, "Seeds"),
        ({"family": {"special": ["odds"]}}, "special"),
        ({"family": {"universe": "letters"}}, "universe"),
    ],
)
def test_misspelt_config_key_is_named(tmp_path, capsys, payload, key):
    code, out, err = run(capsys, "trace", "--config", _write_config(tmp_path, payload))
    assert code == 2
    assert out == ""
    assert f"'{key}'" in err


@pytest.mark.parametrize("class_order", ["evens", 5])
def test_enumeration_class_order_that_is_not_a_list_exits_two(tmp_path, capsys, class_order):
    spec = {"name": "enumeration", "class_order": class_order}
    code, out, err = run(capsys, "trace", "--config", _write_config(tmp_path, {"scientist": spec}))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "class_order" in err


def test_deeply_nested_scientist_spec_exits_two(tmp_path, capsys):
    # Deep enough to exhaust the recursion limit while the spec is built, but
    # shallow enough for json.load, which gives up at about 1000 levels.
    spec = "memorizer"
    for _ in range(600):
        spec = {"name": "set_driven", "base": spec}
    path = _write_config(tmp_path, {"scientist": spec, "horizon": 2})
    code, out, err = run(capsys, "trace", "--config", path)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("limitlab: ")
    assert "bad scientist spec" in err and "not valid JSON" not in err


def test_letters_token_ranked_past_maxsize_exits_two(tmp_path, capsys):
    # "z" * 14 has rank 6.7e19, past sys.maxsize.
    path = _write_config(tmp_path, {"universe": "letters", "language": "{" + "z" * 14 + "}"})
    code, out, err = run(capsys, "trace", "--config", path, "--horizon", "2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "universe rank" in err


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "pretty"])
def test_trace_index_too_large_to_print_exits_two(capsys, fmt):
    code, out, err = run(
        capsys, "trace", "--language", "{15000}", "--horizon", "1", "--format", fmt
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "decimal digits" in err
    assert "Traceback" not in err


def test_oversized_seed_rejected(capsys):
    code, _, err = run(capsys, "trace", "--seed", str(2**64))
    assert code == 2
    assert "64-bit" in err


@pytest.mark.parametrize("command", ["identify", "trace"])
def test_prefix_too_large_for_memory_exits_two(monkeypatch, capsys, command):
    # Stands in for a horizon within bounds whose prefix memory cannot hold.
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(limitlab.core.Fate, "prefix", no_memory)
    monkeypatch.setattr(limitlab.core.Schedule, "draw", no_memory)
    code, out, err = run(capsys, command, "--horizon", "5")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "out of memory" in err


# ---------------------------------------------------------------------------
# fuzzing: every generated config runs or exits 2, without a traceback

_LANGUAGE_SPECS = st.sampled_from(["evens", "odds", "{}", "{2,4}", "{1,2,3}"])
_STRATEGY_SPECS = st.sampled_from(
    [
        "canonical",
        "padded:0.25",
        "shuffled-window:3",
        "repetition-heavy:0.5",
        {"name": "padded", "pause_density": 0.5},
    ]
)
_SEEDS = st.integers(0, 2**64 - 1)
_VALID_VALUES = {
    "universe": st.sampled_from(["decimal", "letters"]),
    "family": st.fixed_dictionaries(
        {},
        optional={
            "specials": st.lists(st.sampled_from(["evens", "odds"]), max_size=2, unique=True),
            "registry_oracle": st.booleans(),
        },
    ),
    "scientist": st.recursive(
        st.sampled_from(
            [
                "memorizer",
                "ever_changing",
                "last_novel",
                "dumb_visionary:evens",
                "enumeration",
                "confidence_annotating:memorizer:3",
                {"name": "enumeration", "class_order": [1, "{2}"]},
            ]
        ),
        lambda base: st.fixed_dictionaries(
            {"name": st.sampled_from(["set_driven", "confidence_annotating"]), "base": base}
        ),
        max_leaves=3,
    ),
    "language": _LANGUAGE_SPECS,
    "languages": st.lists(_LANGUAGE_SPECS, max_size=3),
    "strategy": _STRATEGY_SPECS,
    "strategies": st.lists(_STRATEGY_SPECS, max_size=2),
    "seed": _SEEDS,
    "seeds": st.lists(_SEEDS, max_size=2),
    "format": st.sampled_from(["jsonl", "csv", "pretty"]),
}
# Wrongly typed or out-of-range values, and misspelt keys.
_FAULTS = {
    "universe": st.sampled_from(["martian", 5]),
    "family": st.sampled_from(
        [["evens"], {"special": ["odds"]}, {"specials": "evens"}, {"universe": "letters"}]
    ),
    "scientist": st.sampled_from(["oracle_of_delphi", {"name": "memorizer", "bogus": 1}, 7]),
    "language": st.sampled_from(
        ["primes", 5, "{15000}", "{99999999999999999999}", "{٣}", "{4294967296}"]
    ),
    "languages": st.sampled_from(["evens", [5]]),
    "strategy": st.sampled_from(
        ["padded:1.5", "zigzag", {"name": "canonical", "window": 2}, "shuffled-window:65537"]
    ),
    "strategies": st.sampled_from([None, ["zigzag"]]),
    "seed": st.sampled_from([-1, 2**64, True, "0", 1.5]),
    "seeds": st.sampled_from([0, [-1], ["0"]]),
    "horizon": st.sampled_from([0, True, 2.5, "4", 10**20]),
    "trials": st.sampled_from([0, False, 3.0]),
    "format": st.just("yaml"),
    "horizn": st.just(3),
    "Seeds": st.just([1]),
}


@st.composite
def _configs(draw):
    """A valid config with small work bounds, and up to two faults in it."""
    config = draw(
        st.fixed_dictionaries(
            {"horizon": st.integers(1, 8), "trials": st.integers(1, 20)},
            optional=_VALID_VALUES,
        )
    )
    for key in draw(st.lists(st.sampled_from(sorted(_FAULTS)), max_size=2, unique=True)):
        config[key] = draw(_FAULTS[key])
    return config


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["trace", "identify", "theorems", "list"]),
    config=_configs(),
)
def test_fuzzed_configs_run_or_exit_two_deterministically(tmp_path_factory, command, config):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(path)]
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("limitlab: ")
    assert _run_in_process(argv) == (code, out, err)
