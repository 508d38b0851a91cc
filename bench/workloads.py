"""Seeded job lists, job execution and output checks for the four workloads.

A workload is a fixed, seeded list of jobs in pairs: a job at a size N (the
horizon, or the trial count for ``witness``) followed by the same job at 2N.
The program sees only the generated CLI arguments or library parameters,
never the workload seed.

Input ranges, and why:

* finite languages use ranks below ``MAX_FINITE_RANK``. Set codes then stay
  far below Python's 4300-digit int-to-str limit, which a language such as
  ``{15000}`` exceeds (a known crash of ``limitlab trace``, left unfixed and
  outside this benchmark's range on purpose);
* padded densities stay at or below 1/2 and shuffle windows at or below 8, so
  every member of a grid language appears well before the grid horizon and
  the memorizer identifies all 144 cells;
* seeds are 32-bit, inside the CLI's 64-bit range.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import limitlab  # noqa: E402
import limitlab.cli  # noqa: E402

if not Path(limitlab.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"limitlab was imported from {limitlab.__file__}, not from {ROOT / 'src'}")

WORKLOADS = ("witness", "trace", "grid", "bc")
DEFAULT_SEED = 0
# Size N of the small half of each workload; the large half runs at 2N.
BASE_SIZE = {"witness": 5000, "trace": 128, "grid": 32, "bc": 48}
WORK_UNIT = {
    "witness": "cases_per_s",
    "trace": "steps_per_s",
    "grid": "cells_per_s",
    "bc": "steps_per_s",
}
MAX_FINITE_RANK = 64
DIGESTS = Path(__file__).resolve().parent / "digests.json"

_SEED_RANGE = 2**32
_DENSITIES = ("0.125", "0.25", "0.375", "0.5")
_WINDOWS = ("2", "4", "6", "8")
_INFINITE = ("evens", "odds", "all")
# Witness-record lines that differ between processes: the last-novel
# counterexample search shuffles a list built from a frozenset, whose order
# follows PYTHONHASHSEED. A program defect, reported here, not fixed; the
# digests leave these two lines out and check everything else.
_HASH_DEPENDENT = ("counterexample", "found_after_trials")


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work; ``spec`` is CLI argv, or bc parameters."""

    workload: str
    size: int
    large: bool
    spec: tuple
    language: str


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"limitlab-bench:{workload}:{seed}")


def _finite_literal(rng: random.Random) -> str:
    ranks = sorted(rng.sample(range(MAX_FINITE_RANK), rng.randint(1, 6)))
    return "{" + ",".join(map(str, ranks)) + "}"


def _balanced(rng: random.Random, values: tuple, count: int) -> list:
    """``count`` values that use each of ``values`` equally often, shuffled."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _strategies(rng: random.Random, names) -> list[str]:
    """One strategy spec per name, parameters balanced across each name's jobs."""
    params = {
        "padded": _balanced(rng, _DENSITIES, names.count("padded")),
        "shuffled-window": _balanced(rng, _WINDOWS, names.count("shuffled-window")),
        "repetition-heavy": _balanced(rng, _DENSITIES, names.count("repetition-heavy")),
    }
    return [name if name == "canonical" else f"{name}:{params[name].pop()}" for name in names]


def _pairs(workload: str, n: int, specs, suffix) -> list[Job]:
    """An (N, 2N) pair of jobs per (spec, language); a pair differs only in size."""
    return [
        Job(workload, size, size != n, spec + suffix(size), language)
        for spec, language in specs
        for size in (n, 2 * n)
    ]


def _witness_jobs(rng: random.Random, n: int) -> list[Job]:
    specs = [(("theorems", "--seed", str(rng.randrange(_SEED_RANGE))), "") for _ in range(16)]
    return _pairs("witness", n, specs, lambda size: ("--trials", str(size)))


def _trace_jobs(rng: random.Random, n: int) -> list[Job]:
    combos = list(
        product(
            ("memorizer", "last_novel", "set_driven:last_novel"),
            ("evens", "odds", "all", "finite"),
            ("canonical", "padded", "shuffled-window", "repetition-heavy"),
        )
    )
    rng.shuffle(combos)
    strategies = _strategies(rng, [strategy for _, _, strategy in combos])
    specs = []
    for (scientist, lang, _), strategy in zip(combos, strategies):
        language = lang if lang in _INFINITE else _finite_literal(rng)
        spec = (
            "trace", "--format", "jsonl",
            "--scientist", scientist,
            "--language", language,
            "--strategy", strategy,
            "--seed", str(rng.randrange(_SEED_RANGE)),
        )
        specs.append((spec, language))
    return _pairs("trace", n, specs, lambda size: ("--horizon", str(size)))


def _grid_jobs(rng: random.Random, n: int) -> list[Job]:
    specs = []
    for density, window in zip(_balanced(rng, _DENSITIES, 8), _balanced(rng, _WINDOWS, 8)):
        ranks = sorted(rng.sample(range(32), 4))
        languages = [
            "{" + ",".join(str(r) for i, r in enumerate(ranks) if mask >> i & 1) + "}"
            for mask in range(16)
        ]
        seeds = [str(rng.randrange(_SEED_RANGE)) for _ in range(3)]
        spec = (
            "identify", "--format", "csv", "--scientist", "memorizer",
            "--languages", ";".join(languages),
            "--strategies", f"canonical;padded:{density};shuffled-window:{window}",
            "--seeds", ";".join(seeds),
        )
        specs.append((spec, ""))
    return _pairs("grid", n, specs, lambda size: ("--horizon", str(size)))


def _bc_jobs(rng: random.Random, n: int) -> list[Job]:
    combos = list(product((2, 3, 5), ("evens", "odds", "finite"), ("canonical", "padded:0.25")))
    rng.shuffle(combos)
    specs = []
    for confidence, lang, strategy in combos:
        language = lang if lang in _INFINITE else _finite_literal(rng)
        specs.append(((confidence, language, strategy, rng.randrange(_SEED_RANGE)), language))
    return _pairs("bc", n, specs, lambda size: (size,))


_BUILDERS = {"witness": _witness_jobs, "trace": _trace_jobs, "grid": _grid_jobs, "bc": _bc_jobs}


def make_jobs(workload: str, seed: int, base_size: int | None = None) -> list[Job]:
    """The workload's job list for a seed; ``base_size`` overrides N (tests)."""
    n = BASE_SIZE[workload] if base_size is None else base_size
    return _BUILDERS[workload](_rng(workload, seed), n)


def _bc_world(job: Job):
    confidence, language, strategy, seed, _ = job.spec
    family = limitlab.family_from_config({"specials": ["evens", "odds"]})
    scientist = limitlab.confidence_annotating(family, limitlab.memorizer(family), confidence)
    lang = limitlab.resolve_language(language, family.universe)
    fate = limitlab.make_fate(lang, limitlab.cli.parse_strategy(strategy), seed)
    return scientist, fate


def build_world(job: Job) -> None:
    """Everything a job builds before its first step, as the CLI would."""
    if job.workload == "bc":
        _bc_world(job)
        return
    args = limitlab.cli.build_parser().parse_args(list(job.spec))
    if job.workload == "witness":
        limitlab.cli.load_config(None, {"trials": args.trials, "seed": args.seed})
        return
    config = limitlab.cli.load_config(None, {"scientist": args.scientist, "horizon": args.horizon})
    family, _ = limitlab.cli.build_world(config)
    if job.workload == "trace":
        lang = limitlab.resolve_language(args.language, family.universe)
        limitlab.make_fate(lang, limitlab.cli.parse_strategy(args.strategy), args.seed)
    else:
        for spec in args.languages.split(";"):
            limitlab.resolve_language(spec, family.universe)
        for spec in args.strategies.split(";"):
            limitlab.cli.parse_strategy(spec)


def execute(job: Job):
    """Run one job against the program and return its raw result.

    CLI jobs go through ``limitlab.cli.main`` looked up at call time, with
    stdout and stderr captured; ``bc`` calls the library directly.
    """
    if job.workload == "bc":
        scientist, fate = _bc_world(job)
        return limitlab.bc_converges_at(scientist, fate, job.size)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = limitlab.cli.main(list(job.spec))
    return code, out.getvalue(), err.getvalue()


def render(job: Job, result) -> str:
    """The job's output as text: what the digests and the checks read."""
    if job.workload == "bc":
        trace = ",".join(map(str, result.report.trace))
        return f"{result.label()}\nsettle={result.semantic_settle_step}\ntrace={trace}\n"
    code, out, _ = result
    if job.workload == "witness":
        out = "".join(
            line for line in out.splitlines(keepends=True)
            if line.strip().partition(" = ")[0] not in _HASH_DEPENDENT
        )
    return f"exit={code}\n{out}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def work_done(job: Job, result) -> int:
    """Units of work in a job: witness cases, prefix steps, or grid cells."""
    if job.workload == "witness":
        cases = 0
        for line in result[1].splitlines():
            key, sep, value = line.strip().partition(" = ")
            if sep and key in ("exhaustive_cases", "swept_cases", "sampled_cases"):
                cases += int(value)
        return cases
    if job.workload == "grid":
        return len(result[1].splitlines()) - 1
    return job.size + 1


def _check_witness(job: Job, result) -> str | None:
    code, out, _ = result
    lines = out.splitlines()
    passes = sum(1 for line in lines if line.startswith("PASS "))
    if code != 0 or passes != 4 or lines[-1:] != ["4/4 checks passed"]:
        return f"witness suite: exit {code}, {passes}/4 PASS"
    return None


def _check_trace(job: Job, result) -> str | None:
    code, out, _ = result
    if code != 0:
        return f"exit {code}"
    records = [json.loads(line) for line in out.splitlines()]
    if len(records) != job.size + 1:
        return f"{len(records)} lines for horizon {job.size}"
    seen = set()
    for n, r in enumerate(records):
        if r["step"] != n:
            return f"line {n} has step {r['step']}"
        datum = r["datum"]
        expected = None if datum == "#" else int(datum not in seen)
        if r["novel"] != expected:
            return f"step {n}: novel={r['novel']} for datum {datum}"
        seen.add(datum)
        if n < job.size and r["hyp_changed"] != (records[n + 1]["hyp_index"] != r["hyp_index"]):
            return f"step {n}: hyp_changed disagrees with hyp_index"
    return None


def _check_grid(job: Job, result) -> str | None:
    code, out, _ = result
    rows = list(csv.DictReader(io.StringIO(out)))
    identified = sum(1 for row in rows if row["verdict"] == "Identified")
    if code != 0 or len(rows) != 144 or identified != 144:
        return f"exit {code}, {identified}/{len(rows)} of 144 cells Identified"
    return None


def _check_bc(job: Job, result) -> str | None:
    if job.language in _INFINITE and result.label() != "NotIdentified(wrong-language)":
        return f"{job.language}: {result.label()}"
    return None


_CHECKS = {"witness": _check_witness, "trace": _check_trace, "grid": _check_grid, "bc": _check_bc}


def check(job: Job, result, expected_digest: str | None = None) -> str | None:
    """None if the output is right, else a one-line reason."""
    try:
        failure = _CHECKS[job.workload](job, result)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return f"unreadable output: {err!r}"
    if failure is None and expected_digest is not None:
        if digest(render(job, result)) != expected_digest:
            return "output differs from the recorded digest"
    return failure


def recorded_digests(workload: str) -> list[str]:
    """Output digests of the default seed's job list at the default size."""
    return json.loads(DIGESTS.read_text())[workload]


def describe(job: Job) -> str:
    if job.workload == "bc":
        confidence, language, strategy, seed, size = job.spec
        return (
            f"bc_converges_at(confidence_annotating(memorizer,{confidence})) "
            f"language={language} strategy={strategy} seed={seed} horizon={size}"
        )
    return "limitlab " + " ".join(job.spec)
