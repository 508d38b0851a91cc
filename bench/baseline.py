"""Reproduce the informal baseline table of ROADMAP.md, row by row.

    python3 bench/baseline.py [--out PATH]

A one-off command, not part of the gated runs: it takes a few minutes. Each
row is timed once untraced, then run again under the tracer for its counters.
Writes one JSON document (default ``.bench_out/BENCH_baseline.json``) whose
rows carry the workload, its size parameter and horizon, seconds, counters,
Python version and git sha, and prints the table.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import workloads  # first: puts the checkout's src/ on the import path
import spans

import limitlab as ll

ROOT = workloads.ROOT


def _family():
    u = ll.decimal_universe()
    return ll.LanguageFamily(u, (ll.evens_language(u), ll.odds_language(u)), ll.registry_oracle())


def _evens_fate(fam):
    return ll.make_fate(fam.specials[0], ll.Canonical())


def _converges(horizon):
    fam = _family()
    return lambda: ll.converges_at(ll.memorizer(fam), _evens_fate(fam), horizon)


def _trace(horizon):
    fam = _family()
    return lambda: ll.transformation_trace(ll.memorizer(fam), _evens_fate(fam), horizon)


def _bc(horizon):
    fam = _family()
    return lambda: ll.bc_converges_at(
        ll.confidence_annotating(fam, ll.memorizer(fam)), _evens_fate(fam), horizon
    )


def _decode(rank):
    u = ll.decimal_universe()
    return lambda: ll.decode_finite_set(1 << rank, u)


def _fate_at(count):
    fate = _evens_fate(_family())
    return lambda: [fate.at(i) for i in range(count)]


# (workload, size parameter, size, build a zero-argument call of the row)
ROWS = (
    ("run_theorem_suite", "trials", 10_000, lambda n: lambda: ll.run_theorem_suite(n)),
    ("converges_at(memorizer, evens)", "horizon", 500, _converges),
    ("converges_at(memorizer, evens)", "horizon", 1000, _converges),
    ("transformation_trace(memorizer, evens)", "horizon", 1000, _trace),
    ("bc_converges_at(confidence_annotating(memorizer), evens)", "horizon", 100, _bc),
    ("bc_converges_at(confidence_annotating(memorizer), evens)", "horizon", 200, _bc),
    ("bc_converges_at(confidence_annotating(memorizer), evens)", "horizon", 400, _bc),
    ("decode_finite_set(1 << r)", "rank", 100_000, _decode),
    ("decode_finite_set(1 << r)", "rank", 200_000, _decode),
    ("decode_finite_set(1 << r)", "rank", 400_000, _decode),
    ("Fate.at(i) for all i < n", "indices", 2000, _fate_at),
)


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def measure_row(workload: str, parameter: str, size: int, build) -> dict:
    call = build(size)
    start = time.perf_counter()
    call()
    seconds = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Built again so that scientists are made while the tracer is installed.
        build(size)()
    finally:
        tracer.uninstall()
    counters = {k: v for k, v in tracer.metrics().items() if spans.PER_LAYER[k] != "s" and v}
    return {
        "workload": workload,
        "parameter": parameter,
        "size": size,
        "horizon": size if parameter == "horizon" else None,
        "seconds": seconds,
        "counters": counters,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "BENCH_baseline.json")
    args = parser.parse_args(argv)
    rows = []
    for workload, parameter, size, build in ROWS:
        row = measure_row(workload, parameter, size, build)
        rows.append(row)
        print(f"{workload:<58} {parameter}={size:<7} {row['seconds']:9.3f} s", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
