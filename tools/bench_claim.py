"""Write a claim's evidence: every workload of a parent checkout against this one.

    python3 tools/bench_claim.py WORKLOAD PARENT_DIR OUT_FILE WHAT

WORKLOAD is the workload that carries the claimed gain (``witness``,
``trace``, ``grid`` or ``bc``). PARENT_DIR is a checkout of the parent commit
(``git archive`` or ``git clone``). OUT_FILE is the name of the JSON file
written at the root of this checkout, one per claim (``BENCH_grid_keys.json``,
``BENCH_witness_cases.json``), and WHAT its one-line ``what`` text. Each side
runs its own ``bench/run.py`` in a fresh process:

- alternating untraced pairs of each workload, the claimed one first and the
  parent first in even pairs. The claimed workload carries the gain; the
  other three are checked for regressions;
- alternating untraced ``--workload all`` pairs, for the metrics of every
  workload;
- one traced pair of the claimed workload, for its per-layer counts;
- for a ``grid`` claim only, the tracemalloc peak of one ``identify_class``
  call: of three languages at 3 and at 100 seeds, and of twelve languages of
  sizes 1-12 at 100 seeds;
- for a ``grid`` claim only, the time of ``identify_class`` on evens alone at
  horizons 1000, 2000 and 4000, where every datum is novel (no workload runs
  an infinite language through ``identify_class``), and on a class like a
  ``grid`` job's, 16 finite languages over 4 ranks, at horizons 1000, 4000
  and 100 000 (the workload runs only 32 and 64; the last shows whether the
  call's cost still grows with the horizon); each horizon in alternating
  fresh-process pairs, the parent first in even pairs, as the workloads are.

A metric is "unresolved" on a workload when either side's interquartile
range exceeds the metric's declared bound, relative to that side's median,
unless every run of the change reads better than every run of the parent.
Set ``SEEDS`` and ``ALL_SEEDS`` to seeds not used while building the change.

It takes about 50 minutes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

CHANGE = Path(__file__).resolve().parent.parent
WORKLOADS = ("witness", "trace", "grid", "bc")
PAIRS = 10
SEEDS = range(2001, 2001 + PAIRS)
ALL_SEEDS = range(2011, 2014)
TRACED_SEED = 0
SECONDS = 25
# (languages, seeds) of each tracemalloc call; "three" is evens, odds and {1,5,9}.
PEAKS = (("three", 3), ("three", 100), ("sizes", 100))
# Units of the traced per-layer metrics that repeat exactly from run to run.
COUNT_UNITS = ("count", "bit", "ratio", "B")
PEAK_CALL = """
import sys, tracemalloc
sys.path.insert(0, "src")
from limitlab import (Canonical, LanguageFamily, Padded, ShuffledWindow, decimal_universe,
                      evens_language, identify_class, memorizer, odds_language, registry_oracle,
                      resolve_language)
u = decimal_universe()
evens, odds = evens_language(u), odds_language(u)
family = LanguageFamily(u, (evens, odds), registry_oracle())
if sys.argv[1] == "three":
    languages = [evens, odds, resolve_language("{1,5,9}", u)]
else:  # one finite language of each size 1-12
    languages = [resolve_language("{%s}" % ",".join(map(str, range(k))), u) for k in range(1, 13)]
tracemalloc.start()
identify_class(memorizer(family), languages, [Canonical(), Padded(0.25), ShuffledWindow(4)],
               range(int(sys.argv[2])), 3000)
print(tracemalloc.get_traced_memory()[1])
"""

# The identify_class calls timed in PAIRS alternating pairs, each side the least of
# IDENTIFY_REPEATS calls in a fresh process: evens alone, where every datum is novel, and
# a grid job's class, every subset of four ranks, whose texts repeat data; each at its
# horizons.
IDENTIFY_HORIZONS = {"evens": (1000, 2000, 4000), "finite": (1000, 4000, 100_000)}
IDENTIFY_REPEATS = 5
IDENTIFY_CALL = """
import sys, time
sys.path.insert(0, "src")
from limitlab import (Canonical, LanguageFamily, Padded, ShuffledWindow, decimal_universe,
                      evens_language, identify_class, memorizer, odds_language, registry_oracle,
                      resolve_language)
u = decimal_universe()
evens = evens_language(u)
family = LanguageFamily(u, (evens, odds_language(u)), registry_oracle())
if sys.argv[1] == "evens":
    languages, strategies, seeds = [evens], [Canonical(), Padded(0.25)], [0, 1]
else:  # like a grid job: 16 languages over 4 ranks, 3 strategies, 3 seeds
    ranks = (3, 8, 17, 29)
    languages = [
        resolve_language("{%s}" % ",".join(str(r) for i, r in enumerate(ranks) if m >> i & 1), u)
        for m in range(16)
    ]
    strategies, seeds = [Canonical(), Padded(0.25), ShuffledWindow(4)], [0, 1, 2]
horizon, times = int(sys.argv[2]), []
for _ in range(int(sys.argv[3])):
    start = time.perf_counter()
    identify_class(memorizer(family), languages, strategies, seeds, horizon)
    times.append(time.perf_counter() - start)
print(min(times))
"""


def bench(side: Path, *args: str) -> dict:
    """The last line of one ``bench/run.py`` run: its JSON result."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=side,
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def pair(parent: Path, parent_first: bool, measure: Callable, *args) -> dict:
    """``measure(side, *args)`` on each side, one after the other, in the order given."""
    order = [("parent", parent), ("change", CHANGE)]
    if not parent_first:
        order.reverse()
    return {name: measure(side, *args) for name, side in order}


def src_digest(side: Path) -> str:
    """SHA-256 over the paths and bytes of every file under ``src/limitlab``."""
    h = hashlib.sha256()
    for path in sorted((side / "src" / "limitlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def values(result: dict, units: tuple | None = None) -> dict:
    """A ``bench/run.py`` result's metrics, name to value; only those in ``units``, if given."""
    return {
        name: metric["value"] for name, metric in result["metrics"].items()
        if units is None or metric["unit"] in units
    }


def summary(runs: list, declared: dict) -> dict:
    """Medians, quartiles and pair wins of each end-to-end metric over ``runs``' pairs."""
    out = {}
    for name, (direction, bound) in declared.items():
        sides = {s: [r[s][name] for r in runs] for s in ("parent", "change")}
        medians = {s: statistics.median(v) for s, v in sides.items()}
        quartiles = {s: statistics.quantiles(v, n=4)[::2] for s, v in sides.items()}
        spread = {s: (q[1] - q[0]) / abs(medians[s]) for s, q in quartiles.items()}
        sign = 1 if direction == "higher" else -1
        separated = min(sign * c for c in sides["change"]) > max(sign * p for p in sides["parent"])
        out[name] = {
            "parent_median": medians["parent"],
            "parent_quartiles": quartiles["parent"],
            "change_median": medians["change"],
            "change_quartiles": quartiles["change"],
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(*sides.values())),
            "change_worse_by": sign * (medians["parent"] - medians["change"])
            / abs(medians["parent"]),
            "bound": bound,
            "unresolved": max(spread.values()) > bound and not separated,
        }
    return out


def call(side: Path, script: str, *args) -> str:
    """The stdout of ``script`` run with ``args`` in a fresh process at the root of ``side``."""
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=side,
                          capture_output=True, text=True, check=True)
    return done.stdout


def identify_time(side: Path, languages: str, horizon: int) -> float:
    return float(call(side, IDENTIFY_CALL, languages, horizon, IDENTIFY_REPEATS))


def timed_pairs(parent: Path, languages: str, horizon: int) -> dict:
    """``PAIRS`` alternating timings of one identify call: every run, the medians and the wins."""
    runs = [pair(parent, i % 2 == 0, identify_time, languages, horizon) for i in range(PAIRS)]
    return {
        "parent_median": statistics.median(r["parent"] for r in runs),
        "change_median": statistics.median(r["change"] for r in runs),
        "change_better_pairs": sum(r["change"] < r["parent"] for r in runs),
        "runs": runs,
    }


def main(claimed: str, parent: Path, out_name: str, what: str) -> None:
    declared = json.loads((CHANGE / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}
    workloads = (claimed,) + tuple(w for w in WORKLOADS if w != claimed)
    runs: dict = {}
    failed = 0
    for workload in workloads:
        runs[workload] = []
        for i, seed in enumerate(SEEDS):
            args = ("--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
                    "--trace", "0")
            both = pair(parent, i % 2 == 0, bench, *args)
            failed += sum(r["failed"] for r in both.values())
            runs[workload].append({"seed": seed, **{s: values(r) for s, r in both.items()}})
            print(f"{workload} pair {i + 1}/{PAIRS} done", file=sys.stderr)
    every = {
        seed: pair(parent, i % 2 == 0, bench, "--workload", "all", "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", "0")
        for i, seed in enumerate(ALL_SEEDS)
    }
    traced = pair(parent, True, bench, "--workload", claimed, "--seed", str(TRACED_SEED),
                  "--seconds", "8", "--trace", "1")
    record = {
        "what": what,
        "claimed_workload": claimed,
        "command": "python3 bench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {SECONDS} --trace 0",
        "protocol": f"{PAIRS} pairs per workload on seeds {SEEDS.start}-{SEEDS.stop - 1}, one "
                    "fresh process per run, sides alternating which runs first (parent first in "
                    "even pairs); quartiles are statistics.quantiles(n=4); 'change_worse_by' is "
                    "the change median's shortfall relative to the parent median (negative: "
                    "better); 'unresolved' means a side's interquartile range exceeds the bound "
                    "relative to its median, and not every change run beats every parent run. "
                    f"'no_regression' is {len(ALL_SEEDS)} alternating --workload all pairs "
                    f"on seeds {ALL_SEEDS.start}-{ALL_SEEDS.stop - 1}, 'traced' the per-layer "
                    f"counts of one --workload {claimed} --seed {TRACED_SEED} --seconds 8 "
                    "--trace 1 pair (parent first)"
                    + (". 'tracemalloc_peak_bytes' is the peak of identify_class(memorizer, "
                       "LANGUAGES, [canonical, padded(0.25), shuffled-window(4)], SEEDS, 3000) "
                       "in a fresh process: 'three' is LANGUAGES = [evens, odds, {1,5,9}], "
                       "'sizes' the finite languages {0}, {0,1}, ..., {0,...,11}. "
                       f"'identify_evens_s' is {PAIRS} alternating pairs (parent first in even "
                       f"pairs), each side the least of {IDENTIFY_REPEATS} timed "
                       "identify_class(memorizer, [evens], [canonical, padded(0.25)], [0, 1], "
                       "H) calls in a fresh process; 'change_better_pairs' counts the pairs "
                       "the change ran faster. 'identify_finite_s' is the same for identify_class("
                       "memorizer, the 16 languages over ranks {3,8,17,29}, [canonical, "
                       "padded(0.25), shuffled-window(4)], [0, 1, 2], H), like a grid job"
                       if claimed == "grid" else ""),
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "src_sha256": {"parent": src_digest(parent), "change": src_digest(CHANGE)},
        "summary": {w: summary(runs[w], metrics) for w in workloads},
        "failed_jobs": failed + sum(r["failed"] for both in every.values() for r in both.values()),
        "runs": runs,
        "no_regression": [
            {"seed": seed, **{s: values(r) for s, r in both.items()}}
            for seed, both in every.items()
        ],
        "traced": {s: values(r, COUNT_UNITS) for s, r in traced.items()},
    }
    if claimed == "grid":
        record["tracemalloc_peak_bytes"] = {
            f"{languages}_seeds_0-{seeds - 1}": {
                "parent": int(call(parent, PEAK_CALL, languages, seeds)),
                "change": int(call(CHANGE, PEAK_CALL, languages, seeds)),
            }
            for languages, seeds in PEAKS
        }
        for languages, horizons in IDENTIFY_HORIZONS.items():
            record[f"identify_{languages}_s"] = {
                f"H={horizon}": timed_pairs(parent, languages, horizon) for horizon in horizons
            }
    out = CHANGE / out_name
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] not in WORKLOADS:
        sys.exit(__doc__)
    main(sys.argv[1], Path(sys.argv[2]).resolve(), sys.argv[3], sys.argv[4])
