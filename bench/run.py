"""The limitlab benchmark: seeded workloads in a closed loop, one client.

    python3 bench/run.py --workload {witness,trace,grid,bc,all} --seed N \\
        --seconds S --trace {0,1}

One process, no threads: each job starts only after the previous one
returns, and every job's output is checked. ``--trace 0`` measures the
end-to-end metrics untraced for S seconds, and for at least 50 (N, 2N) job
pairs.
``--trace 1`` alternates untraced and traced passes over the first jobs of the
list for S seconds (at least one pair), reports the per-layer metrics of the
first traced pass and the tracing overhead, and writes that pass's spans under
``.bench_out/``.

The report goes to stdout, one metric per line with its unit, followed by the
failed jobs, if any. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 2 means the
benchmark could not run (for instance, no limitlab sources under ``src/``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

try:
    import workloads  # first: puts the checkout's src/ on the import path
    import spans
    from hostspeed import REFERENCE_MS, reference_ms
except ImportError as err:
    print(f"bench: cannot import limitlab from {ROOT / 'src'}: {err}", file=sys.stderr)
    sys.exit(2)

SETUP_REPEATS = 16
# Enough jobs to leave ten samples beyond p90; a run outlasts --seconds if needed.
MIN_PAIRS = 50
# Jobs per traced pass: a few seconds of untraced work, spans that fit in memory.
TRACED_JOBS = {"witness": 2, "trace": 24, "grid": 4, "bc": 12}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_p90_ms": "ms",
    "job_p50_h_ms": "ms",
    "job_p50_2h_ms": "ms",
    "horizon_exponent": "log2",
    "work_per_s": "1/s",
}


class Tally:
    """Attempted jobs and the failures among them, each with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, jobs, index: int, digests, tracer=None):
        """Run and check job ``index``; return (seconds, work units done)."""
        job = jobs[index]
        self.attempted += 1
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        try:
            result = workloads.execute(job)
        except Exception:  # a crashing job is a failed job; the run goes on
            elapsed = time.perf_counter() - start
            self.failures.append(
                f"job {index}: {workloads.describe(job)}: raised "
                + traceback.format_exc().strip().splitlines()[-1]
            )
            return elapsed, 0
        elapsed = time.perf_counter() - start
        reason = workloads.check(job, result, digests[index] if digests else None)
        if reason is not None:
            self.failures.append(f"job {index}: {workloads.describe(job)}: {reason}")
            return elapsed, 0
        if tracer is not None and job.workload != "bc":
            tracer.counts["cli.stdout_bytes"] += len(result[1].encode())
        return elapsed, workloads.work_done(job, result)


def measure_setup(workload: str, seed: int) -> float:
    """Import plus first-job world build in a fresh process, in scaled seconds.

    The probes are spread round-robin over the CPUs this process may use, and
    each is scaled by the reference loop timed in its own process right after
    its set-up. The result is the median over CPUs of each CPU's median, so
    it does not depend on which CPUs the probes happened to land on.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu: dict[int, list[float]] = {}
    for i in range(SETUP_REPEATS):
        cpu = cpus[i % len(cpus)]
        done = subprocess.run(
            # -S: the timer starts after interpreter start-up anyway, and
            # neither limitlab nor the benchmark needs site-packages.
            [sys.executable, "-S", str(BENCH / "setup_probe.py"), workload, str(seed), str(cpu)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, reference = map(float, done.stdout.split())
        per_cpu.setdefault(cpu, []).append(seconds * REFERENCE_MS / reference)
    return statistics.median(statistics.median(v) for v in per_cpu.values())


def measure(jobs, seconds: float, digests, tally: Tally) -> dict:
    """Closed loop over the job list for ``seconds``; end-to-end metrics.

    Jobs run in (N, 2N) pairs, which in ``trace`` and ``bc`` share their
    scientist, language and strategy. Growth and throughput are medians over
    pairs, so a burst of interference moves one pair, not the result. Each
    pair's times are scaled to host speed by the reference loop timed just
    before and just after it.
    """
    tally.run(jobs, 0, digests)  # warm-up, checked but not timed
    pairs, wall = [], []
    before = reference_ms()
    deadline = time.perf_counter() + seconds
    while len(pairs) < MIN_PAIRS or time.perf_counter() < deadline:
        index = 2 * len(pairs) % len(jobs)
        small, small_work = tally.run(jobs, index, digests)
        large, large_work = tally.run(jobs, index + 1, digests)
        after = reference_ms()
        scale = 2 * REFERENCE_MS / (before + after)
        pairs.append((small * scale, large * scale, small_work + large_work))
        wall.append((small, large, after))
        before = after
    times = [t for small, large, _ in pairs for t in (small, large)]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_p90_ms": p90 * 1e3,
        "job_p50_h_ms": statistics.median(p[0] for p in pairs) * 1e3,
        "job_p50_2h_ms": statistics.median(p[1] for p in pairs) * 1e3,
        "horizon_exponent": statistics.median(math.log2(large / small) for small, large, _ in pairs),
        "work_per_s": statistics.median(work / (small + large) for small, large, work in pairs),
        "_job_p50_ms": statistics.median(times) * 1e3,
        "_wall_p50_h_ms": statistics.median(w[0] for w in wall) * 1e3,
        "_wall_p50_2h_ms": statistics.median(w[1] for w in wall) * 1e3,
        "_reference_ms": statistics.median(w[2] for w in wall),
        "_samples": len(times),
        "_beyond_p90": sum(1 for t in times if t > p90),
    }


def _pass(jobs, digests, tally: Tally, tracer=None) -> float:
    return sum(tally.run(jobs, i, digests, tracer)[0] for i in range(len(jobs)))


def measure_traced(workload: str, jobs, seconds: float, digests, tally: Tally, seed: int) -> dict:
    """Untraced/traced pass pairs over the first jobs; per-layer metrics."""
    subset = jobs[: TRACED_JOBS[workload]]
    tally.run(subset, 0, digests)  # warm-up
    plain, traced, first = [], [], None
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        plain.append(_pass(subset, digests, tally))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(_pass(subset, digests, tally, tracer))
        finally:
            tracer.uninstall()
        if first is None:
            first = tracer
    values = first.metrics()
    values["bench.tracing_overhead_pct"] = 100 * (
        statistics.median(traced) / statistics.median(plain) - 1
    )
    path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    first.write(path)
    values["_spans"] = len(first.spans)
    values["_spans_path"] = str(path.relative_to(ROOT))
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 base_size: int | None = None) -> tuple[dict, list[str]]:
    """One workload's result object and its human-readable report lines."""
    jobs = workloads.make_jobs(workload, seed, base_size)
    use_digests = seed == workloads.DEFAULT_SEED and base_size is None
    digests = workloads.recorded_digests(workload) if use_digests else None
    tally = Tally()
    if trace:
        values = measure_traced(workload, jobs, seconds, digests, tally, seed)
        units = spans.PER_LAYER
    else:
        values = {"setup_s": measure_setup(workload, seed)}
        values.update(measure(jobs, seconds, digests, tally))
        units = END_TO_END
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, _report(workload, seed, trace, jobs, values, tally, units)


def _report(workload, seed, trace, jobs, values, tally, units) -> list[str]:
    sizes = sorted({j.size for j in jobs})
    knob = "trials" if workload == "witness" else "horizon"
    lines = [
        f"== {workload}  seed={seed}  {'traced' if trace else 'untraced'}  "
        f"{knob} N={sizes[0]} 2N={sizes[-1]}  jobs in list={len(jobs)}"
    ]
    for name, unit in units.items():
        lines.append(f"  {name:<42} {values[name]:>16.6f} {unit}")
    if trace:
        lines.append(f"  spans recorded: {values['_spans']} -> {values['_spans_path']}")
    else:
        lines.append(
            f"  {'error_rate':<42} {len(tally.failures) / tally.attempted:>16.6f} "
            f"ratio ({len(tally.failures)}/{tally.attempted} jobs)"
        )
        lines.append(
            f"  {workloads.WORK_UNIT[workload]:<42} {values['work_per_s']:>16.6f} 1/s "
            f"(= work_per_s)"
        )
        lines.append(
            f"  {'job_p50_ms':<42} {values['_job_p50_ms']:>16.6f} ms "
            f"(all jobs; not gated, it falls between the N and 2N halves)"
        )
        lines.append(
            f"  job samples: {values['_samples']}, beyond p90: {values['_beyond_p90']}; "
            f"setup_s from {SETUP_REPEATS} fresh processes"
        )
        lines.append(
            f"  host reference loop {values['_reference_ms']:.3f} ms (median; timings above are "
            f"scaled to {REFERENCE_MS} ms); wall clock: job_p50_h_ms {values['_wall_p50_h_ms']:.3f} ms, "
            f"job_p50_2h_ms {values['_wall_p50_2h_ms']:.3f} ms"
        )
    lines.extend(f"  FAILED {reason}" for reason in tally.failures)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
