"""Record the output digest of every job of the default seed's job lists.

    python3 bench/record_digests.py

Writes ``bench/digests.json``. Runs every job once and refuses to record a
job whose output fails its checks. Re-record only when a change to the
program is meant to change its output.
"""

import json
import sys

import workloads


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = []
        for job in workloads.make_jobs(name, workloads.DEFAULT_SEED):
            result = workloads.execute(job)
            reason = workloads.check(job, result)
            if reason is not None:
                print(f"{workloads.describe(job)}: {reason}", file=sys.stderr)
                return 1
            digests[name].append(workloads.digest(workloads.render(job, result)))
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
