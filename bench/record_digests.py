"""Record the sha256 of every output file for every seed of the input pool.

    python3 bench/record_digests.py

Runs each workload once per seed in ``workloads.SEED_POOL`` (two jobs at a
time) and writes ``bench/digests.json``.  The digests pin the output bytes of
the commit they were recorded at; re-record them only when a change alters
the numerics on purpose and says so.  Jobs that fail their exit-code or
semantic check are listed; their digests are still recorded, so the gate
keeps reporting that failure rather than a digest mismatch.  Nothing is
written when a job leaves an output file missing.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import OUT, child_env, spawn  # noqa: E402
from workloads import DIGESTS, SEED_POOL, WORKLOADS  # noqa: E402

JOB_LIMIT_S = 600.0


def record(workload, seed: int, env: dict) -> tuple[dict, list[str]]:
    job_dir = OUT / "record" / f"{workload.name}-{seed}"
    workload.prepare(job_dir, seed)
    try:
        _, code, _ = spawn([sys.executable, "-m", "lionsderiv", *workload.argv(seed)],
                           job_dir, env, perf_counter() + JOB_LIMIT_S)
        digests = workload.digests_of(job_dir)
        # Check everything but the digests, which are what is being recorded.
        problems = workload.verify_job(job_dir, code, seed, {workload.name: {str(seed): digests}})
        return digests, problems
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)


def main() -> int:
    env = child_env()
    jobs = [(w, s) for w in WORKLOADS.values() for s in range(SEED_POOL)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: record(*job, env), jobs))
    table: dict[str, dict[str, dict]] = {}
    for (w, s), (digests, problems) in zip(jobs, results):
        table.setdefault(w.name, {})[str(s)] = digests
        if problems:
            print(f"{w.name} seed {s}: {'; '.join(problems)}", file=sys.stderr)
    crashed = [(w.name, s) for (w, s), (digests, _) in zip(jobs, results)
               if set(digests) != set(w.outputs)]
    if crashed:
        print(f"jobs without all their outputs: {crashed}; {DIGESTS.name} left unchanged",
              file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    failing = sum(bool(problems) for _, problems in results)
    print(f"wrote {DIGESTS} ({len(jobs)} jobs, {failing} failing their checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
