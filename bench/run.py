"""Benchmark of the lionsderiv CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload refine-variance --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The load model is a closed loop with one client: each job is a fresh
``python -m lionsderiv`` process, and the next starts only after the
previous one has exited.  Inputs are written from ``--seed`` before timing
starts (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of spawned jobs:

  job_s        median wall time from spawn to exit of one CLI job
  setup_s      median wall time of a fresh interpreter running
               ``import lionsderiv`` (spawn to exit), three spawns per job
  peak_rss_mb  median peak resident memory of the job process, from
               ``os.wait4`` on that child (MiB)

``--trace 1`` runs the same job in this process through
``lionsderiv.cli.main``, alternating an untraced and a traced job, and
reports the per-layer metrics of ``tracer.LAYER_METRICS`` (medians over the
traced jobs).  Spans of the first traced job are written to
``.bench_out/trace-<workload>.jsonl``; the self-time share of each layer is
printed on standard error.

Every job passes through the workload's correctness gate, and a traced job
must also write the same bytes as the untraced one; a job that fails counts
as failed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

# The tracer (and numpy with it) is imported only for traced runs: a spawned
# child's peak RSS from wait4 includes this process's peak at spawn time, so
# the process that spawns jobs has to stay smaller than any job.
from workloads import WORKLOADS, load_digests  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS_PER_JOB = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s; a job past this is killed

END_TO_END = (("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def trace_file(workload: str) -> Path:
    return OUT / f"trace-{workload}.jsonl"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, env: dict, deadline: float) -> tuple[float, int, float]:
    """Run one child to exit: (wall seconds, exit code, peak RSS in MiB).

    ``os.wait4`` reports the resource usage of that child alone.  A child
    still running at ``deadline`` (a ``perf_counter`` value) is killed.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def own_peak_rss_mib() -> float:
    """Peak RSS of this process's memory map, which a spawned child's
    ``ru_maxrss`` starts from."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def check_source_tree() -> None:
    if not (SRC / "lionsderiv" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'lionsderiv'}")


def _is_from_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def run_untraced(workload, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    env = child_env()
    probe = subprocess.run(
        [sys.executable, "-c", "import lionsderiv; print(lionsderiv.__file__)"],
        cwd=work, env=env, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0 or not _is_from_src(probe.stdout.strip()):
        raise BenchError(f"cannot import lionsderiv from {SRC}: {probe.stderr.strip()}")

    job_dir = work / "job"
    workload.prepare(job_dir, seed)
    recorded = load_digests()
    setup, times, peaks, failed = [], [], [], 0
    start = perf_counter()
    while True:
        # Bare-import spawns are spread over the run, not taken in one burst,
        # so their median sees the same machine as the jobs.
        setup += [spawn([sys.executable, "-c", "import lionsderiv"], work, env, deadline)[0]
                  for _ in range(SETUP_SPAWNS_PER_JOB)]
        workload.clear_outputs(job_dir)
        t, code, peak = spawn([sys.executable, "-m", "lionsderiv", *workload.argv(seed)],
                              job_dir, env, deadline)
        problems = workload.verify_job(job_dir, code, seed, recorded)
        if problems:
            failed += 1
            log(f"job {len(times)} failed: {'; '.join(problems)}")
        times.append(t)
        peaks.append(peak)
        if perf_counter() - start + statistics.median(times) > seconds:
            break
    log(f"{len(times)} jobs, job_s {[round(t, 3) for t in times]}")
    if min(peaks) <= own_peak_rss_mib():
        raise BenchError("a job's peak RSS does not exceed this process's own; "
                         "wait4 cannot tell them apart")
    values = {"job_s": statistics.median(times), "setup_s": statistics.median(setup),
              "peak_rss_mb": statistics.median(peaks)}
    return {"attempted": len(times), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END}}


def _call_in(job_dir: Path, main, argv: list[str]) -> tuple[float, int]:
    """Run ``main(argv)`` with ``job_dir`` as working directory."""
    previous = os.getcwd()
    os.chdir(job_dir)
    try:
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        return perf_counter() - t0, code
    finally:
        os.chdir(previous)


def import_package():
    sys.path.insert(0, str(SRC))
    import lionsderiv
    import lionsderiv.cli

    if not _is_from_src(lionsderiv.__file__):
        raise BenchError(f"lionsderiv was imported from {lionsderiv.__file__}, not {SRC}")
    return lionsderiv


def traced_job(package, job_dir: Path, argv: list[str], job: int):
    """One in-process job with every layer traced; all patches undone after.

    Returns (seconds, exit code, tracer holding the spans).
    """
    from tracer import Tracer, snapshot

    before = snapshot(package)
    tracer = Tracer(job)
    with tracer.installed(package):
        main = tracer.wrap("cli.main", package.cli.main)
        elapsed, code = _call_in(job_dir, main, argv)
    if snapshot(package) != before:
        raise BenchError("tracer left patched names behind")
    return elapsed, code, tracer


def run_traced(workload, seed: int, seconds: float, work: Path) -> dict:
    from tracer import LAYER_METRICS, layer_metrics, self_shares, write_jsonl

    package = import_package()
    plain_dir, traced_dir = work / "plain", work / "traced"
    workload.prepare(plain_dir, seed)
    workload.prepare(traced_dir, seed)
    recorded = load_digests()
    argv = workload.argv(seed)
    plain_times, traced_times, per_job = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        for d in (plain_dir, traced_dir):
            workload.clear_outputs(d)
        # Alternate which side runs first, so one-time costs fall on both.
        if len(per_job) % 2:
            t_traced, code_traced, tracer = traced_job(package, traced_dir, argv, len(per_job))
            t_plain, code_plain = _call_in(plain_dir, package.cli.main, argv)
        else:
            t_plain, code_plain = _call_in(plain_dir, package.cli.main, argv)
            t_traced, code_traced, tracer = traced_job(package, traced_dir, argv, len(per_job))
        plain_problems = workload.verify_job(plain_dir, code_plain, seed, recorded)
        traced_problems = workload.verify_job(traced_dir, code_traced, seed, recorded)
        if workload.digests_of(plain_dir) != workload.digests_of(traced_dir):
            traced_problems.append("traced and untraced jobs wrote different bytes")
        attempted += 2
        failed += bool(plain_problems) + bool(traced_problems)
        for kind, problems in (("untraced", plain_problems), ("traced", traced_problems)):
            if problems:
                log(f"{kind} job {len(per_job)} failed: {'; '.join(problems)}")
        metrics = layer_metrics(tracer.spans)
        metrics["cli.output_bytes"] = workload.output_bytes(traced_dir)
        if not per_job:
            write_jsonl(tracer.spans, trace_file(workload.name))
            shares = self_shares(tracer.spans)
            log("self-time share by layer: " + ", ".join(
                f"{name} {share:.1%}" for name, share in list(shares.items())[:6]))
        per_job.append(metrics)
        plain_times.append(t_plain)
        traced_times.append(t_traced)
        del tracer  # free the spans before the next pair is timed
        if perf_counter() - start + t_plain + t_traced > seconds:
            break
    overhead = statistics.median(traced_times) / statistics.median(plain_times)
    log(f"{len(per_job)} pairs, untraced {[round(t, 3) for t in plain_times]}, "
        f"traced {[round(t, 3) for t in traced_times]}")
    out = {}
    for name, unit, _ in LAYER_METRICS:
        value = (overhead if name == "trace.overhead_ratio"
                 else statistics.median(m[name] for m in per_job))
        out[name] = {"value": value, "unit": unit}
    return {"attempted": attempted, "failed": failed, "metrics": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    try:
        check_source_tree()
        work.mkdir(parents=True, exist_ok=True)
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds, work)
        else:
            result = run_untraced(workload, args.seed, args.seconds, work, deadline)
    except BenchError as exc:
        log(str(exc))
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
