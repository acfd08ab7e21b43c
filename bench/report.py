"""Print every benchmark metric, per workload, and optionally record a baseline.

    python3 bench/report.py --seed 0 --seconds 40 --out bench/BENCH_0.json

Runs ``run.py`` once untraced and once traced on each workload, exactly as
the benchmark is run, and prints each end-to-end and per-layer metric by
name with its unit and one column per workload.  It then prints the layers
with the largest self-time share in the spans each traced run wrote.  With
``--out`` it writes the same numbers, the machine they were taken on and
the run settings as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END, trace_file  # noqa: E402
from tracer import LAYER_METRICS, Span, self_shares  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"
TOP_LAYERS = 5


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"report: {workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _shares(workload: str) -> dict[str, float]:
    with open(trace_file(workload), encoding="utf-8") as fh:
        return self_shares([Span(**json.loads(line)) for line in fh])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", help="write the numbers to this JSON file")
    args = parser.parse_args(argv)

    names = list(WORKLOADS)
    results = {}
    for w in names:
        results[w] = {"end_to_end": _run(w, args.seed, args.seconds, 0),
                      "per_layer": _run(w, args.seed, args.seconds, 1),
                      "self_share": _shares(w)}

    rows = [("metric", "unit", *names)]
    for kind, metrics in (("end_to_end", END_TO_END),
                          ("per_layer", [(m, u) for m, u, _ in LAYER_METRICS])):
        for metric, unit in metrics:
            rows.append((metric, unit, *(_fmt(results[w][kind]["metrics"][metric]["value"])
                                         for w in names)))
    for kind in ("end_to_end", "per_layer"):
        rows.append((f"{kind}: attempted/failed", "count",
                     *(f"{results[w][kind]['attempted']}/{results[w][kind]['failed']}"
                       for w in names)))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)))
    print()
    for w in names:
        top = list(results[w]["self_share"].items())[:TOP_LAYERS]
        print(f"{w}: largest self-time shares: "
              + ", ".join(f"{layer} {share:.1%}" for layer, share in top))

    if args.out:
        payload = {
            "settings": {"seed": args.seed, "seconds": args.seconds},
            "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                        "python": platform.python_version()},
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if all(results[w][k]["correct"] for w in names
                    for k in ("end_to_end", "per_layer")) else 1


if __name__ == "__main__":
    sys.exit(main())
