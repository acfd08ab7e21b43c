"""Command-line front end: estimate, verify, study.

Configuration comes from an optional JSON file (``--config``) with
individual flags taking precedence, so a run is reproducible from a single
recorded artifact while staying overridable interactively.  Identical
config + input + seed produce bitwise-identical output files.

Exit codes: 0 success, 1 malformed input, 2 invalid configuration,
3 refinement did not converge, 4 a verification check failed.  Outputs are
still written on 3 and 4 -- diagnosing a failure requires the data.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .estimator import (
    MODES,
    EstimatorError,
    StepSchedule,
    lions_derivative_grid,
    refine_until_converged,
)
from .functionals import (
    Functional,
    FunctionalConfigError,
    NoClosedFormError,
    functional_from_config,
)
from .measure import (
    MeasureError,
    QuantizationLevel,
    SampleFormatError,
    read_sample_file,
)
from .verify import (
    check_against_oracle,
    check_law_invariance,
    check_mass_linearity,
    check_structure,
    convergence_study,
)

__all__ = ["main", "console_main", "RunConfig", "ConfigError"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_VERIFICATION = 4

DEFAULT_TOL = 1e-6
DEFAULT_ESTIMATE_LEVELS = (2, 24)
DEFAULT_STUDY_LEVELS = (2, 8)
DEFAULT_VERIFY_LEVEL = 4

_CONFIG_KEYS = {
    "command", "functional", "input", "out", "level", "levels",
    "tol", "eps0", "ratio", "count", "mode", "seed",
}


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    functional: Functional
    functional_spec: Mapping[str, Any]
    input_path: str
    output_path: str | None
    level: int | None
    levels: tuple[int, int] | None
    tol: float
    seed: int
    schedule: Mapping[str, Any]  # StepSchedule fields; None takes the default


def _fmt(x: float) -> str:
    # repr gives the shortest decimal that parses back to the same float.
    return repr(float(x))


def _parse_levels(raw: Any) -> tuple[int, int]:
    if isinstance(raw, str):
        parts = raw.split("..")
        if len(parts) != 2:
            raise ConfigError(f"levels must look like `a..b`, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"levels must be integers, got {raw!r}") from None
    elif isinstance(raw, (list, tuple)) and len(raw) == 2:
        a, b = raw
    else:
        raise ConfigError(f"levels must be `a..b` or [a, b], got {raw!r}")
    a, b = QuantizationLevel(a).n, QuantizationLevel(b).n
    if b < a:
        raise ConfigError(f"levels must satisfy a <= b, got {a}..{b}")
    return a, b


def _require_number(value: Any, key: str) -> float | None:
    """None, or a JSON number as a float; its range is checked elsewhere."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key} must be finite, got {value!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig."""
    file_cfg: dict[str, Any] = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "command" in file_cfg and file_cfg["command"] != args.command:
            raise ConfigError(
                f"config file says command {file_cfg['command']!r} but "
                f"{args.command!r} was invoked"
            )

    def pick(flag_value, key):
        return flag_value if flag_value is not None else file_cfg.get(key)

    functional_spec = pick(None, "functional")
    if args.functional is not None:
        try:
            functional_spec = json.loads(args.functional)
        except ValueError as exc:
            raise ConfigError(f"--functional is not valid JSON: {exc}")
    if functional_spec is None:
        raise ConfigError("a functional spec is required (--functional or config)")

    input_path = pick(args.input, "input")
    if input_path is None:
        raise ConfigError("an input sample file is required (--input or config)")

    output_path = pick(args.out, "out")

    level = pick(args.level, "level")
    levels = pick(args.levels, "levels")
    if args.command == "estimate" and level is not None and levels is not None:
        raise ConfigError("estimate takes either `level` or `levels`, not both")
    if args.command == "study" and level is not None:
        raise ConfigError("study takes `levels`, not `level`")
    if args.command == "verify" and levels is not None:
        raise ConfigError("verify takes `level`, not `levels`")

    tol = _require_number(pick(args.tol, "tol"), "tol")
    tol = DEFAULT_TOL if tol is None else tol
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")

    seed_raw = pick(args.seed, "seed")
    seed = 0 if seed_raw is None else seed_raw
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not (0 <= seed < 2 ** 64):
        raise ConfigError(f"seed must fit in an unsigned 64-bit word, got {seed}")

    # The functional, level and schedule rules live in the library; a
    # violation there is a config error here.
    try:
        cfg = RunConfig(
            command=args.command,
            functional=functional_from_config(functional_spec),
            functional_spec=functional_spec,
            input_path=str(input_path),
            output_path=None if output_path is None else str(output_path),
            level=None if level is None else QuantizationLevel(level).n,
            levels=None if levels is None else _parse_levels(levels),
            tol=tol,
            seed=seed,
            schedule={"eps0": _require_number(pick(args.eps0, "eps0"), "eps0"),
                      "ratio": _require_number(file_cfg.get("ratio"), "ratio"),
                      "count": file_cfg.get("count"), "mode": pick(args.mode, "mode")},
        )
        StepSchedule.for_level(0, **cfg.schedule)  # valid at 0 is valid at every level
        return cfg
    except (FunctionalConfigError, EstimatorError, MeasureError) as exc:
        raise ConfigError(str(exc)) from None


def _report_path(csv_path: str) -> str:
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".report.json"


def _finite_or_null(obj: Any) -> Any:
    """Reports are strict JSON: non-finite numbers are written as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n")


def cmd_estimate(cfg: RunConfig) -> int:
    f = cfg.functional
    sample = read_sample_file(cfg.input_path)
    if cfg.level is not None:
        n_min = n_max = cfg.level
    else:
        n_min, n_max = cfg.levels if cfg.levels is not None else DEFAULT_ESTIMATE_LEVELS
    est, report = refine_until_converged(
        f, sample, tol=cfg.tol, n_min=n_min, n_max=n_max, **cfg.schedule,
    )
    out_csv = cfg.output_path or "estimate.csv"
    _write_text(out_csv, "x,g_hat,err_est\n" + "".join(
        f"{_fmt(x)},{_fmt(g)},{_fmt(e)}\n"
        for x, g, e in zip(est.grid_atoms, est.g_values, est.error_estimates)))
    payload = {
        "command": "estimate",
        "functional": dict(cfg.functional_spec),
        "input": cfg.input_path,
        "seed": cfg.seed,
        "tol": cfg.tol,
        "schedule_policy": cfg.schedule,
        "levels": list(report.levels),
        "distances": list(report.distances),
        "converged": report.converged,
        "final_level": est.level.n,
        "n_atoms": est.n_atoms,
        "failed_atoms": list(est.failed_atoms),
        "grid_csv": out_csv,
    }
    _write_json(_report_path(out_csv), payload)
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def cmd_verify(cfg: RunConfig) -> int:
    f = cfg.functional
    sample = read_sample_file(cfg.input_path)
    level = cfg.level if cfg.level is not None else DEFAULT_VERIFY_LEVEL
    est = lions_derivative_grid(f, sample, level, StepSchedule.for_level(level, **cfg.schedule))

    heaviest = int(np.argmax(est.law.weights))
    reports = [
        check_structure(f, sample, est, seed=cfg.seed),
        check_law_invariance(f, sample, est, seed=(cfg.seed + 1) % 2 ** 64),
        check_mass_linearity(f, est, heaviest),
    ]
    try:
        reports.append(check_against_oracle(f, est))
        skipped = []
    except NoClosedFormError as exc:
        skipped = [{"name": "oracle_comparison", "status": "skipped", "reason": str(exc)}]
    checks = [r.to_dict() for r in reports] + skipped
    all_passed = all(r.status == "pass" for r in reports)

    payload = {
        "command": "verify",
        "functional": dict(cfg.functional_spec),
        "input": cfg.input_path,
        "level": level,
        "seed": cfg.seed,
        "schedule_policy": cfg.schedule,
        "all_passed": all_passed,
        "checks": checks,
    }
    _write_json(cfg.output_path or "verify_report.json", payload)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def cmd_study(cfg: RunConfig) -> int:
    f = cfg.functional
    sample = read_sample_file(cfg.input_path)
    a, b = cfg.levels if cfg.levels is not None else DEFAULT_STUDY_LEVELS
    rows = convergence_study(f, sample, range(a, b + 1), **cfg.schedule)
    out_csv = cfg.output_path or "study.csv"
    lines = ["n,w2_quant,succ_diff,oracle_err\n"]
    for row in rows:
        succ = "" if row.successive_difference is None else _fmt(row.successive_difference)
        oerr = "" if row.oracle_error is None else _fmt(row.oracle_error)
        lines.append(f"{row.level},{_fmt(row.w2_quantization)},{succ},{oerr}\n")
    _write_text(out_csv, "".join(lines))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lionsderiv",
        description="Derivatives of measure functionals by dyadic quantization "
                    "and Dirac-shift finite differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("estimate", "refine the derivative grid until converged; write CSV + JSON"),
        ("verify", "run the property checks for a functional; write JSON report"),
        ("study", "tabulate per-level convergence metrics; write CSV"),
    ]
    for name, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--input", help="sample CSV (`value` or `value,weight` lines)")
        sp.add_argument("--functional", help='functional spec JSON, e.g. {"name":"variance"}')
        sp.add_argument("--level", type=int, help="single quantization level")
        sp.add_argument("--levels", help="level range `a..b`")
        sp.add_argument("--tol", type=float, help="convergence tolerance (estimate)")
        sp.add_argument("--eps0", type=float, help="initial perturbation step override")
        sp.add_argument("--mode", choices=list(MODES), help="difference mode")
        sp.add_argument("--seed", type=int, help="seed for verification randomness")
        sp.add_argument("--out", help="output path (CSV or JSON per command)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if cfg.command == "estimate":
            return cmd_estimate(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_study(cfg)
    except ConfigError as exc:  # also an output that cannot be written
        print(f"lionsderiv: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SampleFormatError, MeasureError) as exc:
        print(f"lionsderiv: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
