"""Executable property checks for the derivative construction.

Each check returns a :class:`VerificationReport` -- a self-contained record
(inputs, seeds, per-case values) whose ``status`` is pass exactly when
``discrepancy <= tolerance``.  Failures are reported states, never
exceptions.  Checks with a single natural metric report it directly;
``check_mass_linearity`` has two heterogeneous criteria and reports the
maximum criterion/tolerance ratio against a tolerance of 1.

Tolerances are tied to the scheme's own error model: structural comparisons
use max(1e-6, 4x the reported extrapolation error estimates), oracle
comparisons use functional-specific truncation bounds.  Each check takes the
:class:`DerivativeEstimate` it tests and reads the law and schedule it was
computed at.

``check_structure`` and ``check_law_invariance`` run their independent cases
on every usable CPU (see ``_map_tasks``); their reports are the same bytes on
any number of CPUs.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .estimator import (
    DerivativeEstimate,
    Direction,
    ProbeFailureError,
    _by_value,
    _check_index,
    _level_grids,
    _on_cells,
    directional_derivative,
    g_tilde_values,
    lions_derivative_grid,
    partial_mass_perturbation,
)
from .functionals import Functional, PotentialSpec
from .measure import (
    EmpiricalSample,
    _exact_sum,
    _weighted_l2,
    dyadic_quantize,
    law_of,
    wasserstein2,
)

__all__ = [
    "VerificationReport",
    "StudyRow",
    "check_structure",
    "check_law_invariance",
    "check_mass_linearity",
    "check_against_oracle",
    "convergence_study",
]

_TINY = 1e-300


@dataclass(frozen=True)
class VerificationReport:
    """One check's outcome; pass iff discrepancy <= tolerance."""

    name: str
    status: str
    discrepancy: float
    tolerance: float
    cases: tuple[dict, ...]
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "discrepancy": self.discrepancy,
            "tolerance": self.tolerance,
            "details": self.details,
            "cases": list(self.cases),
        }


def _finish(name: str, discrepancy: float, tolerance: float,
            cases: Sequence[dict], details: dict) -> VerificationReport:
    # NaN fails; so does an infinite tolerance, which bounds nothing.
    passed = discrepancy <= tolerance < math.inf
    return VerificationReport(
        name=name,
        status="pass" if passed else "fail",
        discrepancy=float(discrepancy),
        tolerance=float(tolerance),
        cases=tuple(cases),
        details=details,
    )


def _map_tasks(task: Callable[[int], Sequence[float]], n: int,
               width: int) -> np.ndarray:
    """``task(i)``, ``width`` floats, for i = 0..n-1 (n >= 1), as an
    (n, width) array.

    The tasks run in k = min(n, usable CPUs) contiguous shares, in order
    within each; a platform without ``os.fork`` or ``os.sched_getaffinity``
    has one usable CPU.  This process runs share 0; each other share runs in a
    forked child, which sends each result as raw float64 bytes through a
    pipe, so the values are bit for bit those of a plain loop.  For a share
    whose child fails, cannot be forked or sends fewer results, this process
    runs the missing tasks itself, lowest first: a task that raises raises
    here, and since every earlier task succeeded, it is the error the plain
    loop would raise.  Every child is reaped before this returns or raises.
    """
    usable = (len(os.sched_getaffinity(0))
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    k = min(n, usable)
    shares = [range(n * s // k, n * (s + 1) // k) for s in range(k)]
    out = np.empty((n, width))
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            try:
                children.append(_fork_share(task, share))
            except OSError:  # no process or pipe to spare: run the rest here
                break
        for s, share in enumerate(shares):
            done = 0
            if 0 < s <= len(children):  # share s runs in children[s - 1]
                with open(children[s - 1][1], "rb", closefd=False) as pipe:
                    data = pipe.read()
                done = min(len(data) // out[0].nbytes, len(share))
                out[share.start:share.start + done] = np.frombuffer(
                    data, count=done * width).reshape(done, width)
            for i in share[done:]:
                out[i] = task(i)
    except BaseException:
        from signal import SIGKILL  # imported only here: a plain run never needs it

        for pid, _ in children:
            try:
                os.kill(pid, SIGKILL)
            except ProcessLookupError:  # SIGCHLD is ignored: the system reaped it
                pass
        raise
    finally:
        for pid, fd in children:
            os.close(fd)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # SIGCHLD is ignored: the system reaped it
                pass
    return out


def _fork_share(task: Callable[[int], Sequence[float]],
                share: range) -> tuple[int, int]:
    """Fork a child that writes ``task(i)`` for each i of ``share`` to a
    pipe and exits; (its pid, the read end)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            for i in share:
                row = memoryview(np.asarray(task(i), dtype=float).tobytes())
                while row:
                    row = row[os.write(write_end, row):]
            code = 0
        finally:
            # Never return into the caller's stack; os._exit flushes no
            # buffer the parent also holds.
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def check_structure(f: Functional, sample: EmpiricalSample,
                    est: DerivativeEstimate, directions: int = 32,
                    seed: int = 0) -> VerificationReport:
    """Directional derivative of the lift vs the weighted pairing with g-tilde.

    Both sides are evaluated at the sample quantized to the estimate's level
    (a no-op for grid-supported samples): at finite resolution that is the
    identity the estimate actually claims, and the comparison then isolates
    scheme error from quantization error.  The directional derivatives use
    the estimate's schedule.  Directions are seeded standard normal
    displacements, one fresh draw per case.  A failed probe reads as NaN,
    so the check fails.
    """
    directions = int(directions)
    if directions < 1:
        raise ValueError("need at least one direction")
    qs = dyadic_quantize(sample, est.level)
    gvals = g_tilde_values(est, qs.values)
    evals = _on_cells(est, est.error_estimates, qs.values)
    weights = qs.weights
    g_norm = _weighted_l2(weights, gvals)

    rng = np.random.default_rng(seed)
    etas = [rng.standard_normal(qs.size) for _ in range(directions)]

    def directional(idx: int) -> tuple[float]:
        try:
            return (directional_derivative(f, qs, Direction(etas[idx]), est.schedule),)
        except ProbeFailureError:
            return (math.nan,)

    lhs_values = _map_tasks(directional, directions, 1)[:, 0].tolist()
    cases = []
    rels = []
    err_bounds = []
    for idx, (eta, lhs) in enumerate(zip(etas, lhs_values)):
        with np.errstate(over="ignore", invalid="ignore"):
            pairing = weights * gvals * eta
            spread = weights * np.abs(eta) * evals
        rhs = _exact_sum(pairing)
        eta_norm = _weighted_l2(weights, eta)
        scale = g_norm * eta_norm  # left out when infinite: every rel would read 0
        denom = float(np.max([abs(lhs), abs(rhs), scale if scale < math.inf else 0.0, _TINY]))
        rel = abs(lhs - rhs) / denom
        err_bound = _exact_sum(spread) / denom
        rels.append(rel)
        err_bounds.append(err_bound)
        cases.append({
            "direction": idx,
            "lhs_directional": float(lhs),
            "rhs_pairing": float(rhs),
            "relative_discrepancy": float(rel),
        })
    worst = float(np.max(rels))  # NaN where any relative discrepancy is
    tolerance = float(np.maximum(1e-6, 4.0 * float(np.max(err_bounds))))
    details = {
        "level": est.level.n,
        "directions": directions,
        "seed": int(seed),
        "direction_generator": "standard_normal, sequential draws",
        "schedule": asdict(est.schedule),
    }
    return _finish("structure_identity", worst, tolerance, cases, details)


def _halve_weight(sample: EmpiricalSample, k: int) -> EmpiricalSample:
    # Exact split: w/2 + w/2 == w bit for bit, so the regrouped law -- and
    # everything downstream -- must be bitwise unchanged.
    values = np.append(sample.values, sample.values[k])
    weights = np.array(sample.weights)
    half = weights[k] * 0.5
    weights[k] = half
    weights = np.append(weights, half)
    return EmpiricalSample(values, weights)


def _estimate_gap(a: DerivativeEstimate, b: DerivativeEstimate) -> float:
    if a.level != b.level or not np.array_equal(a.grid_atoms, b.grid_atoms):
        return math.inf
    if a.failed_atoms != b.failed_atoms:
        return math.inf
    if (np.array_equal(a.g_values, b.g_values, equal_nan=True)
            and np.array_equal(a.error_estimates, b.error_estimates, equal_nan=True)):
        return 0.0
    ok = ~np.isnan(a.g_values)  # the atoms both estimates computed
    gaps = np.abs(np.concatenate((a.g_values[ok] - b.g_values[ok],
                                  a.error_estimates[ok] - b.error_estimates[ok])))
    return float(np.max(gaps, initial=0.0))


def check_law_invariance(f: Functional, sample: EmpiricalSample,
                         est: DerivativeEstimate, transforms: int = 20,
                         seed: int = 0) -> VerificationReport:
    """Derivative grids under law-preserving sample transforms, bit for bit.

    ``est`` is the sample's grid.  Seeded random permutations and exact
    weight halvings at random indices, differentiated at ``est.level`` under
    ``est.schedule``, must give grids bitwise equal to it, because
    evaluation is measure-level.
    The zero tolerance is by design: the check guards the representation
    against sample-order-dependent logic creeping in, and its triviality
    for the current design is recorded in the report.
    """
    transforms = int(transforms)
    if transforms < 1:
        raise ValueError("need at least one transform")
    rng = np.random.default_rng(seed)
    plans = [(rng.permutation(sample.size), int(rng.integers(sample.size)))
             for _ in range(transforms)]

    def gaps(idx: int) -> tuple[float, float]:
        perm, split_at = plans[idx]
        permuted = EmpiricalSample(sample.values[perm], sample.weights[perm])
        split = _halve_weight(sample, split_at)
        return tuple(_estimate_gap(est, lions_derivative_grid(f, s, est.level, est.schedule))
                     for s in (permuted, split))

    results = _map_tasks(gaps, transforms, 2)
    cases = []
    for idx, ((_, split_at), (gap_p, gap_s)) in enumerate(zip(plans, results.tolist())):
        cases.append({"transform": idx, "kind": "permutation",
                      "max_abs_difference": gap_p})
        cases.append({"transform": idx, "kind": "weight_split",
                      "split_index": split_at,
                      "max_abs_difference": gap_s})
    worst = float(np.max(results))  # NaN where any gap is
    details = {
        "level": est.level.n,
        "transforms_per_kind": transforms,
        "seed": int(seed),
        "note": "bitwise equality is a designed consequence of measure-level "
                "evaluation with exactly rounded weight sums",
    }
    return _finish("law_invariance", worst, 0.0, cases, details)


def check_mass_linearity(f: Functional, est: DerivativeEstimate, i: int,
                         fractions: Iterable[float] = (0.25, 0.5, 0.75, 1.0)
                         ) -> VerificationReport:
    """Moved-mass derivative is linear through the origin in the moved mass.

    Probes atom i of ``est.law`` under ``est.schedule``, fits value =
    slope * (q * p_i) over the fractions and reports (a) the maximum
    relative fit residual against 1e-6 and (b) the fitted slope against
    the estimate's atom derivative within max(1e-6, 4x combined error
    estimates).  Discrepancy is the worst criterion ratio; tolerance 1.  A
    failed probe reads as NaN, and so does an atom the estimate flags, so
    the check fails.  Raises :class:`EstimatorError` where ``i`` is not an
    atom index of ``est.law``.
    """
    mu = est.law
    i = _check_index(mu, i)
    fractions = tuple(float(q) for q in fractions)
    if not fractions:
        raise ValueError("need at least one mass fraction")
    p = float(mu.weights[i])
    masses = [q * p for q in fractions]
    g_hat, g_err = float(est.g_values[i]), float(est.error_estimates[i])
    try:
        values = [partial_mass_perturbation(f, mu, i, q, est.schedule) for q in fractions]
    except ProbeFailureError:
        values = [math.nan] * len(fractions)
    squares = _exact_sum(np.multiply(masses, masses))  # 0 where the masses underflow
    slope = _exact_sum(np.multiply(values, masses)) / squares if squares else math.nan
    scale = float(np.max(np.abs(values), initial=_TINY))
    residual = float(np.max([abs(v - slope * m) for v, m in zip(values, masses)])) / scale

    slope_gap = abs(slope - g_hat)
    slope_tol = float(np.maximum(1e-6 * np.maximum(1.0, abs(g_hat)), 4.0 * g_err))

    residual_ratio = residual / 1e-6
    slope_ratio = slope_gap / slope_tol
    discrepancy = float(np.maximum(residual_ratio, slope_ratio))  # NaN where either is
    cases = [
        {"fraction": q, "moved_mass": m, "value": float(v),
         "fitted": float(slope * m), "residual": float(v - slope * m)}
        for q, m, v in zip(fractions, masses, values)
    ]
    details = {
        "atom_index": i,
        "atom": float(mu.atoms[i]),
        "atom_weight": p,
        "fitted_slope": float(slope),
        "atom_derivative": float(g_hat),
        "atom_derivative_error": float(g_err),
        "fit_residual_relative": float(residual),
        "fit_residual_tolerance": 1e-6,
        "slope_gap": float(slope_gap),
        "slope_tolerance": float(slope_tol),
        "schedule": asdict(est.schedule),
    }
    return _finish("mass_linearity", discrepancy, 1.0, cases, details)


def _oracle_tolerance(f: Functional, est: DerivativeEstimate) -> tuple[float, str]:
    """Functional-specific truncation bound for the oracle comparison of ``est``."""
    coeffs = None
    if f.name == "linear":
        coeffs = f.params.get("phi")
    elif f.name == "interaction":
        coeffs = f.params.get("w")
    if f.name in ("variance", "mean_square") or (
            coeffs is not None and len(coeffs) - 1 <= 2):
        # Central or one-sided quotients of quadratics are exact in eps;
        # extrapolation leaves roundoff only.
        return 1e-8, "scheme-exact quadratic family"
    if f.name == "linear" and est.schedule.mode == "central" and coeffs is not None:
        d3 = PotentialSpec(tuple(coeffs))
        for _ in range(3):
            d3 = d3.derivative() if d3 is not None else None
        # A third derivative whose coefficients overflow bounds nothing.
        if d3 is not None:
            lo = float(est.grid_atoms.min())
            hi = float(est.grid_atoms.max())
            steps = est.schedule.steps(at=float(np.max([abs(lo), abs(hi), 1.0])))
            bound = (1.5 * steps[-1] ** 2
                     * d3.max_abs_on(lo - steps[0], hi + steps[0]) / 6.0)
            return float(np.maximum(bound, 1e-12)), "central Taylor remainder bound, 50% slack"
    finite = est.error_estimates[np.isfinite(est.error_estimates)]
    fallback = float(np.maximum(1e-6, 4.0 * float(finite.max(initial=0.0))))
    return fallback, "generic: max(1e-6, 4x reported error estimates)"


def check_against_oracle(f: Functional, est: DerivativeEstimate) -> VerificationReport:
    """Estimated grid vs the closed form evaluated at the estimate's law.

    Evaluating the closed form at the quantized law ``est.law`` isolates the
    finite-difference error from the quantization error; ``est.schedule``
    sets the truncation bound.  Reports the sup gap over grid atoms (the
    headline discrepancy) and the L2(law) gap.  Raises
    :class:`NoClosedFormError` when the functional has none.
    """
    oracle = f.analytic_g(est.law, est.grid_atoms)
    gaps = np.abs(est.g_values - oracle)
    sup = float(np.max(gaps)) if gaps.size else 0.0
    l2 = _weighted_l2(est.law.weights, gaps)
    tolerance, rule = _oracle_tolerance(f, est)
    cases = [
        {"atom": float(x), "estimated": float(g), "oracle": float(o),
         "error_estimate": float(e)}
        for x, g, o, e in zip(est.grid_atoms, est.g_values, oracle,
                              est.error_estimates)
    ]
    details = {
        "level": est.level.n,
        "sup_error": sup,
        "l2_law_error": l2,
        "tolerance_rule": rule,
        "schedule": asdict(est.schedule),
    }
    return _finish("oracle_comparison", sup, tolerance, cases, details)


@dataclass(frozen=True)
class StudyRow:
    """One refinement level of a convergence study."""

    level: int
    w2_quantization: float
    successive_difference: float | None
    oracle_error: float | None


def convergence_study(f: Functional, sample: EmpiricalSample,
                      levels: Iterable[int], *,
                      eps0: float | None = None, ratio: float | None = None,
                      count: int | None = None, mode: str | None = None,
                      ) -> tuple[StudyRow, ...]:
    """Per-level quantization distance, successive g-tilde differences, and
    (when a closed form exists) the total error against the true law.
    The schedule keywords act as in ``refine_until_converged``.

    The oracle column evaluates the closed form at the *original* law and
    values, so it tracks the full quantization-plus-scheme error whose decay
    the refinement argument promises.
    """
    levels = [int(n) for n in levels]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be nonempty and ascending, got {levels}")
    ordered = _by_value(sample)
    base_law = law_of(ordered)
    oracle_at_values = None
    if f.has_closed_form:
        oracle_at_values = f.analytic_g(base_law, ordered.values)
    schedule = {"eps0": eps0, "ratio": ratio, "count": count, "mode": mode}
    rows: list[StudyRow] = []
    for est, g, succ in _level_grids(f, sample, ordered, levels, schedule):
        n = est.level.n
        w2 = wasserstein2(base_law, est.law)
        oerr = (None if oracle_at_values is None
                else _weighted_l2(ordered.weights, g - oracle_at_values))
        rows.append(StudyRow(level=n, w2_quantization=float(w2),
                             successive_difference=succ, oracle_error=oerr))
    return tuple(rows)
