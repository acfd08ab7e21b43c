"""Finite-difference construction of the derivative of a measure functional.

The core operation shifts a single atom of a discrete measure by eps,
evaluates the functional, and extrapolates the difference quotient

    [f(mu with atom i at x_i + eps) - f(mu)] / (eps * p_i)

to eps -> 0 (one_sided mode), or the symmetric variant over 2 eps (central
mode, the default: half the work per digit of accuracy; the limit is the
same).  Quotients are computed over a geometric step schedule and combined
by Richardson extrapolation; the reported error estimate is the magnitude
of the final extrapolation increment.

On top of the atom-shift primitive sit: the per-level derivative grid over
a dyadically quantized sample, the piecewise-constant extension g-tilde
(zero on zero-mass cells), level refinement with an L2(law) Cauchy
criterion, the moved-mass variant probing a fraction of an atom's weight,
and the directional derivative of the lifted functional along a per-sample
displacement.

A shifted atom landing exactly on a neighbor merges during
re-canonicalization.  This is exact semantics, not a workaround: the
functional is defined on measures, and the merged and coincident-atom
configurations are the same measure.  Sample-level implementations that
track particles instead of measures get this wrong.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .measure import (
    DiscreteMeasure,
    EmpiricalSample,
    QuantizationLevel,
    _weighted_l2,
    as_level,
    dyadic_quantize,
    law_of,
    make_measure,
)

__all__ = [
    "StepSchedule",
    "SchedulePolicy",
    "Direction",
    "DerivativeEstimate",
    "ConvergenceReport",
    "EstimatorError",
    "ProbeFailureError",
    "atom_shift_quotients",
    "lions_derivative_at_atom",
    "lions_derivative_grid",
    "evaluate_g_tilde",
    "g_tilde_values",
    "refine_until_converged",
    "partial_mass_perturbation",
    "directional_derivative",
]

MODES = ("one_sided", "central")

# Steps are never taken below this relative floor: differencing past it
# trades truncation error for catastrophic cancellation.
STEP_FLOOR = 1e-9


class EstimatorError(ValueError):
    """Invalid estimator inputs."""


class ProbeFailureError(RuntimeError):
    """The functional returned a non-finite value at a probe measure."""


@dataclass(frozen=True)
class StepSchedule:
    """Geometric perturbation steps eps0 * ratio^k, k = 0..count-1.

    ``mode`` selects the difference quotient: ``one_sided`` is the literal
    atom-shift form, ``central`` the symmetric one.  Richardson extrapolation
    eliminates the leading truncation orders (1, 2, 3, ... one-sided;
    2, 4, 6, ... central).
    """

    eps0: float = 0.125
    ratio: float = 0.5
    count: int = 4
    mode: str = "central"

    def __post_init__(self):
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise EstimatorError(f"eps0 must be positive and finite, got {self.eps0!r}")
        if not (0.0 < self.ratio < 1.0):
            raise EstimatorError(f"ratio must lie in (0, 1), got {self.ratio!r}")
        if not isinstance(self.count, (int, np.integer)) or self.count < 2:
            raise EstimatorError(f"count must be an integer >= 2, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))
        if self.mode not in MODES:
            raise EstimatorError(f"mode must be one of {MODES}, got {self.mode!r}")

    @classmethod
    def for_level(cls, level: QuantizationLevel | int, ratio: float = 0.5,
                  count: int = 4, mode: str = "central") -> "StepSchedule":
        """Level-coupled default: eps0 = 2^-n / 8 keeps a shifted atom inside
        its own cell's neighborhood."""
        n = as_level(level).n
        return cls(eps0=2.0 ** -n / 8.0, ratio=ratio, count=count, mode=mode)

    def steps(self, at: float = 0.0) -> tuple[float, ...]:
        """Concrete steps near position ``at``; the whole schedule is raised
        if needed so the smallest step stays above the cancellation floor."""
        floor = STEP_FLOOR * max(1.0, abs(at))
        eps0 = self.eps0
        smallest = eps0 * self.ratio ** (self.count - 1)
        if smallest < floor:
            eps0 = floor / self.ratio ** (self.count - 1)
        return tuple(eps0 * self.ratio ** k for k in range(self.count))


@dataclass(frozen=True)
class SchedulePolicy:
    """Optional overrides applied on top of the level-coupled defaults."""

    eps0: float | None = None
    ratio: float | None = None
    count: int | None = None
    mode: str | None = None

    def for_level(self, level: QuantizationLevel | int) -> StepSchedule:
        overrides = {k: v for k, v in self.to_dict().items() if v is not None}
        return replace(StepSchedule.for_level(level), **overrides)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Direction:
    """Per-sample displacement with finite entries; pairs with a sample of
    the same length."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float) + 0.0
        if arr.ndim != 1 or arr.size == 0:
            raise EstimatorError("direction must be a nonempty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise EstimatorError("direction entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class DerivativeEstimate:
    """Derivative values on the positive-mass atoms of a quantized law.

    Zero-mass grid cells are excluded here; the piecewise-constant extension
    (:func:`evaluate_g_tilde`) returns 0 on them, so the L2(law) statements
    stay meaningful and no quotient ever divides by a zero weight.  Atoms
    whose probes failed, or whose extrapolation is not finite, are listed in
    ``failed_atoms``; their entries are NaN.
    """

    level: QuantizationLevel
    grid_atoms: np.ndarray
    g_values: np.ndarray
    error_estimates: np.ndarray
    failed_atoms: tuple[int, ...] = ()

    def __post_init__(self):
        atoms = np.asarray(self.grid_atoms, dtype=float) + 0.0
        gvals = np.asarray(self.g_values, dtype=float) + 0.0
        errs = np.asarray(self.error_estimates, dtype=float) + 0.0
        for arr in (atoms, gvals, errs):
            arr.setflags(write=False)
        object.__setattr__(self, "grid_atoms", atoms)
        object.__setattr__(self, "g_values", gvals)
        object.__setattr__(self, "error_estimates", errs)
        if not (atoms.size == gvals.size == errs.size):
            raise EstimatorError("grid_atoms, g_values, error_estimates lengths differ")
        if atoms.size > 1 and not np.all(np.diff(atoms) > 0):
            raise EstimatorError("grid_atoms must be strictly increasing")
        scale = 2.0 ** self.level.n
        for a in atoms:
            s = float(a) * scale
            if not (math.isfinite(s) and s == math.floor(s)):
                raise EstimatorError(
                    f"atom {a!r} is not on the level-{self.level.n} dyadic grid"
                )
        ok = np.ones(errs.size, dtype=bool)
        ok[list(self.failed_atoms)] = False
        if np.any(errs[ok] < 0) or np.any(~np.isfinite(errs[ok])):
            raise EstimatorError("error estimates must be finite and nonnegative")

    @property
    def n_atoms(self) -> int:
        return int(self.grid_atoms.size)


@dataclass(frozen=True)
class ConvergenceReport:
    """Levels visited, successive L2(law) distances, and the verdict."""

    levels: tuple[int, ...]
    distances: tuple[float, ...]
    tol: float
    converged: bool


# ---------------------------------------------------------------------------
# Probe measures
# ---------------------------------------------------------------------------

def _check_index(mu: DiscreteMeasure, i: int) -> int:
    i = int(i)
    if not (0 <= i < mu.n_atoms):
        raise EstimatorError(f"atom index {i} out of range for {mu.n_atoms} atoms")
    return i


def _shifted(mu: DiscreteMeasure, i: int, eps: float) -> DiscreteMeasure:
    atoms = np.array(mu.atoms)
    atoms[i] += eps
    return make_measure(atoms, mu.weights)


class _ShiftProbes:
    """f at one-atom shifts of ``mu``, bit for bit as ``f(_shifted(mu, i, step))``.

    Canonical weights depend only on the weights, and a shifted atom that
    stays finite and strictly between its neighbours needs no sorting or
    merging.  Such a probe is therefore the canonical form of ``mu``,
    computed once, with one atom replaced, or the functional's incremental
    ``shift_evaluator`` applied to that form.  Every other shift goes through
    ``make_measure``, which keeps the merge-on-coincidence semantics.
    """

    def __init__(self, f, mu: DiscreteMeasure):
        self.f = f
        self.mu = mu
        canon = make_measure(mu.atoms, mu.weights)
        # Canonicalization drops a weight only if it underflows to zero;
        # atom indices then no longer line up.
        self.canon = canon if canon.n_atoms == mu.n_atoms else None
        self._atoms = canon.atoms.tolist()
        factory = getattr(f, "shift_evaluator", None)
        self.shifted_value = (factory(canon) if factory is not None
                              and self.canon is not None else None)

    def _fast_position(self, i: int, step: float) -> float | None:
        """The shifted atom's position when it stays strictly inside its gap."""
        if self.canon is None:
            return None
        atoms = self._atoms
        y = atoms[i] + step + 0.0
        above_left = i == 0 or atoms[i - 1] < y
        below_right = i + 1 == len(atoms) or y < atoms[i + 1]
        return y if math.isfinite(y) and above_left and below_right else None

    def measure(self, i: int, step: float) -> DiscreteMeasure:
        y = self._fast_position(i, step)
        if y is None:
            return _shifted(self.mu, i, step)
        atoms = np.array(self.canon.atoms)
        atoms[i] = y
        return DiscreteMeasure(atoms, self.canon.weights)

    def value(self, i: int, step: float) -> float:
        value = None
        if self.shifted_value is not None:
            y = self._fast_position(i, step)
            if y is not None:
                value = self.shifted_value(i, y)
        if value is None:
            value = self.f(self.measure(i, step))
        return _finite(value, f"atom {i} shifted by {step!r}")


def _mass_moved(mu: DiscreteMeasure, i: int, frac: float, eps: float) -> DiscreteMeasure:
    if frac == 1.0:
        return _shifted(mu, i, eps)
    p = float(mu.weights[i])
    moved = frac * p
    atoms = np.append(mu.atoms, mu.atoms[i] + eps)
    weights = np.array(mu.weights)
    weights[i] = p - moved
    weights = np.append(weights, moved)
    return make_measure(atoms, weights)


def _finite(value: float, context: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ProbeFailureError(f"functional returned {value!r} at {context}")
    return value


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

def _richardson(quotients, ratio: float, order0: int, order_step: int) -> tuple[float, float]:
    """Triangular extrapolation; returns (value, |last increment|)."""
    col = [float(q) for q in quotients]
    m = len(col) - 1
    r = 1.0 / ratio
    before_last = col[m]
    for stage in range(1, m + 1):
        factor = r ** (order0 + (stage - 1) * order_step)
        before_last = col[m]
        for k in range(m, stage - 1, -1):
            col[k] = (factor * col[k] - col[k - 1]) / (factor - 1.0)
    return col[m], abs(col[m] - before_last)


def _extrapolate(quotients, schedule: StepSchedule) -> tuple[float, float]:
    if schedule.mode == "central":
        return _richardson(quotients, schedule.ratio, 2, 2)
    return _richardson(quotients, schedule.ratio, 1, 1)


def _quotients(value_at: Callable[[float], float], steps, mode: str,
               base: Callable[[], float], scale: float = 1.0) -> np.ndarray:
    """[v(eps) - base] / (eps * scale) one-sided, [v(eps) - v(-eps)] /
    (2 eps * scale) central, at each step; +eps is probed before -eps.

    ``base`` is called once, before any probe, and only in one-sided mode.
    """
    quots = np.empty(len(steps))
    if mode == "one_sided":
        b = base()
        for k, eps in enumerate(steps):
            quots[k] = (value_at(eps) - b) / (eps * scale)
    else:
        for k, eps in enumerate(steps):
            quots[k] = (value_at(eps) - value_at(-eps)) / (2.0 * eps * scale)
    return quots


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def atom_shift_quotients(f, mu: DiscreteMeasure, i: int,
                         schedule: StepSchedule | None = None,
                         base_value: float | None = None,
                         *, _probes: _ShiftProbes | None = None) -> np.ndarray:
    """Raw difference quotients at each schedule step, before extrapolation.

    In one_sided mode this is the literal Dirac-shift quotient
    [f(mu shifted) - f(mu)] / (eps * p_i) per step -- the fidelity surface
    the tests pin against hand-derived expansions.  ``_probes`` lets a
    caller probing many atoms of one measure share its probe state.
    """
    schedule = schedule if schedule is not None else StepSchedule()
    i = _check_index(mu, i)
    probes = _probes if _probes is not None else _ShiftProbes(f, mu)

    def base() -> float:
        if base_value is None:
            return _finite(f(mu), "the unperturbed measure")
        return float(base_value)

    return _quotients(lambda eps: probes.value(i, eps),
                      schedule.steps(at=float(mu.atoms[i])), schedule.mode, base,
                      scale=float(mu.weights[i]))


def lions_derivative_at_atom(f, mu: DiscreteMeasure, i: int,
                             schedule: StepSchedule | None = None,
                             base_value: float | None = None,
                             *, _probes: _ShiftProbes | None = None
                             ) -> tuple[float, float]:
    """Derivative of the functional at atom i of ``mu``.

    Extrapolates the atom-shift quotients over the step schedule.

    Parameters
    ----------
    f : callable
        Functional, evaluated on canonical measures.
    mu : DiscreteMeasure
    i : int
        Atom index; the atom necessarily has positive mass.
    schedule : StepSchedule, optional
        Defaults to ``StepSchedule()`` (central, eps0 = 1/8, 4 steps).
    base_value : float, optional
        Precomputed f(mu), reused across atoms in one_sided mode.

    Returns
    -------
    (value, error_estimate)
        Extrapolated derivative and the magnitude of the final
        extrapolation increment.

    Raises
    ------
    ProbeFailureError
        When the functional returns a non-finite value at any probe.
    """
    schedule = schedule if schedule is not None else StepSchedule()
    quots = atom_shift_quotients(f, mu, i, schedule, base_value=base_value,
                                 _probes=_probes)
    return _extrapolate(quots, schedule)


def lions_derivative_grid(f, sample: EmpiricalSample,
                          level: QuantizationLevel | int,
                          schedule: StepSchedule | None = None) -> DerivativeEstimate:
    """Quantize the sample, form its law, differentiate at every grid atom.

    Per-atom computations are independent and order-free.  An atom whose
    probe returns a non-finite value, or whose extrapolated value or error
    is not finite, is flagged (NaN entries plus ``failed_atoms``), never a
    global abort.  An exception raised by the functional itself propagates.
    """
    level = as_level(level)
    schedule = schedule if schedule is not None else StepSchedule.for_level(level)
    mu = law_of(dyadic_quantize(sample, level))
    g = np.full(mu.n_atoms, math.nan)
    err = np.full(mu.n_atoms, math.nan)
    failed: list[int] = []
    base = None
    if schedule.mode == "one_sided":
        try:
            base = _finite(f(mu), "the quantized law")
        except ProbeFailureError:
            # the shared base probe failed: every atom is flagged
            return DerivativeEstimate(
                level=level, grid_atoms=mu.atoms, g_values=g,
                error_estimates=err, failed_atoms=tuple(range(mu.n_atoms)),
            )
    probes = _ShiftProbes(f, mu)
    for i in range(mu.n_atoms):
        try:
            value, error = lions_derivative_at_atom(f, mu, i, schedule, base_value=base,
                                                    _probes=probes)
        except ProbeFailureError:
            value = error = math.nan
        if math.isfinite(value) and math.isfinite(error):
            g[i], err[i] = value, error
        else:
            failed.append(i)
    return DerivativeEstimate(
        level=level,
        grid_atoms=mu.atoms,
        g_values=g,
        error_estimates=err,
        failed_atoms=tuple(failed),
    )


def _cell_index(level: QuantizationLevel, atoms: np.ndarray, xs) -> np.ndarray:
    """Index into ``atoms`` of each point's half-open level-n dyadic cell,
    -1 where that cell carries no atom (also where x * 2^n is not finite:
    far beyond any finite grid)."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = xs.ravel() * 2.0 ** level.n
    cells = np.floor(scaled) * 2.0 ** -level.n
    j = np.searchsorted(atoms, cells)
    hit = np.isfinite(scaled) & (j < atoms.size)
    hit[hit] = atoms[j[hit]] == cells[hit]
    return np.where(hit, j, -1).reshape(xs.shape)


def _on_cells(est: DerivativeEstimate, per_atom: np.ndarray, xs) -> np.ndarray:
    """``per_atom`` value of each point's cell, 0 on cells without mass."""
    idx = _cell_index(est.level, est.grid_atoms, xs)
    out = np.zeros(idx.shape)
    hit = idx >= 0
    out[hit] = per_atom[idx[hit]]
    return out


def g_tilde_values(est: DerivativeEstimate, xs) -> np.ndarray:
    """Piecewise-constant extension evaluated at an array of points."""
    return _on_cells(est, est.g_values, xs)


def evaluate_g_tilde(est: DerivativeEstimate, x: float) -> float:
    """g-tilde at a point: the estimate on the point's half-open dyadic cell,
    zero on cells that carry no mass."""
    return float(g_tilde_values(est, np.array([float(x)]))[0])


def _level_grids(f, sample: EmpiricalSample, levels, policy: SchedulePolicy):
    """Per level: the derivative grid, g-tilde at the sample's values, and
    the L2(law) distance to the previous level's g-tilde (None at the first
    level).  Each grid is computed only when the next item is requested."""
    prev = None
    for n in levels:
        est = lions_derivative_grid(f, sample, n, policy.for_level(n))
        g = g_tilde_values(est, sample.values)
        yield est, g, None if prev is None else _weighted_l2(sample.weights, prev - g)
        prev = g


def refine_until_converged(f, sample: EmpiricalSample, tol: float,
                           n_min: int = 2, n_max: int = 24,
                           schedule_policy: SchedulePolicy | None = None,
                           ) -> tuple[DerivativeEstimate, ConvergenceReport]:
    """Refine the quantization level until successive estimates are Cauchy.

    Computes derivative grids at levels n_min, n_min+1, ... and declares
    convergence when the L2(law) distance between consecutive extensions,
    taken under the original sample's weights at the original values, falls
    below ``tol``.  Hitting ``n_max`` first yields the last estimate with a
    non-converged report -- a reported state, not an exception: convergence
    is only guaranteed under hypotheses no finite computation can verify.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise EstimatorError(f"tol must be positive, got {tol!r}")
    n_min, n_max = int(n_min), int(n_max)
    if n_min < 0 or n_min > n_max:
        raise EstimatorError(f"need 0 <= n_min <= n_max, got {n_min}..{n_max}")
    policy = schedule_policy if schedule_policy is not None else SchedulePolicy()
    levels: list[int] = []
    distances: list[float] = []
    converged = False
    for est, _, d in _level_grids(f, sample, range(n_min, n_max + 1), policy):
        levels.append(est.level.n)
        if d is not None:
            distances.append(d)
            converged = d < tol
            if converged:
                break
    return est, ConvergenceReport(
        levels=tuple(levels), distances=tuple(distances), tol=tol, converged=converged,
    )


def partial_mass_perturbation(f, mu: DiscreteMeasure, i: int, q: float,
                              schedule: StepSchedule | None = None) -> float:
    """Extrapolated limit of [f(mu with mass q*p_i moved to x_i + eps) - f(mu)] / eps.

    Probes the derivative mass on a fraction of an atom: the limit equals
    (q * p_i) * g(x_i), linear in the moved mass; at q = 1 it coincides with
    p_i times the atom derivative.  Central mode moves the mass to x_i - eps
    for the second evaluation.
    """
    schedule = schedule if schedule is not None else StepSchedule()
    i = _check_index(mu, i)
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise EstimatorError(f"mass fraction must lie in (0, 1], got {q!r}")

    def value_at(eps: float) -> float:
        return _finite(f(_mass_moved(mu, i, q, eps)),
                       f"mass {q!r} of atom {i} moved by {eps!r}")

    quots = _quotients(value_at, schedule.steps(at=float(mu.atoms[i])), schedule.mode,
                       lambda: _finite(f(mu), "the unperturbed measure"))
    value, _ = _extrapolate(quots, schedule)
    return value


def directional_derivative(f, sample: EmpiricalSample, eta: Direction,
                           schedule: StepSchedule | None = None) -> float:
    """Extrapolated limit of [F(sample + eps * eta) - F(sample)] / eps,
    where F is the lift f(law of .)."""
    schedule = schedule if schedule is not None else StepSchedule()
    if eta.values.size != sample.size:
        raise EstimatorError(
            f"direction length {eta.values.size} != sample length {sample.size}"
        )
    at = float(np.max(np.abs(sample.values))) if sample.size else 0.0

    def value_at(eps_signed: float) -> float:
        moved = EmpiricalSample(sample.values + eps_signed * eta.values,
                                sample.weights)
        return _finite(f(law_of(moved)), f"sample displaced by {eps_signed!r} * eta")

    quots = _quotients(value_at, schedule.steps(at=at), schedule.mode,
                       lambda: _finite(f(law_of(sample)), "the unperturbed sample's law"))
    value, _ = _extrapolate(quots, schedule)
    return value
