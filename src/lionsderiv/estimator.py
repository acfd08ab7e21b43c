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
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import (
    DiscreteMeasure,
    EmpiricalSample,
    MeasureError,
    QuantizationLevel,
    _dyadic_floor,
    _weighted_l2,
    as_level,
    dyadic_quantize,
    law_of,
    make_measure,
)

__all__ = [
    "StepSchedule",
    "Direction",
    "DerivativeEstimate",
    "ConvergenceReport",
    "EstimatorError",
    "ProbeFailureError",
    "atom_shift_quotients",
    "lions_derivative_at_atom",
    "lions_derivative_grid",
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
    """A probe gave no finite derivative: the functional returned a
    non-finite value at a probe measure, a step is not finite or times the
    atom's weight underflows to 0, or the extrapolation over the steps is
    not finite."""


def _finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, with a finite float."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


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
        if not (_finite_real(self.eps0) and self.eps0 > 0):
            raise EstimatorError(f"eps0 must be positive and finite, got {self.eps0!r}")
        if not (_finite_real(self.ratio) and 0.0 < self.ratio < 1.0):
            raise EstimatorError(f"ratio must lie in (0, 1), got {self.ratio!r}")
        if not isinstance(self.count, (int, np.integer)) or self.count < 2:
            raise EstimatorError(f"count must be an integer >= 2, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))
        # steps() divides by ratio^(count - 1).  Past 2^64 even the ratio
        # nearest 1 underflows, and a float to a larger int power overflows.
        if self.ratio ** min(self.count - 1, 1 << 64) == 0.0:
            raise EstimatorError(
                f"ratio ** (count - 1) must not underflow to 0, got ratio "
                f"{self.ratio!r} and count {self.count}")
        if self.mode not in MODES:
            raise EstimatorError(f"mode must be one of {MODES}, got {self.mode!r}")

    @classmethod
    def for_level(cls, level: QuantizationLevel | int, **fields) -> "StepSchedule":
        """The schedule at a level; a field not in ``fields``, or given as
        None, takes its default.  eps0's, 2^-n / 8, keeps a shifted atom
        inside its own cell's neighborhood."""
        given = {k: v for k, v in fields.items() if v is not None}
        return cls(**{"eps0": 2.0 ** -as_level(level).n / 8.0, **given})

    def steps(self, at=0.0):
        """Concrete steps near each position of ``at``: for an array, an
        array with one row of ``count`` steps per position, for a scalar a
        tuple.  Where the smallest step would fall below the cancellation
        floor, the whole row is raised until it does not."""
        at = np.asarray(at, dtype=float)
        last = self.ratio ** (self.count - 1)
        powers = np.array([self.ratio ** k for k in range(self.count)])
        floor = STEP_FLOOR * np.maximum(1.0, np.abs(at))
        with np.errstate(over="ignore"):
            eps0 = np.where(self.eps0 * last < floor, floor / last, self.eps0)
            steps = eps0[..., None] * powers
        return steps if at.ndim else tuple(steps.tolist())


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
    """Derivative values on the positive-mass atoms ``grid_atoms`` of the
    quantized law ``law``, computed under the step schedule ``schedule``.

    Zero-mass grid cells are excluded here; the piecewise-constant extension
    (:func:`g_tilde_values`) is 0 on them, so the L2(law) statements
    stay meaningful and no quotient ever divides by a zero weight.  Atoms
    whose probes failed, or whose extrapolation is not finite, are listed in
    ``failed_atoms``; both their entries are NaN.
    """

    level: QuantizationLevel
    law: DiscreteMeasure
    schedule: StepSchedule
    g_values: np.ndarray
    error_estimates: np.ndarray

    def __post_init__(self):
        gvals = np.asarray(self.g_values, dtype=float) + 0.0
        errs = np.asarray(self.error_estimates, dtype=float) + 0.0
        for arr in (gvals, errs):
            arr.setflags(write=False)
        object.__setattr__(self, "g_values", gvals)
        object.__setattr__(self, "error_estimates", errs)
        atoms = self.law.atoms
        if not (atoms.size == gvals.size == errs.size):
            raise EstimatorError("law atoms, g_values, error_estimates lengths differ")
        floored, finite = _dyadic_floor(atoms, self.level.n)
        off_grid = atoms[~finite | (floored != atoms)]
        if off_grid.size:
            raise EstimatorError(
                f"atom {off_grid[0].item()!r} is not on the level-{self.level.n} dyadic grid"
            )
        failed = np.isnan(gvals)
        if not np.where(failed, np.isnan(errs), np.isfinite(errs) & (errs >= 0)).all():
            raise EstimatorError("error estimates must be NaN where g_values are, "
                                 "elsewhere finite and nonnegative")

    @property
    def grid_atoms(self) -> np.ndarray:
        return self.law.atoms

    @property
    def n_atoms(self) -> int:
        return self.law.n_atoms

    @property
    def failed_atoms(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(np.isnan(self.g_values)).tolist())


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


def _known_shift_values(f, mu: DiscreteMeasure, indices: np.ndarray,
                        shifts: np.ndarray) -> np.ndarray:
    """f at each one-atom shift of ``mu`` that stays inside its gap, from
    one call of f's ``shift_evaluator``; NaN where it declines and at the
    other probes.  Probe (r, j) moves atom ``indices[r]`` by
    ``shifts[r, j]``; inside its gap its measure, ``_mass_moved(mu, i, 1.0,
    eps)``, is ``mu`` with that atom moved and the same weights.
    """
    values = np.full(shifts.shape, math.nan)
    shift_evaluator = getattr(f, "shift_evaluator", None)
    if shift_evaluator is None:
        return values
    atoms = mu.atoms
    at = np.broadcast_to(indices[:, None], shifts.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        positions = atoms[at] + shifts + 0.0
    left = np.concatenate(([-math.inf], atoms[:-1]))[at]
    right = np.concatenate((atoms[1:], [math.inf]))[at]
    inside = np.isfinite(positions) & (left < positions) & (positions < right)
    if inside.any():
        values[inside] = shift_evaluator(mu, at[inside], positions[inside])
    return values


def _mass_moved(mu: DiscreteMeasure, i: int, frac: float, eps: float) -> DiscreteMeasure:
    """``mu`` with the fraction ``frac`` of atom i's mass moved by ``eps``;
    a probe failure where that leaves the float range.  At ``frac`` 1, atom
    i keeps weight 0, which ``make_measure`` drops: the Dirac shift."""
    with np.errstate(over="ignore"):
        y = mu.atoms[i] + eps
    if not np.isfinite(y):
        raise ProbeFailureError(f"atom {i} moved by {eps!r} leaves the float range")
    p = float(mu.weights[i])
    moved = frac * p
    weights = np.array(mu.weights)
    weights[i] = p - moved
    return make_measure(np.append(mu.atoms, y), np.append(weights, moved))


def _finite(value: float, context: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ProbeFailureError(f"functional returned {value!r} at {context}")
    return value


# ---------------------------------------------------------------------------
# Difference quotients and Richardson extrapolation, a row per atom
# ---------------------------------------------------------------------------

def _signed_steps(steps: np.ndarray, mode: str) -> np.ndarray:
    """Each row's probe shifts in probe order: eps_0, eps_1, ... one-sided,
    eps_0, -eps_0, eps_1, -eps_1, ... central."""
    if mode == "one_sided":
        return steps
    return np.stack((steps, -steps), axis=-1).reshape(len(steps), 2 * steps.shape[1])


def _quotients(shifts: np.ndarray, scale: np.ndarray, mode: str,
               base: Callable[[], float], probe: Callable[[int, int], float],
               where: Callable[[int, int], str], values: np.ndarray | None = None
               ) -> tuple[np.ndarray, list[ProbeFailureError | None]]:
    """Difference quotients, a row per row of ``shifts``, and per row the
    failure that ends it, or None.

    Row r's quotients are [v(eps) - base] / (eps * scale[r]) one-sided and
    [v(eps) - v(-eps)] / (2 eps * scale[r]) central, at each step eps of
    the row; ``shifts`` holds them in probe order (see ``_signed_steps``).
    A row whose steps are not all finite, or whose denominators underflow
    to 0, fails before any probe.  ``base`` raises
    :class:`ProbeFailureError` where f(mu) is not finite; it is called at
    most once, and only in one-sided mode when some row passes those
    checks.  ``values`` holds the probe values known in advance, NaN
    elsewhere.  The others ``probe(r, j)`` evaluates in full, row by row in
    probe order, and a row stops at its first non-finite value, described
    by ``where(r, j)``.
    """
    one_sided = mode == "one_sided"
    steps = shifts if one_sided else shifts[:, 0::2]
    with np.errstate(over="ignore"):
        denominators = (steps if one_sided else 2.0 * steps) * scale[:, None]
    bad_steps = ~np.isfinite(steps).all(axis=1)
    stopped = bad_steps | (denominators == 0.0).any(axis=1)
    failures: list[ProbeFailureError | None] = [None] * len(steps)
    for r in np.flatnonzero(stopped).tolist():
        failures[r] = ProbeFailureError(
            f"the steps {tuple(steps[r].tolist())!r} are not all finite" if bad_steps[r]
            else f"a step times the weight {scale[r].item()!r} underflows to 0")
    live = np.flatnonzero(~stopped)
    values = np.full(shifts.shape, math.nan) if values is None else values
    b = math.nan
    if one_sided and live.size:
        try:
            b = base()
        except ProbeFailureError as exc:
            for r in live.tolist():
                failures[r] = exc
            live = live[:0]
    for r in live[~np.isfinite(values[live]).all(axis=1)].tolist():
        row = values[r]
        try:
            for j in range(row.size):
                if math.isnan(row[j]):
                    row[j] = float(probe(r, j))
                _finite(row[j], where(r, j))
        except ProbeFailureError as exc:
            failures[r] = exc
    # A failed row may hold known values over denominators of 0: its
    # quotients are discarded.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        differences = values - b if one_sided else values[:, 0::2] - values[:, 1::2]
        return differences / denominators, failures


def _richardson(quotients: np.ndarray, schedule: StepSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Triangular extrapolation of each row over the schedule's steps, of
    order 2 central and 1 one-sided; returns (values, |last increments|).
    A factor past the float range reads as inf, so the extrapolation comes
    out NaN."""
    col = np.array(quotients, dtype=float)
    m = col.shape[1] - 1
    r = 1.0 / schedule.ratio
    order = 2 if schedule.mode == "central" else 1
    with np.errstate(over="ignore", invalid="ignore"):
        for stage in range(1, m + 1):
            try:
                factor = r ** (order * stage)
            except OverflowError:
                factor = math.inf
            before_last = col[:, m].copy()
            # Column k takes the old column k - 1, as in a loop from k = m down.
            col[:, stage:] = (factor * col[:, stage:] - col[:, stage - 1:m]) / (factor - 1.0)
        return col[:, m], np.abs(col[:, m] - before_last)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def _shift_quotients(f, mu: DiscreteMeasure, indices: np.ndarray,
                     schedule: StepSchedule
                     ) -> tuple[np.ndarray, list[ProbeFailureError | None]]:
    """The atom-shift quotients of atoms ``indices`` of ``mu``, a row per
    atom, and per atom the failure that ends it, or None (see
    ``_quotients``).  The functional's ``shift_evaluator`` values every
    probe inside its gap in one call; the probes it declines, and the
    others, are evaluated in full, atom by atom."""
    shifts = _signed_steps(schedule.steps(at=mu.atoms[indices]), schedule.mode)
    return _quotients(
        shifts, mu.weights[indices], schedule.mode,
        lambda: _finite(f(mu), "the unperturbed measure"),
        lambda r, j: f(_mass_moved(mu, indices[r], 1.0, shifts[r, j].item())),
        lambda r, j: f"atom {indices[r]} shifted by {shifts[r, j].item()!r}",
        _known_shift_values(f, mu, indices, shifts))


def atom_shift_quotients(f, mu: DiscreteMeasure, i: int,
                         schedule: StepSchedule | None = None) -> np.ndarray:
    """Raw difference quotients at each schedule step, before extrapolation.

    In one_sided mode this is the literal Dirac-shift quotient
    [f(mu shifted) - f(mu)] / (eps * p_i) per step -- the fidelity surface
    the tests pin against hand-derived expansions.
    """
    schedule = schedule if schedule is not None else StepSchedule()
    quots, (failure,) = _shift_quotients(f, mu, np.array([_check_index(mu, i)]), schedule)
    if failure is not None:
        raise failure
    return quots[0]


def lions_derivative_at_atom(f, mu: DiscreteMeasure, i: int,
                             schedule: StepSchedule | None = None) -> tuple[float, float]:
    """Derivative of the functional at atom i of ``mu``.

    Extrapolates the atom-shift quotients over the step schedule, on the
    same path as :func:`lions_derivative_grid` takes for every atom.

    Parameters
    ----------
    f : callable
        Functional, evaluated on canonical measures.
    mu : DiscreteMeasure
    i : int
        Atom index; the atom necessarily has positive mass.
    schedule : StepSchedule, optional
        Defaults to ``StepSchedule()`` (central, eps0 = 1/8, 4 steps).

    Returns
    -------
    (value, error_estimate)
        Extrapolated derivative and the magnitude of the final
        extrapolation increment.

    Raises
    ------
    ProbeFailureError
        When the functional returns a non-finite value at any probe, a step
        is not finite or times the weight underflows to 0, or the
        extrapolated value or its error is not finite.
    """
    schedule = schedule if schedule is not None else StepSchedule()
    quots = atom_shift_quotients(f, mu, i, schedule)
    (value,), (error,) = (a.tolist() for a in _richardson(quots[None], schedule))
    if not (math.isfinite(value) and math.isfinite(error)):
        raise ProbeFailureError(
            f"extrapolation at atom {i} gives {value!r} with error {error!r}")
    return value, error


def lions_derivative_grid(f, sample: EmpiricalSample,
                          level: QuantizationLevel | int,
                          schedule: StepSchedule | None = None) -> DerivativeEstimate:
    """Quantize the sample, form its law, differentiate at every grid atom.

    The estimate keeps the law it probed and the schedule, which defaults
    to ``StepSchedule.for_level(level)``.  All atoms are probed in one pass
    over arrays.  An atom whose probe returns a non-finite value, or whose
    extrapolated value or error is not finite, is flagged (NaN entries,
    listed in ``failed_atoms``), never a global abort; so is an atom whose
    steps the cancellation floor raised until they reach a neighbouring
    atom.  An exception raised by the functional itself propagates.
    """
    level = as_level(level)
    schedule = schedule if schedule is not None else StepSchedule.for_level(level)
    mu = law_of(dyadic_quantize(sample, level))
    indices = np.flatnonzero(~_floor_reaches_neighbour(schedule, mu))
    quots, failures = _shift_quotients(f, mu, indices, schedule)
    value, error = _richardson(quots, schedule)
    ok = np.isfinite(value) & np.isfinite(error) & np.array([e is None for e in failures], bool)
    g = np.full(mu.n_atoms, math.nan)
    err = np.full(mu.n_atoms, math.nan)
    g[indices[ok]] = value[ok]
    err[indices[ok]] = error[ok]
    return DerivativeEstimate(
        level=level,
        law=mu,
        schedule=schedule,
        g_values=g,
        error_estimates=err,
    )


def _floor_reaches_neighbour(schedule: StepSchedule, mu: DiscreteMeasure) -> np.ndarray:
    """Per atom, whether the cancellation floor raised its steps until the
    largest reaches a neighbouring atom on a side the probes shift to (the
    right one-sided, both central): the probes then reorder the atoms and
    differentiate another measure.  Steps the caller chose that reach a
    neighbour merge with it, as meant."""
    eps = schedule.steps(at=mu.atoms)[:, 0]
    with np.errstate(over="ignore"):  # a gap past the float range is inf
        gaps = np.diff(mu.atoms)
    reach = eps >= np.append(gaps, math.inf)
    if schedule.mode == "central":
        reach |= eps >= np.insert(gaps, 0, math.inf)
    return reach & (eps != schedule.eps0)


def _cell_index(level: QuantizationLevel, atoms: np.ndarray, xs) -> np.ndarray:
    """Index into ``atoms`` of each point's half-open level-n dyadic cell,
    -1 where that cell carries no atom (also where x * 2^n is not finite:
    far beyond any finite grid)."""
    xs = np.asarray(xs, dtype=float)
    cells, finite = _dyadic_floor(xs.ravel(), level.n)
    j = np.searchsorted(atoms, cells)
    hit = finite & (j < atoms.size)
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
    """Piecewise-constant extension g-tilde at each point of ``xs``, a scalar
    or an array: the estimate on the point's half-open dyadic cell, zero on
    cells that carry no mass."""
    return _on_cells(est, est.g_values, xs)


def _by_value(sample: EmpiricalSample) -> EmpiricalSample:
    """``sample`` stably sorted by value.  Its law is the same bits, so are
    the grids and L2(law) distances formed from it, and each dyadically
    quantized copy of it is sorted already: forming the law sorts nothing."""
    order = np.argsort(sample.values, kind="stable")
    return EmpiricalSample(sample.values[order], sample.weights[order])


def _level_grids(f, sample: EmpiricalSample, ordered: EmpiricalSample, levels,
                 schedule: dict):
    """Per level: the derivative grid, g-tilde at the values of ``ordered``,
    which is ``_by_value(sample)``, and the L2(law) distance to the previous
    level's g-tilde (None at the first level).  Each grid is computed only
    when the next item is requested.  A value that overflows at a level is
    named as in ``dyadic_quantize(sample, level)``: the first in input order."""
    prev = None
    for n in levels:
        try:
            est = lions_derivative_grid(f, ordered, n, StepSchedule.for_level(n, **schedule))
        except MeasureError:
            dyadic_quantize(sample, n)
            raise
        g = g_tilde_values(est, ordered.values)
        yield est, g, None if prev is None else _weighted_l2(ordered.weights, prev - g)
        prev = g


def refine_until_converged(f, sample: EmpiricalSample, tol: float,
                           n_min: int = 2, n_max: int = 24, *,
                           eps0: float | None = None, ratio: float | None = None,
                           count: int | None = None, mode: str | None = None,
                           ) -> tuple[DerivativeEstimate, ConvergenceReport]:
    """Refine the quantization level until successive estimates are Cauchy.

    Computes derivative grids at levels n_min, n_min+1, ..., level n under
    ``StepSchedule.for_level(n, eps0=eps0, ratio=ratio, count=count,
    mode=mode)``, and declares convergence when the L2(law) distance
    between consecutive extensions, taken under the original sample's
    weights at the original values, falls below ``tol``.  Hitting ``n_max``
    first yields the last estimate with a non-converged report -- a
    reported state, not an exception: convergence is only guaranteed under
    hypotheses no finite computation can verify.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise EstimatorError(f"tol must be positive, got {tol!r}")
    n_min, n_max = int(n_min), int(n_max)
    if n_min < 0 or n_min > n_max:
        raise EstimatorError(f"need 0 <= n_min <= n_max, got {n_min}..{n_max}")
    schedule = {"eps0": eps0, "ratio": ratio, "count": count, "mode": mode}
    levels: list[int] = []
    distances: list[float] = []
    converged = False
    for est, _, d in _level_grids(f, sample, _by_value(sample),
                                  range(n_min, n_max + 1), schedule):
        levels.append(est.level.n)
        if d is not None:
            distances.append(d)
            converged = d < tol
            if converged:
                break
    return est, ConvergenceReport(
        levels=tuple(levels), distances=tuple(distances), tol=tol, converged=converged,
    )


def _extrapolated(f, at: float, schedule: StepSchedule | None, base, measure_at,
                  where: Callable[[float], str]) -> float:
    """The extrapolated limit of the quotients of ``f(measure_at(eps))``
    over the schedule's steps near ``at``, with weight 1; probe failures
    raise."""
    schedule = schedule if schedule is not None else StepSchedule()
    shifts = _signed_steps(schedule.steps(at=np.array([at])), schedule.mode)
    quots, (failure,) = _quotients(
        shifts, np.ones(1), schedule.mode, base,
        lambda r, j: f(measure_at(shifts[r, j].item())),
        lambda r, j: where(shifts[r, j].item()))
    if failure is not None:
        raise failure
    return _richardson(quots, schedule)[0].item()


def partial_mass_perturbation(f, mu: DiscreteMeasure, i: int, q: float,
                              schedule: StepSchedule | None = None) -> float:
    """Extrapolated limit of [f(mu with mass q*p_i moved to x_i + eps) - f(mu)] / eps.

    Probes the derivative mass on a fraction of an atom: the limit equals
    (q * p_i) * g(x_i), linear in the moved mass; at q = 1 it coincides with
    p_i times the atom derivative.  Central mode moves the mass to x_i - eps
    for the second evaluation.
    """
    i = _check_index(mu, i)
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise EstimatorError(f"mass fraction must lie in (0, 1], got {q!r}")
    return _extrapolated(
        f, float(mu.atoms[i]), schedule,
        lambda: _finite(f(mu), "the unperturbed measure"),
        lambda eps: _mass_moved(mu, i, q, eps),
        lambda eps: f"mass {q!r} of atom {i} moved by {eps!r}")


def directional_derivative(f, sample: EmpiricalSample, eta: Direction,
                           schedule: StepSchedule | None = None) -> float:
    """Extrapolated limit of [F(sample + eps * eta) - F(sample)] / eps,
    where F is the lift f(law of .)."""
    if eta.values.size != sample.size:
        raise EstimatorError(
            f"direction length {eta.values.size} != sample length {sample.size}"
        )
    return _extrapolated(
        f, float(np.max(np.abs(sample.values))) if sample.size else 0.0, schedule,
        lambda: _finite(f(law_of(sample)), "the unperturbed sample's law"),
        lambda eps: law_of(_displaced(sample, eps, eta)),
        lambda eps: f"sample displaced by {eps!r} * eta")


def _displaced(sample: EmpiricalSample, eps: float, eta: Direction) -> EmpiricalSample:
    """``sample + eps * eta``; a probe failure where a value leaves the
    float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = sample.values + eps * eta.values
    if not np.isfinite(values).all():
        raise ProbeFailureError(f"sample displaced by {eps!r} * eta leaves the float range")
    return EmpiricalSample(values, sample.weights)
