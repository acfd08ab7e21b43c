"""Finitely supported probability measures and weighted empirical samples.

Two representations live here:

  * ``DiscreteMeasure`` -- the canonical law: strictly increasing atoms x_i
    with positive weights p_i summing to 1.  This is the computational
    stand-in for a square-integrable probability measure on the real line.
  * ``EmpiricalSample`` -- an ordered, weighted list of real values standing
    in for a random variable on an atomless carrier.  Order carries
    identity: two samples with the same sorted values share a law but are
    different random variables.

Plus the operations the rest of the package is built on: canonicalization
(``make_measure``), the sample -> law projection (``law_of``), dyadic floor
quantization to the grid {i * 2^-n} (``dyadic_quantize``), the exact 1-D
quantile-coupling Wasserstein-2 distance (``wasserstein2``), and the mean.

Numerical policy: every weighted sum is formed with ``math.fsum`` (exactly
rounded, hence order-independent and bit-stable across runs), and atom
merging uses exact float equality only.  Both choices are deliberate: they
make law-level computations bitwise invariant under permutations and exact
weight splittings of the underlying sample.

Note on the atomless carrier: a genuinely atomic probability space (e.g. a
two-point space with unequal masses) cannot be expressed here -- sample
indices always play the role of points of an atomless space, and mass can
be split freely.  Constancy-on-level-sets arguments therefore apply without
caveats to everything this module represents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "EmpiricalSample",
    "QuantizationLevel",
    "MeasureError",
    "SampleFormatError",
    "make_measure",
    "make_sample",
    "law_of",
    "dyadic_quantize",
    "wasserstein2",
    "mean",
    "read_sample_file",
]

# Inputs whose weight sum strays farther than this from 1 are rejected
# instead of silently renormalized.
WEIGHT_SUM_TOLERANCE = 1e-9

# Finest dyadic level: 2.0 ** n overflows above it.
MAX_LEVEL = 1023


class MeasureError(ValueError):
    """Invalid measure or sample construction."""


class SampleFormatError(ValueError):
    """Malformed sample file; carries the offending path and line number."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        loc = path if line is None else f"{path}:{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


def _as_float_array(values: Iterable[float], what: str) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    if arr.ndim != 1:
        raise MeasureError(f"{what} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise MeasureError(f"{what}[{bad}] is not finite: {arr[bad]!r}")
    # +0.0 normalizes any -0.0 so canonical forms are bitwise unique.
    return arr + 0.0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _renormalize(weights: np.ndarray, what: str) -> np.ndarray:
    total = math.fsum(weights.tolist())
    if total <= 0.0:
        raise MeasureError(f"{what} must have positive total mass, got {total!r}")
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise MeasureError(
            f"{what} sum to {total!r}, farther than {WEIGHT_SUM_TOLERANCE} from 1; "
            "rescale the input explicitly"
        )
    return weights / total


@dataclass(frozen=True)
class DiscreteMeasure:
    """Canonical finitely supported probability measure on the real line.

    ``atoms`` are strictly increasing, ``weights`` are positive and sum to 1
    within 1e-12.  Build instances through :func:`make_measure`, which sorts,
    merges exactly coincident atoms, drops zero weights and renormalizes.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = _frozen(_as_float_array(self.atoms, "atoms"))
        weights = _frozen(_as_float_array(self.weights, "weights"))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if atoms.size == 0 or atoms.size != weights.size:
            raise MeasureError(
                f"need matching nonzero lengths, got {atoms.size} atoms "
                f"and {weights.size} weights"
            )
        if atoms.size > 1 and not np.all(np.diff(atoms) > 0):
            raise MeasureError("atoms must be strictly increasing")
        if not np.all(weights > 0):
            raise MeasureError("weights must all be positive")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > 1e-12:
            raise MeasureError(f"weights must sum to 1 within 1e-12, got {total!r}")

    @property
    def n_atoms(self) -> int:
        return int(self.atoms.size)

    def __repr__(self) -> str:  # keep short: measures can be large
        return f"DiscreteMeasure(n_atoms={self.n_atoms})"


@dataclass(frozen=True)
class EmpiricalSample:
    """Ordered, weighted list of real values; order is significant.

    Weights are positive and sum to 1 within 1e-12 (uniform by default).
    The induced law -- group equal values, add weights -- is always a valid
    :class:`DiscreteMeasure`; see :func:`law_of`.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = _frozen(_as_float_array(self.values, "values"))
        weights = _frozen(_as_float_array(self.weights, "weights"))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        if values.size == 0 or values.size != weights.size:
            raise MeasureError(
                f"need matching nonzero lengths, got {values.size} values "
                f"and {weights.size} weights"
            )
        if not np.all(weights > 0):
            raise MeasureError("weights must all be positive")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > 1e-12:
            raise MeasureError(f"weights must sum to 1 within 1e-12, got {total!r}")

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"EmpiricalSample(size={self.size})"


@dataclass(frozen=True)
class QuantizationLevel:
    """Dyadic resolution: cells of width 2^-n with endpoints on {i * 2^-n}."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise MeasureError(f"level must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not 0 <= self.n <= MAX_LEVEL:
            raise MeasureError(f"level must lie in 0..{MAX_LEVEL}, got {self.n}")

    @property
    def cell_width(self) -> float:
        return 2.0 ** -self.n


def as_level(level: QuantizationLevel | int) -> QuantizationLevel:
    """Accept a bare integer anywhere a QuantizationLevel is expected."""
    if isinstance(level, QuantizationLevel):
        return level
    return QuantizationLevel(level)


def make_measure(atoms: Sequence[float], weights: Sequence[float]) -> DiscreteMeasure:
    """Build the canonical measure from raw (atom, weight) pairs.

    Sorts atoms, merges exact duplicates by adding weights, drops zero-weight
    atoms, and renormalizes.  Weight sums farther than 1e-9 from 1 are
    rejected rather than silently rescaled.

    Parameters
    ----------
    atoms : sequence of float
        Atom positions; duplicates allowed.
    weights : sequence of float
        Nonnegative masses, same length as ``atoms``.

    Returns
    -------
    DiscreteMeasure
        Canonical form: strictly increasing atoms, positive weights.

    Raises
    ------
    MeasureError
        On length mismatch, negative weight, all-zero weights, non-finite
        entries, or a badly scaled weight sum.
    """
    a = _as_float_array(atoms, "atoms")
    w = _as_float_array(weights, "weights")
    if a.size == 0 or a.size != w.size:
        raise MeasureError(
            f"need matching nonzero lengths, got {a.size} atoms and {w.size} weights"
        )
    if np.any(w < 0):
        bad = int(np.flatnonzero(w < 0)[0])
        raise MeasureError(f"weights[{bad}] is negative: {w[bad]!r}")
    w = _renormalize(w, "weights")

    order = np.argsort(a, kind="stable")
    a = a[order]
    w = w[order]

    if (a.size == 1 or np.all(np.diff(a) > 0)) and np.all(w > 0):
        # no duplicates, no zero weights: grouping is the identity
        atoms_arr, weights_arr = a, w
    else:
        merged_atoms: list[float] = []
        merged_weights: list[float] = []
        i = 0
        size = a.size
        while i < size:
            j = i + 1
            while j < size and a[j] == a[i]:
                j += 1
            mass = math.fsum(w[i:j].tolist())
            if mass > 0.0:
                merged_atoms.append(float(a[i]))
                merged_weights.append(mass)
            i = j
        if not merged_atoms:
            raise MeasureError("all weights are zero")
        atoms_arr = np.array(merged_atoms, dtype=float)
        weights_arr = np.array(merged_weights, dtype=float)

    # shared final normalization so both paths agree bit for bit
    total = math.fsum(weights_arr.tolist())
    return DiscreteMeasure(atoms_arr, weights_arr / total)


def make_sample(values: Sequence[float],
                weights: Sequence[float] | None = None) -> EmpiricalSample:
    """Build an empirical sample; uniform weights 1/N when none are given."""
    v = _as_float_array(values, "values")
    if v.size == 0:
        raise MeasureError("sample must contain at least one value")
    if weights is None:
        w = np.full(v.size, 1.0 / v.size)
    else:
        w = _as_float_array(weights, "weights")
        if w.size != v.size:
            raise MeasureError(
                f"need matching lengths, got {v.size} values and {w.size} weights"
            )
        if np.any(w <= 0):
            bad = int(np.flatnonzero(w <= 0)[0])
            raise MeasureError(f"weights[{bad}] must be positive, got {w[bad]!r}")
    w = _renormalize(w, "weights")
    return EmpiricalSample(v, w)


def law_of(sample: EmpiricalSample) -> DiscreteMeasure:
    """Project a sample to its law: group equal values, add weights.

    Invariant under any permutation of the (value, weight) pairs and under
    exact weight splittings, bit for bit: grouping sums use ``math.fsum``.
    """
    return make_measure(sample.values, sample.weights)


def dyadic_quantize(sample: EmpiricalSample,
                    level: QuantizationLevel | int) -> EmpiricalSample:
    """Floor every value to the dyadic grid {i * 2^-n}; weights unchanged.

    Cells are half-open [i * 2^-n, (i+1) * 2^-n): a value exactly on a grid
    point stays put, everything else moves down by less than 2^-n.  Scaling
    by powers of two and flooring are exact in binary floating point, so the
    map is reproducible bit for bit and idempotent per level.

    Parameters
    ----------
    sample : EmpiricalSample
    level : QuantizationLevel or int
        Grid resolution n >= 0.

    Returns
    -------
    EmpiricalSample
        Same weights, values floored to the level-n grid.
    """
    n = as_level(level).n
    values = sample.values
    with np.errstate(over="ignore"):
        scaled = values * 2.0 ** n
    overflow = ~np.isfinite(scaled)
    if overflow.any():
        k = int(np.flatnonzero(overflow)[0])
        raise MeasureError(
            f"value {values[k]!r} overflows at quantization level {n}"
        )
    return EmpiricalSample(np.floor(scaled) * 2.0 ** -n, sample.weights)


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """Running weight partition with Neumaier compensation; last entry is 1."""
    out = np.empty(weights.size)
    s = 0.0
    c = 0.0
    for k in range(weights.size):
        w = float(weights[k])
        t = s + w
        if abs(s) >= abs(w):
            c += (s - t) + w
        else:
            c += (w - t) + s
        s = t
        out[k] = min(s + c, 1.0)
    out[-1] = 1.0
    return out


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Wasserstein-2 distance via the exact 1-D quantile coupling.

    Merges the two cumulative-weight partitions; on each merged segment both
    quantile functions are constant, so the integral of the squared quantile
    difference is a finite sum.  Symmetric, and zero iff the measures are
    equal.
    """
    cmu = _cumulative(mu.weights)
    cnu = _cumulative(nu.weights)
    xs, ys = mu.atoms, nu.atoms
    segments: list[float] = []
    gaps: list[float] = []
    i = j = 0
    prev = 0.0
    while i < cmu.size and j < cnu.size:
        upper = min(cmu[i], cnu[j])
        seg = upper - prev
        if seg > 0.0:
            segments.append(seg)
            gaps.append(xs[i] - ys[j])
        prev = upper
        if cmu[i] == upper:
            i += 1
        if cnu[j] == upper:
            j += 1
    return _weighted_l2(np.array(segments), np.array(gaps))


def _weighted_l2(weights: np.ndarray, d: np.ndarray) -> float:
    """sqrt(sum_k w_k d_k^2) with an exactly rounded sum: the L2 norm of
    ``d`` under the weights.  Overflow gives inf, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = weights * d * d
    return math.sqrt(max(math.fsum(terms.tolist()), 0.0))


def mean(mu: DiscreteMeasure) -> float:
    """Sum of p_i * x_i over sorted atoms (exactly rounded summation)."""
    return math.fsum((mu.weights * mu.atoms).tolist())


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_sample_file(path: str) -> EmpiricalSample:
    """Read a sample from CSV: one record per line, `value` or `value,weight`.

    Lines starting with ``#`` and blank lines are ignored.  Mixing weighted
    and unweighted records is an error; so is an empty file.  Errors carry
    the path and 1-based line number.
    """
    values: list[float] = []
    weights: list[float] = []
    weighted: bool | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SampleFormatError(f"cannot read sample file: {exc}", path=str(path))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (1, 2):
            raise SampleFormatError(
                f"expected `value` or `value,weight`, got {line!r}",
                path=str(path), line=lineno,
            )
        has_weight = len(fields) == 2
        if weighted is None:
            weighted = has_weight
        elif weighted != has_weight:
            raise SampleFormatError(
                "mixing weighted and unweighted records", path=str(path), line=lineno
            )
        try:
            v = float(fields[0])
        except ValueError:
            raise SampleFormatError(
                f"not a number: {fields[0]!r}", path=str(path), line=lineno
            ) from None
        if not math.isfinite(v):
            raise SampleFormatError(
                f"value must be finite, got {fields[0]!r}", path=str(path), line=lineno
            )
        values.append(v)
        if has_weight:
            try:
                w = float(fields[1])
            except ValueError:
                raise SampleFormatError(
                    f"not a number: {fields[1]!r}", path=str(path), line=lineno
                ) from None
            if not math.isfinite(w) or w <= 0:
                raise SampleFormatError(
                    f"weight must be finite and positive, got {fields[1]!r}",
                    path=str(path), line=lineno,
                )
            weights.append(w)
    if not values:
        raise SampleFormatError("no records found", path=str(path), line=1)
    try:
        return make_sample(values, weights if weighted else None)
    except MeasureError as exc:
        raise SampleFormatError(str(exc), path=str(path)) from exc
