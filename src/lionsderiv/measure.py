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

Numerical policy: every weighted sum is exactly rounded, hence
order-independent and bit-stable across runs, and atom merging uses exact
float equality only.  Both choices are deliberate: they make law-level
computations bitwise invariant under permutations and exact weight
splittings of the underlying sample.  Every sum of term arrays is
``_cascade``'s, which returns ``math.fsum``'s answer bit for bit without
turning every term into a Python float.  It first splits each term exactly
into a high part, whose float sum is exact, and a low part, whose float sum
has a known error bound; where both ends of that bound round to the same
float, that float is fsum's answer, since rounding to nearest never
decreases.  Otherwise it splits the low parts again, until nothing is
left, and rounds the exact sum of the high parts once.

Note on the atomless carrier: a genuinely atomic probability space (e.g. a
two-point space with unequal masses) cannot be expressed here -- sample
indices always play the role of points of an atomless space, and mass can
be split freely.  Constancy-on-level-sets arguments therefore apply without
caveats to everything this module represents.
"""

from __future__ import annotations

import math
import warnings
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

# Weights of a measure or sample sum to 1 within this.
CANONICAL_SUM_TOLERANCE = 1e-12

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
        raise MeasureError(f"{what}[{bad}] is not finite: {arr[bad].item()!r}")
    # +0.0 normalizes any -0.0 so canonical forms are bitwise unique.
    return arr + 0.0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _trusted(cls, **arrays: np.ndarray):
    """``cls(**arrays)`` holding the float arrays themselves, frozen, without
    its checks: the caller's arrays already meet its invariants."""
    obj = object.__new__(cls)
    for name, arr in arrays.items():
        object.__setattr__(obj, name, _frozen(arr))
    return obj


def _total_mass(weights: np.ndarray, what: str) -> float:
    total = _exact_sum(weights)
    if math.isnan(total):  # the sum of these finite, non-negative weights overflows
        total = math.inf
    if total <= 0.0:
        raise MeasureError(f"{what} must have positive total mass, got {total!r}")
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise MeasureError(
            f"{what} sum to {total!r}, farther than {WEIGHT_SUM_TOLERANCE} from 1; "
            "rescale the input explicitly"
        )
    return total


def _set_weighted(obj, name: str) -> np.ndarray:
    """Freeze ``obj.<name>`` and ``obj.weights`` as float arrays of matching
    nonzero length, the weights positive and summing to 1 within 1e-12."""
    points = _frozen(_as_float_array(getattr(obj, name), name))
    weights = _frozen(_as_float_array(obj.weights, "weights"))
    object.__setattr__(obj, name, points)
    object.__setattr__(obj, "weights", weights)
    if points.size == 0 or points.size != weights.size:
        raise MeasureError(
            f"need matching nonzero lengths, got {points.size} {name} "
            f"and {weights.size} weights"
        )
    if not np.all(weights > 0):
        raise MeasureError("weights must all be positive")
    total = _exact_sum(weights)
    if not math.isfinite(total) or abs(total - 1.0) > CANONICAL_SUM_TOLERANCE:
        raise MeasureError(f"weights must sum to 1 within {CANONICAL_SUM_TOLERANCE}, got {total!r}")
    return points


@dataclass(frozen=True)
class DiscreteMeasure:
    """Canonical finitely supported probability measure on the real line.

    ``atoms`` are strictly increasing, ``weights`` are positive and sum to 1
    within 1e-12.  Build instances through :func:`make_measure`, which
    returns a pair that meets these invariants as it is.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = _set_weighted(self, "atoms")
        if not np.all(atoms[1:] > atoms[:-1]):
            raise MeasureError("atoms must be strictly increasing")

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
        _set_weighted(self, "values")

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

    Sorts atoms, merges exact duplicates by adding weights exactly, drops
    zero-weight atoms, and renormalizes only where the merged weights'
    exact sum differs from the input's or lies farther than 1e-12 from 1.
    So canonicalizing is idempotent.  Weight sums farther than 1e-9 from 1
    are rejected rather than silently rescaled.

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
        raise MeasureError(f"weights[{bad}] is negative: {w[bad].item()!r}")
    total = _total_mass(w, "weights")

    order = np.argsort(a, kind="stable")
    a = a[order]
    w = w[order]

    # Exactly equal atoms merge; the merged mass is the exact sum of theirs.
    # The weights are at most about 1, so fsum over a run cannot overflow,
    # and on a short list it costs far less than an array-wide exact sum.
    starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
    ends = np.r_[starts[1:], a.size]
    masses = w[starts]
    merged = np.flatnonzero(ends - starts > 1)
    for k, lo, hi in zip(merged.tolist(), starts[merged].tolist(),
                         ends[merged].tolist()):
        masses[k] = math.fsum(w[lo:hi].tolist())
    keep = masses > 0.0
    atoms_arr, weights_arr = a[starts[keep]], masses[keep]

    # Where nothing merges or drops, the weights are the input's, permuted.
    merged_total = total if weights_arr.size == w.size else _exact_sum(weights_arr)
    if merged_total != total or abs(merged_total - 1.0) > CANONICAL_SUM_TOLERANCE:
        weights_arr = weights_arr / merged_total
    # The pair meets DiscreteMeasure's invariants: sorted distinct atoms and
    # positive weights whose exact sum lies within 1e-12 of 1.  Divided by
    # that sum, which is within about 1e-9 of 1, they stay positive and sum
    # to 1 within about 2^-52.
    return _trusted(DiscreteMeasure, atoms=atoms_arr, weights=weights_arr)


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
            raise MeasureError(f"weights[{bad}] must be positive, got {w[bad].item()!r}")
    # EmpiricalSample's invariants hold: positive weights divided by their
    # exact sum, within 1e-9 of 1, stay positive and sum to 1 within 2^-52.
    return _trusted(EmpiricalSample, values=v, weights=w / _total_mass(w, "weights"))


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
    floored, finite = _dyadic_floor(sample.values, n)
    overflowing = sample.values[~finite]
    if overflowing.size:
        raise MeasureError(
            f"value {overflowing[0].item()!r} overflows at quantization level {n}"
        )
    return EmpiricalSample(floored, sample.weights)


def _dyadic_floor(xs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """floor(x * 2^n) * 2^-n elementwise, the left end of each point's
    half-open level-n cell, plus the mask of points whose scaled value
    x * 2^n is finite; elsewhere the floored value is meaningless."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.asarray(xs, dtype=float) * 2.0 ** n
    return np.floor(scaled) * 2.0 ** -n, np.isfinite(scaled)


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """Running weight partition with Neumaier compensation; last entry is 1.

    The running sum ``s`` adds in order; ``err`` is the exact rounding error
    of each addition (Fast2Sum, from the larger operand), also added in
    order.  The output never decreases, for fewer than 2^50 weights: where
    err[k] < 0, s rounded up, so ulp(s[k]) <= 4 w[k], while rounding the
    error sum moves it by at most 2^-53 (k + 1) ulp(s[k]) < w[k] (README,
    "Numerical policy").
    """
    s = np.add.accumulate(weights)
    before = np.concatenate(([0.0], s[:-1]))
    err = np.where(np.abs(before) >= np.abs(weights),
                   (before - s) + weights, (weights - s) + before)
    out = np.minimum(s + np.add.accumulate(err), 1.0)
    out[-1] = 1.0
    return out


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Wasserstein-2 distance via the exact 1-D quantile coupling.

    Merges the two cumulative-weight partitions; on each merged segment both
    quantile functions are constant, so the integral of the squared quantile
    difference is a finite sum.  Symmetric, and zero iff the measures are
    equal.  A segment ends at each distinct breakpoint u, where each law
    sits on its first atom whose cumulative weight reaches u.  Only a
    distance past the float range is inf: where a gap or a square overflows,
    the sum is redone on the atoms scaled by 2^-k to below 2^510.
    """
    cmu = _cumulative(mu.weights)
    cnu = _cumulative(nu.weights)
    uppers = np.sort(np.concatenate((cmu, cnu)))
    seg = np.diff(uppers, prepend=0.0)
    kept = seg > 0.0
    uppers = uppers[kept]
    x, y = mu.atoms[np.searchsorted(cmu, uppers)], nu.atoms[np.searchsorted(cnu, uppers)]
    with np.errstate(over="ignore"):
        distance = _weighted_l2(seg[kept], x - y)
        if distance == math.inf:
            k = math.frexp(max(np.abs(x).max(), np.abs(y).max()))[1] - 510
            distance = np.ldexp(_weighted_l2(seg[kept], np.ldexp(x, -k) - np.ldexp(y, -k)), k)
    return float(distance)


def _weighted_l2(weights: np.ndarray, d: np.ndarray) -> float:
    """sqrt(sum_k w_k d_k^2) with an exactly rounded sum: the L2 norm of
    ``d`` under the weights.  Overflow gives inf, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = weights * d * d
    total = _exact_sum(terms)
    if math.isnan(total) and not np.isnan(terms).any():
        total = math.inf  # the terms are >= 0, so only their sum overflowed
    return math.sqrt(max(total, 0.0))


def _in_range(top: float, count: int) -> bool:
    """Whether fsum over ``count`` terms at most ``top`` in magnitude, or
    over the parts of their exact sum, is far from overflow: top < 2^x for
    x = frexp(top)[1], and count * 2^x < 2^1020."""
    return top < math.inf and math.frexp(top)[1] + count.bit_length() <= 1020


def _extract(terms: np.ndarray, top: float, out: np.ndarray) -> tuple[float, int]:
    """(tau, k): split every term t of ``terms``, all at most ``top`` > 0 in
    magnitude, exactly into q + r with sigma = 2^k; ``out``, an array of the
    shape of ``terms`` but not ``terms`` itself, receives the rests r.

    With n terms below 2^x and k = x + bitlen(n + 2), q = (t + sigma) - sigma
    is a multiple of u*sigma (u = 2^-53) at most sigma / 2^bitlen(n + 2) in
    magnitude, and r = t - q, the rounding error of t + sigma, is exact with
    |r| <= u*sigma (Rump, Ogita & Oishi 2008, the extraction lemma).  Every
    partial sum of the q is a multiple of u*sigma or of 2^-1074 below sigma,
    so tau, their float sum, is exact in any order."""
    k = math.frexp(top)[1] + (terms.size + 2).bit_length()
    sigma = math.ldexp(1.0, k)
    q = np.subtract(np.add(terms, sigma, out=out), sigma, out=out)
    tau = float(np.add.reduce(q, axis=None))
    np.subtract(terms, q, out=out)
    return tau, k


def _partials(terms: list[float]) -> list[float]:
    """fsum's partials of the exact sum S of ``terms``: S rounded, then what
    is left of S rounded, until nothing is.  They depend only on S, so
    ``fsum(partials + more)`` is ``fsum(terms + more)`` bit for bit.  fsum
    over the terms must not raise."""
    rest = list(terms)
    partials: list[float] = []
    while p := math.fsum(rest):
        partials.append(p)
        rest.append(-p)
    return partials


def _exact_parts(terms, count: int | None = None,
                 scratch: np.ndarray | None = None) -> list[float] | None:
    """:func:`_partials` of the exact sum of the float array ``terms``; None
    where a term is not finite or the terms come near overflow
    (:func:`_in_range`).  ``count`` and ``scratch`` are as for
    :func:`_split_sum`.

    Rounds of :func:`_extract` split the rests again until they are zero,
    each sigma at most 2^(bitlen(n + 2) - 52) times the last.  Once sigma is
    at most 2^-1021, t + sigma stays below 2^-1021, where floats are spaced
    2^-1074, so it is exact, q = t and the rests are zero."""
    terms = np.asarray(terms, dtype=float).ravel()
    rest = np.empty(terms.size) if scratch is None else scratch[:terms.size]
    top = float(np.maximum.reduce(np.abs(terms, out=rest), initial=0.0))
    if not _in_range(top, terms.size if count is None else count):
        return None
    parts = []
    spare = np.empty(terms.size)
    while top:
        parts.append(_extract(terms, top, rest)[0])
        # The rests are the next terms, and the other buffer takes theirs.
        terms, rest, spare = rest, spare, rest
        top = float(np.maximum.reduce(np.abs(terms, out=rest), initial=0.0))
    return _partials(parts)


def _split_sum(terms: np.ndarray, count: int | None = None,
               scratch: np.ndarray | None = None
               ) -> tuple[float, float, float] | None:
    """(tau, s, err): the exact sum of the float array ``terms`` lies within
    ``err`` of tau + s.  None where :func:`_exact_parts` is None (``count``
    as there), and where the terms are so small that ``err`` would leave
    the normal range.

    tau is the first round of :func:`_exact_parts` and s the float sum of
    the n rests, off by at most (n - 1)u * n*u*sigma (1 + u)^n in any order,
    which err = 2n^2 u^2 sigma bounds.  ``scratch``, a float array at least
    as long as ``terms``, holds the rests, so a caller that sums many parts
    allocates it once."""
    n = terms.size
    rest = np.abs(terms, out=None if scratch is None else scratch[:n].reshape(terms.shape))
    top = float(np.maximum.reduce(rest, axis=None, initial=0.0))
    if top == 0.0:  # fsum over zeros alone is 0.0, whatever their signs
        return 0.0, 0.0, 0.0
    if not _in_range(top, n if count is None else count):
        return None
    tau, k = _extract(terms, top, rest)
    if k - 106 < -1022:  # err = 2n^2 * 2^(k - 106) must stay normal, so exact
        return None
    return tau, float(np.add.reduce(rest, axis=None)), math.ldexp(2.0 * n * n, k - 106)


def _certified_sum(parts: list[tuple[float, float, float]]) -> float | None:
    """fsum over the terms whose split sums (:func:`_split_sum`) are
    ``parts``, bit for bit; None where their bounds cannot decide it.

    The exact sum T lies between A - E and A + E, with A the exact sum of
    every tau and s and E the sum of every err.  Rounding to nearest never
    decreases, so where A - E and A + E round to the same float, T rounds to
    it too, and that is fsum's answer over the terms.  Where they differ,
    as when T is near a rounding boundary or near 0, the caller sums the
    terms exactly instead."""
    estimate = [v for tau, s, _ in parts for v in (tau, s)]
    errs = [err for *_, err in parts]
    lo = math.fsum(estimate + [-err for err in errs])
    return lo if lo == math.fsum(estimate + errs) else None


def _cascade(parts_of, every_term) -> float:
    """``math.fsum`` over the terms of a sum given in parts, bit for bit, or
    NaN where fsum raises: the terms hold both +inf and -inf, or a partial
    sum overflows.

    ``parts_of(reduce)`` lists ``reduce(terms, count, scratch)`` for each
    part, ``count`` being the number of terms in the whole sum; it is None,
    or holds a None, where a part declines.  The certified split sums
    (:func:`_split_sum`, :func:`_certified_sum`) answer first.  Where they
    cannot decide the rounding, fsum over :func:`_exact_partials` gives the
    sum.  Only where a term is not finite or the terms come near the
    overflow threshold does fsum run over the list ``every_term()``."""
    parts = parts_of(_split_sum)
    total = None if parts is None or None in parts else _certified_sum(parts)
    if total is not None:
        return total
    partials = _exact_partials(parts_of)
    if partials is not None:
        return math.fsum(partials)
    return _fsum_or_nan(every_term())


def _exact_partials(parts_of) -> list[float] | None:
    """:func:`_partials` of the exact sum of the terms whose parts
    ``parts_of`` lists (:func:`_cascade`), by way of :func:`_exact_parts`;
    None where a part declines."""
    parts = parts_of(_exact_parts)
    if parts is None or None in parts:
        return None
    return _partials([p for part in parts for p in part])


def _exact_sum(terms) -> float:
    """``math.fsum`` of an array of terms, bit for bit, or NaN where fsum
    raises: :func:`_cascade` over the terms as one part."""
    terms = np.asarray(terms, dtype=float).ravel()
    return _cascade(lambda reduce: [reduce(terms, terms.size, None)], terms.tolist)


def _fsum_or_nan(terms: list[float]) -> float:
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.nan


def mean(mu: DiscreteMeasure) -> float:
    """Sum of p_i * x_i over sorted atoms (exactly rounded summation)."""
    return _exact_sum(mu.weights * mu.atoms)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_sample_file(path: str) -> EmpiricalSample:
    """Read a sample from CSV: one record per line, `value` or `value,weight`.

    A value or weight is what Python's ``float()`` reads.  A line whose
    first non-blank character is ``#`` is a comment; comments and blank
    lines are ignored.  Mixing weighted and unweighted records is an error;
    so is an empty file.  Errors carry the path and the 1-based number of
    the first bad line.

    The file is opened once.  Where it can seek, numpy parses it in one
    pass (:func:`_numeric_table`).  Where it cannot, as a pipe, or where
    that parse fails, its lines are read from the start
    (:func:`_read_records`), which defines the format: they give the same
    records or name the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = _numeric_table(fh) if fh.seekable() else None
            lines = fh.readlines() if table is None else None
    except (OSError, UnicodeDecodeError) as exc:  # also a file that is not UTF-8 text
        raise SampleFormatError(f"cannot read sample file: {exc}", path=str(path))
    if table is None:
        values, weights = _read_records(lines, path)
        del lines  # free the text before make_sample copies the arrays
    else:
        values, weights = table[:, 0], table[:, 1] if table.shape[1] == 2 else None
    try:
        return make_sample(values, weights)
    except MeasureError as exc:
        raise SampleFormatError(str(exc), path=str(path)) from exc


def _numeric_table(fh) -> np.ndarray | None:
    """The records of the seekable sample file ``fh`` as an array of one or
    two columns: numpy parses the lines after the leading comment and blank
    lines in one pass.  None, with ``fh`` back at its start, where the parse
    fails, as on a later comment or whitespace-only line or a number numpy
    does not read (``1_0``), or where a record breaks a rule."""
    try:
        start, line = 0, fh.readline()
        while line and line.strip()[:1] in ("", "#"):  # a blank or comment line
            start, line = fh.tell(), fh.readline()
        fh.seek(start)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns on a file without records
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError):  # also a file that is not UTF-8 text
        table = np.empty((0, 0))
    if (table.size and table.shape[1] <= 2 and np.isfinite(table).all()
            and (table[:, 1:] > 0).all()):
        return table
    fh.seek(0)
    return None


def _read_records(lines: list[str], path: str) -> tuple[list[float], list[float] | None]:
    """The values of the lines of sample file ``path`` and their weights,
    None where the records have none; the first bad line raises."""
    values: list[float] = []
    weights: list[float] = []
    weighted: bool | None = None
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
    return values, weights if weighted else None
