"""Measure functionals and their closed-form derivatives.

A :class:`Functional` maps a canonical :class:`~lionsderiv.measure.DiscreteMeasure`
to a real number.  Because evaluation takes a measure (never a sample), the
lifted map on random variables is law-invariant by construction.  Built-ins
optionally carry a closed-form derivative function g(mu, x) used as an
oracle; each closed form is a hypothesis confirmed by the finite-difference
self-consistency tests, never unchecked truth.

Built-in family (phi and w are polynomials, coefficients ascending degree):

  linear       f(mu) = sum_i p_i phi(x_i)            g(x) = phi'(x)
  mean_square  f(mu) = (sum_i p_i x_i)^2             g(x) = 2 * mean(mu)
  variance     f(mu) = E[x^2] - (E[x])^2             g(x) = 2x - 2 * mean(mu)
  interaction  f(mu) = sum_{j,k} p_j p_k w(x_j-x_k)  g(x) = sum_k p_k [w'(x-x_k) - w'(x_k-x)]

Derivation note, common to all four: shift a single atom x_i to x_i + eps
while keeping the weights, differentiate the value at eps = 0, and divide by
p_i.  For ``linear`` this gives phi'(x_i) directly.  For ``mean_square``,
d/d eps (m + p_i eps)^2 = 2 m p_i, so g = 2m, constant in x.  ``variance``
is E[x^2] - (E[x])^2, whose two parts give 2 x_i and -2m.  For
``interaction`` both integration slots move, producing the symmetrized
kernel-derivative integral; a squared-distance kernel w(u) = u^2/2 makes it
coincide with ``variance`` on every measure, which the tests assert.

Evaluation note: ``interaction`` sums its M x M terms from the diagonal and
each pair j != k once, as in the strict upper triangle.  The swapped pair's
term is bit for bit the same float for a kernel without odd coefficients and
the same float negated for one without even coefficients, so the other half
of the matrix costs nothing for those kernels, and the exact sum keeps every
bit (see :func:`make_interaction`).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .measure import (DiscreteMeasure, _cascade, _exact_partials, _exact_parts,
                      _exact_sum, _fsum_or_nan, _in_range, _partials, mean)

__all__ = [
    "Functional",
    "PotentialSpec",
    "NoClosedFormError",
    "FunctionalConfigError",
    "register",
    "make_linear",
    "make_mean_square",
    "make_variance",
    "make_interaction",
    "functional_from_config",
]

MAX_POTENTIAL_DEGREE = 10


class NoClosedFormError(LookupError):
    """The functional carries no closed-form derivative."""


class FunctionalConfigError(ValueError):
    """Malformed functional specification."""


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial potential/kernel: coefficients c_0..c_d, ascending degree.

    Degree is capped at 10; the estimator's step-size heuristics assume
    moderate derivative growth.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise FunctionalConfigError("potential needs at least one coefficient")
        if len(coeffs) - 1 > MAX_POTENTIAL_DEGREE:
            raise FunctionalConfigError(
                f"potential degree {len(coeffs) - 1} exceeds {MAX_POTENTIAL_DEGREE}"
            )
        if not all(math.isfinite(c) for c in coeffs):
            raise FunctionalConfigError("potential coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    def values(self, xs, out: np.ndarray | None = None):
        """The polynomial at a scalar or elementwise on an array, by Horner's
        rule, highest degree first: a fixed evaluation order.  Overflow gives
        inf or NaN, silently.  ``out``, a float array of the shape of
        ``xs``, receives the values in place of a new array."""
        acc = np.empty(np.shape(xs)) if out is None else out
        acc.fill(0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for c in reversed(self.coefficients):
                np.multiply(acc, xs, out=acc)
                np.add(acc, c, out=acc)
        return acc[()]  # a scalar for a scalar xs

    def derivative(self) -> "PotentialSpec | None":
        """The derivative polynomial; None when a coefficient overflows."""
        coeffs = tuple(j * c for j, c in enumerate(self.coefficients) if j > 0) or (0.0,)
        return PotentialSpec(coeffs) if all(math.isfinite(c) for c in coeffs) else None

    def max_abs_on(self, lo: float, hi: float) -> float:
        """Coarse bound for |phi| on [lo, hi], the largest |phi| at 513
        evenly spaced points (tolerance bookkeeping only).  An interval
        wider than the float range gives inf or NaN, silently."""
        if hi < lo:
            lo, hi = hi, lo
        with np.errstate(over="ignore", invalid="ignore"):
            points = np.linspace(lo, hi, 513)
        return float(np.max(np.abs(self.values(points))))


@dataclass(frozen=True)
class Functional:
    """Evaluable map from canonical measures to reals.

    ``evaluate`` is pure and deterministic: identical canonical measures give
    bitwise-identical values.  It returns a real number, which the estimator
    takes with ``float()``: a value that ``float()`` rejects, such as None
    or an array of more than one element, raises its ``TypeError`` there,
    and that propagates as an exception raised by ``evaluate`` itself does.
    ``analytic_derivative``, when present, is the closed form on arrays:
    ``analytic_derivative(mu, xs)`` returns g(mu, x) at every point of the
    float array ``xs``, in its shape, computing a per-measure constant such
    as the mean once.  Equality compares name and params only, so a
    registry round trip returns an equal functional.

    ``shift_evaluator``, when present, makes the estimator's one-atom shift
    probes cheap.  ``shift_evaluator(canon, indices, positions)`` takes a
    canonical measure and an int and a float array of the same length, in
    any order and with repeats, and returns a float array of that length.
    Entry k must equal ``evaluate(canon with atom indices[k] moved to
    positions[k])`` bit for bit, weights kept, for every finite position
    strictly between the atom's neighbours; it is NaN where the evaluator
    declines the probe, and every entry is NaN for a base it cannot handle.
    A grid asks for all its probes in one call.  Declined probes are
    evaluated in full, atom by atom in probe order, and an atom stops at its
    first non-finite value, so ``evaluate`` sees the probes it would see
    without the evaluator.  The built-ins all have one: ``linear``,
    ``mean_square`` and ``variance`` re-sum in O(1) per probe,
    ``interaction`` in O(M) for M atoms, where a full evaluation costs O(M)
    and O(M^2); each keeps O(M) memory per call.  Both rest on exact
    summation: the base keeps fsum's partials of its exact term sum, and
    fsum over them with some terms swapped for new ones is the sum a full
    evaluation forms.  A functional added with :func:`register` opts in by
    passing ``shift_evaluator=`` to its ``Functional``; left None, every
    probe is evaluated in full.
    """

    name: str
    params: Mapping[str, Any]
    evaluate: Callable[[DiscreteMeasure], float] = field(compare=False, repr=False)
    analytic_derivative: Callable[[DiscreteMeasure, np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )
    shift_evaluator: Callable[[DiscreteMeasure, np.ndarray, np.ndarray], np.ndarray] | None = (
        field(default=None, compare=False, repr=False))

    def __call__(self, mu: DiscreteMeasure) -> float:
        return self.evaluate(mu)

    @property
    def has_closed_form(self) -> bool:
        return self.analytic_derivative is not None

    def analytic_g(self, mu: DiscreteMeasure, xs) -> np.ndarray:
        """Closed-form derivative of ``mu`` at each point of ``xs``, a scalar
        or an array; raises when there is none.  Overflow gives inf or NaN,
        silently."""
        if self.analytic_derivative is None:
            raise NoClosedFormError(f"functional {self.name!r} has no closed form")
        with np.errstate(over="ignore", invalid="ignore"):
            return self.analytic_derivative(mu, np.asarray(xs, dtype=float))


def _resums(partials: list[float], rows) -> np.ndarray:
    """Per list of terms in ``rows``, fsum over ``partials`` and those
    terms, as an array; NaN where it is not finite or fsum raises, where a
    full evaluation could flag the probe or fail differently.  With the
    partials of a term array (:func:`~lionsderiv.measure._exact_parts`) and
    some of its terms negated, or floats whose exact sum is theirs, plus new
    ones, that is fsum over the array with those terms replaced."""
    sums = np.array([_fsum_or_nan(partials + terms) for terms in rows], dtype=float)
    sums[~np.isfinite(sums)] = math.nan
    return sums


def _sum_of_terms(name: str, params: Mapping[str, Any], terms: Callable,
                  combine: Callable[..., float], analytic) -> Functional:
    """The functional ``name`` with f(mu) = combine(S_1, S_2, ...), S_k the
    exactly rounded sum of the k-th per-atom term array, with its
    ``shift_evaluator`` and the closed form ``analytic`` (None for none).

    ``terms(weights, atoms)`` is applied to the arrays of a measure and to
    those of the moved atoms, one entry per probe, so both see the same
    operations in the same order and a moved atom's terms are the ones
    ``evaluate`` would form.  ``combine`` works elementwise on arrays.
    """

    def term_arrays(mu: DiscreteMeasure):
        with np.errstate(over="ignore", invalid="ignore"):
            return terms(mu.weights, mu.atoms)

    def evaluate(mu: DiscreteMeasure) -> float:
        return combine(*(_exact_sum(t) for t in term_arrays(mu)))

    def shift_evaluator(canon: DiscreteMeasure, indices: np.ndarray,
                        positions: np.ndarray) -> np.ndarray:
        arrays = term_arrays(canon)
        sums = [_exact_parts(t) for t in arrays]
        if any(s is None for s in sums):
            return np.full(indices.shape, math.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            news = terms(canon.weights[indices], positions)
            totals = [_resums(s, map(list, zip((-old[indices]).tolist(), new.tolist())))
                      for s, old, new in zip(sums, arrays, news)]
            return combine(*totals)

    return Functional(name, params, evaluate, analytic_derivative=analytic,
                      shift_evaluator=shift_evaluator)


def make_linear(phi: PotentialSpec | tuple[float, ...] | list[float]) -> Functional:
    """f(mu) = integral of phi d mu for a polynomial phi; g(x) = phi'(x)."""
    spec = phi if isinstance(phi, PotentialSpec) else PotentialSpec(tuple(phi))
    dphi = spec.derivative()

    def analytic(mu: DiscreteMeasure, xs: np.ndarray) -> np.ndarray:
        return dphi.values(xs)

    return _sum_of_terms("linear", {"phi": spec.coefficients},
                         lambda w, x: (w * spec.values(x),), lambda total: total,
                         None if dphi is None else analytic)


def make_mean_square() -> Functional:
    """f(mu) = (mean of mu)^2; g(x) = 2 * mean(mu), constant in x."""

    def analytic(mu: DiscreteMeasure, xs: np.ndarray) -> np.ndarray:
        return np.full(xs.shape, 2.0 * mean(mu))

    return _sum_of_terms("mean_square", {}, lambda w, x: (w * x,), lambda m: m * m, analytic)


def make_variance() -> Functional:
    """f(mu) = E[x^2] - (E[x])^2; g(x) = 2x - 2 * mean(mu)."""

    def analytic(mu: DiscreteMeasure, xs: np.ndarray) -> np.ndarray:
        return 2.0 * xs - 2.0 * mean(mu)

    return _sum_of_terms("variance", {}, lambda w, x: (w * x, w * x * x),
                         lambda m, sq: sq - m * m, analytic)


# Pairs of atoms are formed in blocks of about this many, so that the
# temporaries of a block stay in cache.  At 512 atoms, one pass over all pairs
# at once costs about 1,500 page faults per evaluation for fresh temporaries.
# An evaluation allocates its block buffers once and fills them block by
# block, so its time does not depend on whether the allocator hands the
# memory of one block's temporaries back to the system before the next.
_PAIR_BLOCK = 1 << 14


def _pair_block_size(m: int) -> int:
    """The number of pairs in the largest block of ``_pair_blocks`` over
    ``m`` atoms."""
    h = (m - 1) // 2
    rows = min(m, max(1, _PAIR_BLOCK // h)) if h else 0
    return max(rows * h, m // 2)


def _pair_blocks(weights: np.ndarray, atoms: np.ndarray):
    """Blocks of (p_j*p_k, x_j - x_k) over the pairs of atom indices j != k,
    each pair once, in one of its two orders: j with j + s mod M for
    s = 1..(M-1)//2, then, for even M, j with j + M/2 for j < M/2.  This
    circulant order makes every block a broadcast over strided views.  The
    blocks are views of two buffers, which the next block overwrites.
    Where all weights are equal, p_j*p_k is p*p bit for bit, and every
    block holds that one float in place of the products."""
    m = atoms.size
    h = (m - 1) // 2
    gaps = np.empty(_pair_block_size(m))
    equal = np.all(weights == weights[0])
    products = None if equal else np.empty(gaps.size)

    def times(left, right, g):
        if equal:
            return float(weights[0] * weights[0])
        return np.multiply(left, right, out=products[:g.size].reshape(g.shape))

    if h:
        later_atoms = sliding_window_view(np.concatenate((atoms[1:], atoms[:h])), h)
        later_weights = sliding_window_view(np.concatenate((weights[1:], weights[:h])), h)
        rows = max(1, _PAIR_BLOCK // h)
        for a in range(0, m, rows):
            n = min(rows, m - a)
            g = gaps[:n * h].reshape(n, h)
            np.subtract(atoms[a:a + n, None], later_atoms[a:a + n], out=g)
            yield times(weights[a:a + n, None], later_weights[a:a + n], g), g
    if m % 2 == 0:
        half = m // 2
        g = gaps[:half]
        np.subtract(atoms[:half], atoms[half:], out=g)
        yield times(weights[:half], weights[half:], g), g


def make_interaction(w: PotentialSpec | tuple[float, ...] | list[float]) -> Functional:
    """f(mu) = double integral of w(y - z); g(x) = int [w'(x-z) - w'(z-x)] dmu(z).

    f(mu) is the exactly rounded sum of the M x M terms
    (p_j*p_k) * w(x_j - x_k): the diagonal, then each pair j != k once, as
    in the strict upper triangle.  The term of the swapped pair needs no
    work of its own for most kernels: ``x_k - x_j`` is bit for bit
    ``-(x_j - x_k)``, ``p_k*p_j`` bit for bit ``p_j*p_k``, and Horner's rule
    negates exactly at every step.  So for a kernel whose odd coefficients
    are all 0 it is the same term, and for one whose even coefficients are
    all 0 the same term negated, wherever the terms are finite: the pair
    adds the term twice, or nothing.  Other kernels evaluate it, as
    ``p_j*p_k * w(-(x_j - x_k))``.  The blocks of terms are the parts of
    one :func:`~lionsderiv.measure._cascade`, whose exact partials the
    shift evaluator's base also keeps; its fallback is the whole matrix.
    """
    spec = w if isinstance(w, PotentialSpec) else PotentialSpec(tuple(w))
    dw = spec.derivative()
    even = not any(spec.coefficients[1::2])
    odd = not any(spec.coefficients[0::2])
    *lower, leading = spec.coefficients

    def pair_terms(gaps: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``spec.values(gaps, out=out)`` up to the signs of zeros: Horner's
        rule from the leading coefficient c_d, adding no zero coefficient.
        For a finite gap Horner's first step 0*x + c_d is c_d, and adding a
        zero changes at most the sign of a zero, which the exact sums of
        the pair terms do not see (a block of zeros alone sums to +0.0).  A
        gap that is not finite still gives a value that is not finite: a
        degree-0 kernel keeps 0*x + c."""
        if not lower:
            return spec.values(gaps, out=out)
        np.multiply(gaps, leading, out=out)
        for k, c in enumerate(reversed(lower)):
            if k:
                np.multiply(out, gaps, out=out)
            if c:
                np.add(out, c, out=out)
        return out

    def pair_parts(mu: DiscreteMeasure, reduce: Callable) -> list | None:
        """``reduce(terms, count, scratch)`` of the diagonal and of each
        block of pair terms, listed once for each time those terms count in
        the M x M sum, with ``count`` all M^2 terms: the ``parts_of`` of
        :func:`~lionsderiv.measure._cascade`.  None where an odd kernel's
        pair terms, which add nothing, are not finite or come near
        overflow."""
        atoms, weights = mu.atoms, mu.weights
        count = atoms.size * atoms.size
        # One set of block-sized buffers per evaluation: the terms of a
        # block, and the temporaries of reduce.
        size = max(_pair_block_size(atoms.size), atoms.size)
        block_terms = np.empty(size)
        scratch = np.empty(size)

        def block(products, gaps):
            terms = pair_terms(gaps, block_terms[:gaps.size].reshape(gaps.shape))
            return np.multiply(products, terms, out=terms)

        with np.errstate(over="ignore", invalid="ignore"):
            parts = [reduce((weights * weights) * spec.values(atoms - atoms), count, scratch)]
            for products, gaps in _pair_blocks(weights, atoms):
                terms = block(products, gaps)
                if odd:  # the swapped terms cancel these: check the range only
                    top = np.maximum.reduce(np.abs(terms, out=scratch[:terms.size]
                                                   .reshape(terms.shape)), axis=None)
                    if not _in_range(float(top), count):
                        return None
                    continue
                part = reduce(terms, count, scratch)
                swapped = part if even else reduce(
                    block(products, np.negative(gaps, out=gaps)), count, scratch)
                parts += (part, swapped)
        return parts

    def evaluate(mu: DiscreteMeasure) -> float:
        def every_term() -> list[float]:
            atoms, weights = mu.atoms, mu.weights
            with np.errstate(over="ignore", invalid="ignore"):
                terms = (weights[:, None] * weights) * spec.values(atoms[:, None] - atoms)
            return terms.ravel().tolist()

        return _cascade(lambda reduce: pair_parts(mu, reduce), every_term)

    def shift_evaluator(canon: DiscreteMeasure, indices: np.ndarray,
                        positions: np.ndarray) -> np.ndarray:
        partials = _exact_partials(lambda reduce: pair_parts(canon, reduce))
        if partials is None:
            return np.full(indices.shape, math.nan)
        atoms, weights = canon.atoms, canon.weights
        m = atoms.size
        line_weights = np.concatenate((weights, weights))
        probes_per_chunk = max(1, _PAIR_BLOCK // line_weights.size)
        # Per atom, a few floats whose exact sum is that of its old lines
        # negated.  Those lines are terms of the base, whose exact partials
        # exist, so they are finite and far from overflow and fsum over them
        # cannot raise.
        old_lines: dict[int, list[float]] = {}
        # One set of chunk buffers, filled for every chunk.
        gaps_buffer = np.empty((probes_per_chunk, 2 * m))
        terms_buffer = np.empty(gaps_buffer.shape)

        def lines(i: np.ndarray, y: np.ndarray) -> np.ndarray:
            """Per entry of ``i`` and ``y``: row i, (w_i*w_k) * w(y - x_k),
            then column i, (w_k*w_i) * w(x_k - y), of the M x M terms with
            atom i at y.  A view of a buffer that the next call overwrites."""
            gaps = gaps_buffer[:i.size]
            probes = np.arange(i.size)
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(y[:, None], atoms, out=gaps[:, :m])
                np.subtract(atoms, y[:, None], out=gaps[:, m:])
                gaps[probes, i] = gaps[probes, m + i] = y - y
                terms = spec.values(gaps, out=terms_buffer[:i.size])
                scale = np.multiply(weights[i, None], line_weights, out=gaps)
                return np.multiply(scale, terms, out=terms)

        # Moving atom i changes row i and column i.  Both hold the diagonal
        # term w_i^2 * w(0), whose bits do not change, so swapping both whole
        # lines, old for new, is exact.  Chunks of probes keep each lines
        # array within _PAIR_BLOCK terms.
        out = np.empty(indices.size)
        for a in range(0, indices.size, probes_per_chunk):
            chunk = slice(a, a + probes_per_chunk)
            i = indices[chunk]
            first = np.array(sorted(set(i.tolist()) - old_lines.keys()), dtype=int)
            negated = lines(first, atoms[first])
            for k, line in zip(first.tolist(), np.negative(negated, out=negated).tolist()):
                old_lines[k] = _partials(line)
            out[chunk] = _resums(partials, (line.tolist() + old_lines[k] for line, k in
                                            zip(lines(i, positions[chunk]), i.tolist())))
        return out

    def analytic(mu: DiscreteMeasure, xs: np.ndarray) -> np.ndarray:
        # One exact sum per point; an N x M matrix of terms would cost memory.
        atoms, weights = mu.atoms, mu.weights
        return np.array([
            _exact_sum(weights * (dw.values(x - atoms) - dw.values(atoms - x)))
            for x in xs.ravel().tolist()
        ]).reshape(xs.shape)

    return Functional(
        name="interaction",
        params={"w": spec.coefficients},
        evaluate=evaluate,
        analytic_derivative=None if dw is None else analytic,
        shift_evaluator=shift_evaluator,
    )


_FACTORIES: dict[str, Callable[..., Functional]] = {
    "linear": make_linear,
    "mean_square": make_mean_square,
    "variance": make_variance,
    "interaction": make_interaction,
}


def register(name: str, factory: Callable[..., Functional]) -> str:
    """Add a user-defined functional family under the string ``name``,
    which :func:`functional_from_config` then builds; returns ``name``.  A
    name is registered once."""
    if not isinstance(name, str):
        raise FunctionalConfigError(f"functional name must be a string, got {name!r}")
    if name in _FACTORIES:
        raise FunctionalConfigError(f"functional {name!r} already registered")
    _FACTORIES[name] = factory
    return name


def functional_from_config(config: Mapping[str, Any]) -> Functional:
    """Build a registered functional from its JSON configuration form.

    The keys besides ``name`` are the named parameters of the registered
    factory, not its ``*args`` or ``**kwargs``, each a non-empty list of
    numbers; parameters without a default are required, unknown keys are
    rejected.  For the built-ins:
    ``{"name": "variance"}``, ``{"name": "mean_square"}``,
    ``{"name": "linear", "phi": [c0, c1, ...]}``,
    ``{"name": "interaction", "w": [c0, c1, ...]}``.
    """
    if not isinstance(config, Mapping):
        raise FunctionalConfigError(f"functional spec must be an object, got {config!r}")
    if "name" not in config:
        raise FunctionalConfigError("functional spec is missing `name`")
    name = config["name"]
    if not isinstance(name, str) or name not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise FunctionalConfigError(f"unknown functional {name!r} (known: {known})")
    factory = _FACTORIES[name]
    parameters = {k: p for k, p in inspect.signature(factory).parameters.items()
                  if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}
    allowed = set(parameters)
    required = {k for k, p in parameters.items() if p.default is p.empty}
    extra = set(config) - allowed - {"name"}
    if extra:
        raise FunctionalConfigError(
            f"unknown keys for functional {name!r}: {sorted(extra)}"
        )
    missing = required - set(config)
    if missing:
        raise FunctionalConfigError(
            f"functional {name!r} requires keys: {sorted(missing)}"
        )
    params: dict[str, Any] = {}
    for key in allowed & set(config):
        coeffs = config[key]
        if not isinstance(coeffs, (list, tuple)) or not coeffs or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs
        ):
            raise FunctionalConfigError(
                f"{key!r} must be a non-empty list of numbers, got {coeffs!r}"
            )
        params[key] = tuple(float(c) for c in coeffs)
    return factory(**params)
