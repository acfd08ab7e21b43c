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
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .measure import DiscreteMeasure, mean

__all__ = [
    "Functional",
    "PotentialSpec",
    "FunctionalRegistry",
    "NoClosedFormError",
    "FunctionalConfigError",
    "REGISTRY",
    "register",
    "lookup",
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

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        # Horner, highest degree first: deterministic evaluation order.
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Elementwise Horner; same rounding as the scalar evaluation."""
        acc = np.zeros_like(xs)
        for c in reversed(self.coefficients):
            acc = acc * xs + c
        return acc

    def derivative(self) -> "PotentialSpec":
        if self.degree == 0:
            return PotentialSpec((0.0,))
        return PotentialSpec(
            tuple(j * c for j, c in enumerate(self.coefficients) if j > 0)
        )

    def max_abs_on(self, lo: float, hi: float, samples: int = 513) -> float:
        """Coarse bound for |phi| on [lo, hi] (tolerance bookkeeping only)."""
        if hi < lo:
            lo, hi = hi, lo
        xs = np.linspace(lo, hi, samples)
        return max(abs(self(float(x))) for x in xs)


ShiftValue = Callable[[int, float], float | None]


@dataclass(frozen=True)
class Functional:
    """Evaluable map from canonical measures to reals.

    ``evaluate`` is pure and deterministic: identical canonical measures give
    bitwise-identical values.  ``analytic_derivative``, when present, is the
    closed-form g(mu, x).  Equality compares name and params only, so a
    registry round trip returns an equal functional.

    ``shift_evaluator``, when present, makes the estimator's one-atom shift
    probes cheap.  ``shift_evaluator(canon)`` is called once per canonical
    base measure and returns ``value(i, y)``, which must equal
    ``evaluate(canon with atom i moved to y)`` bit for bit, weights kept,
    for every finite ``y`` strictly between atoms i-1 and i+1.  ``value``
    returns None to decline one probe and the factory returns None to
    decline a base measure; declined probes are evaluated in full.  A
    functional added with :func:`register` opts in by passing
    ``shift_evaluator=`` to its ``Functional``; left None, every probe is
    evaluated in full.
    """

    name: str
    params: Mapping[str, Any]
    evaluate: Callable[[DiscreteMeasure], float] = field(compare=False, repr=False)
    analytic_derivative: Callable[[DiscreteMeasure, float], float] | None = field(
        default=None, compare=False, repr=False
    )
    smoothness_note: str = field(default="", compare=False)
    shift_evaluator: Callable[[DiscreteMeasure], ShiftValue | None] | None = field(
        default=None, compare=False, repr=False
    )

    def __call__(self, mu: DiscreteMeasure) -> float:
        return self.evaluate(mu)

    @property
    def has_closed_form(self) -> bool:
        return self.analytic_derivative is not None

    def analytic_g(self, mu: DiscreteMeasure, x: float) -> float:
        """Closed-form derivative at (mu, x); raises when there is none."""
        if self.analytic_derivative is None:
            raise NoClosedFormError(f"functional {self.name!r} has no closed form")
        return self.analytic_derivative(mu, x)


class _ExactSum:
    """Exact sum of per-atom terms, re-summed with one term replaced in O(1).

    ``partials`` are Shewchuk's non-overlapping partials of the terms
    ("Adaptive Precision Floating-Point Arithmetic", 1997, the algorithm
    behind ``math.fsum``): a short list whose exact sum is the exact sum of
    the terms.  ``math.fsum`` returns the correctly rounded exact sum of its
    inputs, so ``fsum(partials + [-old, new])`` is bitwise equal to ``fsum``
    over the full term list with ``old`` replaced by ``new``.
    """

    def __init__(self, terms: list[float], partials: list[float]):
        self.terms = terms
        self.partials = partials

    @classmethod
    def of(cls, terms: np.ndarray) -> "_ExactSum | None":
        """None when a term is non-finite or the partials overflow."""
        values = terms.tolist()
        partials: list[float] = []
        for x in values:
            i = 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            partials[i:] = [x]
        if not all(math.isfinite(v) for v in partials):
            return None
        return cls(values, partials)

    def replaced(self, i: int, new: float) -> float | None:
        """Sum with term i replaced by ``new``; None when ``new`` is not
        finite or the sum overflows, where a full ``fsum`` could flag the
        probe or raise differently."""
        if not math.isfinite(new):
            return None
        try:
            return math.fsum(self.partials + [-self.terms[i], new])
        except OverflowError:
            return None


def _sum_of_terms(terms: Callable, combine: Callable[..., float]):
    """``evaluate`` and ``shift_evaluator`` for f(mu) = combine(S_1, S_2, ...)
    with S_k the exactly rounded sum of the k-th per-atom term array.

    ``terms(weights, atoms)`` is applied to the arrays of a measure and to
    the Python floats of one moved atom, so both see the same operations in
    the same order and the moved atom's terms are the ones ``evaluate``
    would form.
    """

    def evaluate(mu: DiscreteMeasure) -> float:
        return combine(*(math.fsum(t.tolist()) for t in terms(mu.weights, mu.atoms)))

    def shift_evaluator(canon: DiscreteMeasure) -> ShiftValue | None:
        sums = [_ExactSum.of(t) for t in terms(canon.weights, canon.atoms)]
        if any(s is None for s in sums):
            return None
        weights = canon.weights.tolist()

        def value(i: int, y: float) -> float | None:
            totals = [s.replaced(i, t) for s, t in zip(sums, terms(weights[i], y))]
            if any(t is None for t in totals):
                return None
            return combine(*totals)

        return value

    return evaluate, shift_evaluator


def make_linear(phi: PotentialSpec | tuple[float, ...] | list[float]) -> Functional:
    """f(mu) = integral of phi d mu for a polynomial phi; g(x) = phi'(x)."""
    spec = phi if isinstance(phi, PotentialSpec) else PotentialSpec(tuple(phi))
    dphi = spec.derivative()
    evaluate, shift_evaluator = _sum_of_terms(
        lambda w, x: (w * spec.values(x),), lambda total: total)

    def analytic(mu: DiscreteMeasure, x: float) -> float:
        return dphi(float(x))

    return Functional(
        name="linear",
        params={"phi": spec.coefficients},
        evaluate=evaluate,
        analytic_derivative=analytic,
        smoothness_note="polynomial; smooth everywhere",
        shift_evaluator=shift_evaluator,
    )


def make_mean_square() -> Functional:
    """f(mu) = (mean of mu)^2; g(x) = 2 * mean(mu), constant in x."""
    evaluate, shift_evaluator = _sum_of_terms(lambda w, x: (w * x,), lambda m: m * m)

    def analytic(mu: DiscreteMeasure, x: float) -> float:
        return 2.0 * mean(mu)

    return Functional(
        name="mean_square",
        params={},
        evaluate=evaluate,
        analytic_derivative=analytic,
        smoothness_note="smooth everywhere",
        shift_evaluator=shift_evaluator,
    )


def make_variance() -> Functional:
    """f(mu) = E[x^2] - (E[x])^2; g(x) = 2x - 2 * mean(mu)."""
    evaluate, shift_evaluator = _sum_of_terms(
        lambda w, x: (w * x, w * x * x), lambda m, sq: sq - m * m)

    def analytic(mu: DiscreteMeasure, x: float) -> float:
        return 2.0 * float(x) - 2.0 * mean(mu)

    return Functional(
        name="variance",
        params={},
        evaluate=evaluate,
        analytic_derivative=analytic,
        smoothness_note="smooth everywhere",
        shift_evaluator=shift_evaluator,
    )


def make_interaction(w: PotentialSpec | tuple[float, ...] | list[float]) -> Functional:
    """f(mu) = double integral of w(y - z); g(x) = int [w'(x-z) - w'(z-x)] dmu(z)."""
    spec = w if isinstance(w, PotentialSpec) else PotentialSpec(tuple(w))
    dw = spec.derivative()

    def evaluate(mu: DiscreteMeasure) -> float:
        xs = mu.atoms
        diffs = xs[:, None] - xs[None, :]
        terms = np.outer(mu.weights, mu.weights) * spec.values(diffs)
        return math.fsum(terms.ravel().tolist())

    def analytic(mu: DiscreteMeasure, x: float) -> float:
        x = float(x)
        terms = mu.weights * (dw.values(x - mu.atoms) - dw.values(mu.atoms - x))
        return math.fsum(terms.tolist())

    return Functional(
        name="interaction",
        params={"w": spec.coefficients},
        evaluate=evaluate,
        analytic_derivative=analytic,
        smoothness_note="polynomial kernel; smooth everywhere",
    )


class FunctionalRegistry:
    """Name -> factory table; write-once per name, read-concurrently after."""

    def __init__(self):
        self._factories: dict[str, Callable[..., Functional]] = {}

    def register(self, name: str, factory: Callable[..., Functional]) -> str:
        if name in self._factories:
            raise FunctionalConfigError(f"functional {name!r} already registered")
        self._factories[name] = factory
        return name

    def factory(self, name: str) -> Callable[..., Functional]:
        """The factory registered under ``name``; any other name, including
        one that is not a string, is a config error."""
        if not isinstance(name, str) or name not in self._factories:
            known = ", ".join(sorted(self._factories))
            raise FunctionalConfigError(f"unknown functional {name!r} (known: {known})")
        return self._factories[name]

    def lookup(self, name: str, **params: Any) -> Functional:
        return self.factory(name)(**params)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._factories))


REGISTRY = FunctionalRegistry()
REGISTRY.register("linear", make_linear)
REGISTRY.register("mean_square", make_mean_square)
REGISTRY.register("variance", make_variance)
REGISTRY.register("interaction", make_interaction)


def register(name: str, factory: Callable[..., Functional]) -> str:
    """Add a user-defined functional family to the default registry."""
    return REGISTRY.register(name, factory)


def lookup(name: str, **params: Any) -> Functional:
    """Fetch a functional from the default registry."""
    return REGISTRY.lookup(name, **params)


def functional_from_config(config: Mapping[str, Any]) -> Functional:
    """Build a registered functional from its JSON configuration form.

    The keys besides ``name`` are the parameters of the registered factory,
    each a non-empty list of numbers; parameters without a default are
    required, unknown keys are rejected.  For the built-ins:
    ``{"name": "variance"}``, ``{"name": "mean_square"}``,
    ``{"name": "linear", "phi": [c0, c1, ...]}``,
    ``{"name": "interaction", "w": [c0, c1, ...]}``.
    """
    if not isinstance(config, Mapping):
        raise FunctionalConfigError(f"functional spec must be an object, got {config!r}")
    if "name" not in config:
        raise FunctionalConfigError("functional spec is missing `name`")
    name = config["name"]
    factory = REGISTRY.factory(name)
    parameters = inspect.signature(factory).parameters
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
