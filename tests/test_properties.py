"""Hypothesis invariants for the measure layer, the quantizer, the cell
lookup, the weighted-L2 helper and the one-atom shift probes."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lionsderiv import (
    DerivativeEstimate,
    DiscreteMeasure,
    EmpiricalSample,
    MeasureError,
    ProbeFailureError,
    QuantizationLevel,
    StepSchedule,
    atom_shift_quotients,
    dyadic_quantize,
    g_tilde_values,
    law_of,
    make_linear,
    make_mean_square,
    make_measure,
    make_sample,
    make_variance,
    wasserstein2,
)
from lionsderiv.estimator import _ShiftProbes
from lionsderiv.measure import _weighted_l2

finite_values = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
raw_weights = st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False)
levels = st.integers(0, 12)


@st.composite
def samples(draw, max_size=12):
    values = draw(st.lists(finite_values, min_size=1, max_size=max_size))
    if draw(st.booleans()):
        raw = draw(st.lists(raw_weights, min_size=len(values), max_size=len(values)))
        total = math.fsum(raw)
        return make_sample(values, [r / total for r in raw])
    return make_sample(values)


@st.composite
def measures(draw, max_size=5):
    atoms = draw(st.lists(finite_values, min_size=1, max_size=max_size,
                          unique=True))
    raw = draw(st.lists(raw_weights, min_size=len(atoms), max_size=len(atoms)))
    total = math.fsum(raw)
    return make_measure(atoms, [r / total for r in raw])


@given(samples(), levels)
@settings(max_examples=150, deadline=None)
def test_quantization_moves_down_and_within_cell(sample, n):
    q = dyadic_quantize(sample, n)
    # the strict per-value bound is a real-arithmetic statement: measure the
    # move exactly, since the float subtraction can round up to the bound
    cell = Fraction(2) ** -n
    for v, w in zip(sample.values, q.values):
        move = Fraction(float(v)) - Fraction(float(w))
        assert 0 <= move < cell
    assert wasserstein2(law_of(sample), law_of(q)) <= 2.0 ** -n


@given(samples(), levels)
@settings(max_examples=150, deadline=None)
def test_quantization_tower_property(sample, n):
    via_finer = dyadic_quantize(dyadic_quantize(sample, n + 1), n)
    direct = dyadic_quantize(sample, n)
    assert np.array_equal(via_finer.values, direct.values)


# Its weights do not sum to exactly 1.0, so normalizing them once more
# moves bits: a permuted copy must not be renormalized.
_RENORMALIZABLE = make_sample(
    [0.25, 0.5, 0.5, 1.0, 0.5, 1.0],
    [r / math.fsum([0.1, 0.7, 0.7, 0.3, 0.05, 0.3])
     for r in (0.1, 0.7, 0.7, 0.3, 0.05, 0.3)])


@given(samples(), levels, st.randoms(use_true_random=False))
@example(_RENORMALIZABLE, 0, random.Random(0))
@settings(max_examples=100, deadline=None)
def test_quantized_law_depends_only_on_law(sample, n, rnd):
    base = law_of(dyadic_quantize(sample, n))

    order = list(range(sample.size))
    rnd.shuffle(order)
    permuted = EmpiricalSample(sample.values[order], sample.weights[order])
    permuted_law = law_of(dyadic_quantize(permuted, n))
    assert np.array_equal(base.atoms, permuted_law.atoms)
    assert np.array_equal(base.weights, permuted_law.weights)

    # arbitrary-u split preserves the law to regrouping roundoff
    k = rnd.randrange(sample.size)
    u = rnd.uniform(0.05, 0.95)
    values = np.append(sample.values, sample.values[k])
    weights = np.array(sample.weights)
    part = weights[k] * u
    weights[k] = weights[k] - part
    weights = np.append(weights, part)
    split_law = law_of(dyadic_quantize(make_sample(values, weights), n))
    assert np.array_equal(base.atoms, split_law.atoms)
    assert np.allclose(base.weights, split_law.weights, rtol=1e-12, atol=1e-15)


@given(samples())
@settings(max_examples=100, deadline=None)
def test_law_of_is_canonical_and_idempotent(sample):
    mu = law_of(sample)
    assert np.all(mu.weights > 0)
    assert abs(math.fsum(mu.weights.tolist()) - 1.0) <= 1e-12
    if mu.n_atoms > 1:
        assert np.all(np.diff(mu.atoms) > 0)
    again = make_measure(mu.atoms, mu.weights)
    assert np.array_equal(mu.atoms, again.atoms)
    assert np.array_equal(mu.weights, again.weights)


@given(measures(), measures(), measures())
@settings(max_examples=100, deadline=None)
def test_wasserstein_triangle_inequality(a, b, c):
    assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-12


@given(measures(), measures())
@settings(max_examples=100, deadline=None)
def test_wasserstein_symmetry_and_separation(a, b):
    d = wasserstein2(a, b)
    assert d == wasserstein2(b, a) or math.isclose(d, wasserstein2(b, a), rel_tol=1e-13)
    assert wasserstein2(a, a) == 0.0
    same_support = (a.n_atoms == b.n_atoms and np.array_equal(a.atoms, b.atoms)
                    and np.array_equal(a.weights, b.weights))
    if not same_support:
        assert d >= 0.0


# ---------------------------------------------------------------------------
# one-atom shift probes: fast path and incremental evaluation
# ---------------------------------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def shift_cases(draw):
    """A canonical measure, an atom index and a signed step.

    Atoms and steps sit on the lattice k * 2^e, so shifts can cross a
    neighbour or land exactly on one; optional offsets leave the lattice.
    Atoms reach 2^514 (about 5e154), past which their squares overflow.
    """
    e = draw(st.integers(-60, 508))
    ints = draw(st.lists(st.integers(-64, 64), min_size=1, max_size=8, unique=True))
    atoms = [k * 2.0 ** e for k in sorted(ints)]
    if draw(st.booleans()):
        atoms = [a + draw(st.floats(0.0, 0.5)) * 2.0 ** e for a in atoms]
    raw = draw(st.lists(raw_weights, min_size=len(atoms), max_size=len(atoms)))
    total = math.fsum(raw)
    mu = make_measure(atoms, [r / total for r in raw])
    i = draw(st.integers(0, mu.n_atoms - 1))
    if mu.n_atoms > 1 and draw(st.booleans()):
        # onto a neighbour: exact coincidence whenever the difference is exact
        j = i - 1 if i + 1 == mu.n_atoms or (i > 0 and draw(st.booleans())) else i + 1
        step = float(mu.atoms[j] - mu.atoms[i])
    else:
        step = draw(st.integers(-130, 130)) * 2.0 ** (e - draw(st.integers(0, 3)))
    return mu, i, step


builtins = st.one_of(
    st.just(make_variance()),
    st.just(make_mean_square()),
    st.lists(st.integers(-2, 2), min_size=1, max_size=11).map(make_linear),
)


@given(shift_cases())
@settings(max_examples=300, deadline=None)
def test_shift_probe_measure_is_bitwise_make_measure(case):
    mu, i, step = case
    atoms = np.array(mu.atoms)
    atoms[i] += step
    try:
        want = make_measure(atoms, mu.weights)
    except MeasureError as exc:
        with pytest.raises(MeasureError, match=re.escape(str(exc))):
            _ShiftProbes(None, mu).measure(i, step)
        return
    got = _ShiftProbes(None, mu).measure(i, step)
    assert _bits(got.atoms) == _bits(want.atoms)
    assert _bits(got.weights) == _bits(want.weights)


@given(shift_cases(), builtins)
@settings(max_examples=300, deadline=None)
def test_shift_evaluator_is_bitwise_full_evaluation(case, f):
    mu, i, step = case
    canon = make_measure(mu.atoms, mu.weights)
    value = f.shift_evaluator(canon)
    y = float(mu.atoms[i]) + step + 0.0
    inside = (math.isfinite(y) and (i == 0 or canon.atoms[i - 1] < y)
              and (i + 1 == canon.n_atoms or y < canon.atoms[i + 1]))
    if value is None or not inside:
        return
    got = value(i, y)
    if got is None:  # declined: the probe is evaluated in full
        return
    atoms = np.array(canon.atoms)
    atoms[i] = y
    assert _bits(got) == _bits(f(DiscreteMeasure(atoms, canon.weights)))


def _reference_quotients(f, mu, i, schedule):
    """The atom-shift quotients with every probe canonicalized by
    make_measure and evaluated in full."""
    def probe(m, context):
        value = float(f(m))
        if not math.isfinite(value):
            raise ProbeFailureError(f"functional returned {value!r} at {context}")
        return value

    def shifted(eps):
        atoms = np.array(mu.atoms)
        atoms[i] += eps
        return probe(make_measure(atoms, mu.weights), f"atom {i} shifted by {eps!r}")

    x, p = float(mu.atoms[i]), float(mu.weights[i])
    if schedule.mode == "one_sided":
        base = probe(mu, "the unperturbed measure")
    quots = []
    for eps in schedule.steps(at=x):
        if schedule.mode == "one_sided":
            quots.append((shifted(eps) - base) / (eps * p))
        else:
            plus = shifted(eps)
            quots.append((plus - shifted(-eps)) / (2.0 * eps * p))
    return np.array(quots)


def _outcome(fn):
    try:
        return _bits(fn())
    except (ProbeFailureError, MeasureError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@given(shift_cases(), builtins, st.sampled_from(["central", "one_sided"]),
       st.integers(2, 4))
@settings(max_examples=300, deadline=None)
def test_shift_quotients_match_full_canonicalization(case, f, mode, count):
    mu, i, step = case
    schedule = StepSchedule(eps0=abs(step) or 1.0, ratio=0.5, count=count, mode=mode)
    want = _outcome(lambda: _reference_quotients(f, mu, i, schedule))
    got = _outcome(lambda: atom_shift_quotients(f, mu, i, schedule))
    assert got == want


# ---------------------------------------------------------------------------
# vectorised dyadic cells against the per-point loops they replaced
# ---------------------------------------------------------------------------

def _loop_quantize(values, n):
    return [math.floor(float(v) * 2.0 ** n) * 2.0 ** -n for v in values]


def _loop_g_tilde(est, xs):
    n = est.level.n
    out = []
    for x in xs:
        scaled = float(x) * 2.0 ** n
        if not math.isfinite(scaled):
            out.append(0.0)
            continue
        cell = math.floor(scaled) * 2.0 ** -n
        j = int(np.searchsorted(est.grid_atoms, cell))
        hit = j < est.grid_atoms.size and est.grid_atoms[j] == cell
        out.append(float(est.g_values[j]) if hit else 0.0)
    return out


wide_values = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@given(st.lists(wide_values, min_size=1, max_size=12), st.integers(0, 1023))
@settings(max_examples=200, deadline=None)
def test_vectorised_quantize_matches_loop(values, n):
    sample = make_sample(values)
    scaled = [float(v) * 2.0 ** n for v in sample.values]
    if not all(math.isfinite(s) for s in scaled):
        first = next(v for v, s in zip(sample.values, scaled) if not math.isfinite(s))
        with pytest.raises(MeasureError, match=re.escape(f"value {first!r} overflows")):
            dyadic_quantize(sample, n)
        return
    got = dyadic_quantize(sample, n).values
    assert _bits(got) == _bits(np.array(_loop_quantize(sample.values, n)) + 0.0)


@given(samples(), st.integers(0, 60),
       st.lists(st.one_of(finite_values, wide_values,
                          st.sampled_from([math.inf, -math.inf, math.nan, -0.0])),
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_vectorised_g_tilde_matches_loop(sample, n, xs):
    mu = law_of(dyadic_quantize(sample, n))
    est = DerivativeEstimate(QuantizationLevel(n), mu.atoms,
                             np.arange(1.0, mu.n_atoms + 1.0), np.zeros(mu.n_atoms))
    points = list(sample.values) + xs
    assert _bits(g_tilde_values(est, points)) == _bits(_loop_g_tilde(est, points))
    at_one = g_tilde_values(est, points[0])
    assert at_one.shape == () and _bits(at_one) == _bits(_loop_g_tilde(est, points[:1]))


@given(st.lists(st.tuples(raw_weights, st.one_of(wide_values, st.just(math.nan))),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_weighted_l2_matches_loop(pairs):
    weights = np.array([w for w, _ in pairs])
    d = np.array([x for _, x in pairs])
    loop = math.sqrt(max(math.fsum(float(w) * float(x) * float(x)
                                   for w, x in zip(weights, d)), 0.0))
    assert _bits(_weighted_l2(weights, d)) == _bits(loop)
