"""Hypothesis invariants for the measure layer, the quantizer, the cell
lookup, the weighted-L2 helper, exact sums on arrays, the one-atom shift
probes and the closed forms on arrays."""

import math
import os
import random
import re
import tempfile
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
    SampleFormatError,
    StepSchedule,
    atom_shift_quotients,
    convergence_study,
    dyadic_quantize,
    g_tilde_values,
    law_of,
    lions_derivative_grid,
    make_interaction,
    make_linear,
    make_mean_square,
    make_measure,
    make_sample,
    make_variance,
    read_sample_file,
    refine_until_converged,
    wasserstein2,
)
from lionsderiv import measure
from lionsderiv.estimator import STEP_FLOOR, _mass_moved
from lionsderiv.functionals import _resums
from lionsderiv.measure import (_certified_sum, _exact_parts, _exact_sum, _split_sum,
                               _weighted_l2)

from conftest import SORTED_RENORMALIZABLE, examples

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
@example(make_sample(*SORTED_RENORMALIZABLE), 2, random.Random(0))
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
    assert mu.atoms.tobytes() == again.atoms.tobytes()
    assert mu.weights.tobytes() == again.weights.tobytes()


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
def lattice_measures(draw):
    """A canonical measure and the exponent e of its lattice.

    Atoms sit on the lattice k * 2^e, so shifts can cross a neighbour or
    land exactly on one; optional offsets leave the lattice.  Atoms reach
    2^514 (about 5e154), past which their squares overflow.
    """
    e = draw(st.integers(-60, 508))
    ints = draw(st.lists(st.integers(-64, 64), min_size=1, max_size=8, unique=True))
    atoms = [k * 2.0 ** e for k in sorted(ints)]
    if draw(st.booleans()):
        atoms = [a + draw(st.floats(0.0, 0.5)) * 2.0 ** e for a in atoms]
    raw = draw(st.lists(raw_weights, min_size=len(atoms), max_size=len(atoms)))
    total = math.fsum(raw)
    return make_measure(atoms, [r / total for r in raw]), e


@st.composite
def lattice_shifts(draw, mu, e):
    """An atom index of ``mu`` and a signed step on its lattice, often
    exactly onto a neighbour."""
    i = draw(st.integers(0, mu.n_atoms - 1))
    if mu.n_atoms > 1 and draw(st.booleans()):
        # onto a neighbour: exact coincidence whenever the difference is exact
        j = i - 1 if i + 1 == mu.n_atoms or (i > 0 and draw(st.booleans())) else i + 1
        return i, float(mu.atoms[j] - mu.atoms[i])
    return i, draw(st.integers(-130, 130)) * 2.0 ** (e - draw(st.integers(0, 3)))


@st.composite
def shift_cases(draw):
    """A canonical measure, an atom index and a signed step."""
    mu, e = draw(lattice_measures())
    return (mu, *draw(lattice_shifts(mu, e)))


small_coefficients = st.lists(st.integers(-2, 2), min_size=1, max_size=11)
builtins = st.one_of(
    st.just(make_variance()),
    st.just(make_mean_square()),
    small_coefficients.map(make_linear),
    small_coefficients.map(make_interaction),
)


_QUARTER_THREE_QUARTERS = make_measure([0.0, 1.0], [0.25, 0.75])


@given(shift_cases())
@example((_QUARTER_THREE_QUARTERS, 0, 1.0))  # onto the neighbour: they merge
@example((_QUARTER_THREE_QUARTERS, 0, 2.0))  # past the neighbour
@settings(max_examples=examples(300), deadline=None)
def test_shift_probe_measure_is_bitwise_make_measure(case):
    # The estimator's full probe of a shift moves the atom's whole mass:
    # the canonical form of mu with that atom moved, also where it merges
    # with or crosses a neighbour.  Inside its gap that is mu with the atom
    # moved and the same weights, which the shift evaluator's values are
    # defined on.
    mu, i, step = case
    canon = make_measure(mu.atoms, mu.weights)
    atoms = np.array(canon.atoms)
    atoms[i] = atoms[i] + step + 0.0
    got = _mass_moved(mu, i, 1.0, step)
    want = make_measure(atoms, canon.weights)
    assert _bits(got.atoms) == _bits(want.atoms)
    assert _bits(got.weights) == _bits(want.weights)
    if ((i == 0 or atoms[i - 1] < atoms[i])
            and (i + 1 == mu.n_atoms or atoms[i] < atoms[i + 1])):
        assert _bits(got.atoms) == _bits(atoms)
        assert _bits(got.weights) == _bits(canon.weights)


@st.composite
def shift_batches(draw):
    """A canonical measure and up to a dozen one-atom shifts of it, atoms
    in any order and repeated."""
    mu, e = draw(lattice_measures())
    return mu, draw(st.lists(lattice_shifts(mu, e), min_size=1, max_size=12))


@given(shift_batches(), builtins)
@settings(max_examples=300, deadline=None)
def test_shift_evaluator_is_bitwise_full_evaluation(batch, f):
    mu, shifts = batch
    canon = make_measure(mu.atoms, mu.weights)
    probes = []
    for i, step in shifts:
        y = float(canon.atoms[i]) + step + 0.0
        if (math.isfinite(y) and (i == 0 or canon.atoms[i - 1] < y)
                and (i + 1 == canon.n_atoms or y < canon.atoms[i + 1])):
            probes.append((i, y))
    if not probes:
        return
    indices, positions = (np.array(column) for column in zip(*probes))
    got = f.shift_evaluator(canon, indices, positions)
    assert got.dtype == float and got.shape == indices.shape
    for (i, y), value in zip(probes, got.tolist()):
        if math.isnan(value):  # declined: the probe is evaluated in full
            continue
        atoms = np.array(canon.atoms)
        atoms[i] = y
        assert _bits(value) == _bits(f(DiscreteMeasure(atoms, canon.weights)))


def _reference_steps(schedule, at):
    """The schedule's steps at one position, in Python floats, raised as a
    whole where the smallest would fall below the cancellation floor."""
    last = schedule.ratio ** (schedule.count - 1)
    floor = STEP_FLOOR * max(1.0, abs(at))
    eps0 = floor / last if schedule.eps0 * last < floor else schedule.eps0
    return tuple(eps0 * schedule.ratio ** k for k in range(schedule.count))


def _reference_quotients(f, mu, i, schedule):
    """The atom-shift quotients with every probe canonicalized by
    make_measure and evaluated in full, one atom and one probe at a time."""
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
    steps = _reference_steps(schedule, x)
    if not all(math.isfinite(eps) for eps in steps):
        raise ProbeFailureError(f"the steps {steps!r} are not all finite")
    one_sided = schedule.mode == "one_sided"
    if 0.0 in [(eps if one_sided else 2.0 * eps) * p for eps in steps]:
        raise ProbeFailureError(f"a step times the weight {p!r} underflows to 0")
    if one_sided:
        base = probe(mu, "the unperturbed measure")
    quots = []
    for eps in steps:
        if one_sided:
            quots.append((shifted(eps) - base) / (eps * p))
        else:
            plus = shifted(eps)
            quots.append((plus - shifted(-eps)) / (2.0 * eps * p))
    return np.array(quots)


def _reference_richardson(quotients, ratio, order0, order_step):
    """Triangular extrapolation in Python floats; (value, |last increment|)."""
    col = [float(q) for q in quotients]
    m = len(col) - 1
    r = 1.0 / ratio
    for stage in range(1, m + 1):
        factor = r ** (order0 + (stage - 1) * order_step)
        before_last = col[m]
        for k in range(m, stage - 1, -1):
            col[k] = (factor * col[k] - col[k - 1]) / (factor - 1.0)
    return col[m], abs(col[m] - before_last)


def _reference_floor_reaches_neighbour(schedule, mu, i):
    """Whether the floor raised atom i's steps onto a neighbour the
    probes shift towards."""
    eps = _reference_steps(schedule, float(mu.atoms[i]))[0]
    if eps == schedule.eps0:
        return False
    gaps = [float(mu.atoms[k + 1]) - float(mu.atoms[k])
            for k in range(max(i - 1, 0) if schedule.mode == "central" else i,
                           min(i + 1, mu.n_atoms - 1))]
    return eps >= min(gaps, default=math.inf)


def _reference_grid(f, sample, level, schedule):
    """lions_derivative_grid one atom at a time on the reference probes."""
    mu = law_of(dyadic_quantize(sample, level))
    g = np.full(mu.n_atoms, math.nan)
    err = np.full(mu.n_atoms, math.nan)
    orders = (2, 2) if schedule.mode == "central" else (1, 1)
    for i in range(mu.n_atoms):
        if _reference_floor_reaches_neighbour(schedule, mu, i):
            continue
        try:
            quots = _reference_quotients(f, mu, i, schedule)
        except ProbeFailureError:
            continue
        value, error = _reference_richardson(quots, schedule.ratio, *orders)
        if math.isfinite(value) and math.isfinite(error):
            g[i], err[i] = value, error
    return g, err, tuple(np.flatnonzero(np.isnan(g)).tolist())


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


@st.composite
def grid_cases(draw):
    """A sample, a level and a schedule: values on the lattice k * 2^e, or
    pairs in adjacent level-n cells, near the origin or far from it, with
    steps that stay in their gaps, reach a neighbour, or are raised by the
    cancellation floor."""
    n = draw(st.integers(0, 12))
    cell = 2.0 ** -n
    ints = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):  # near-coincident: neighbours one cell apart
        ints = sorted({k + d for k in ints[:4] for d in (0, 1)})
    scale = draw(st.sampled_from([1.0, 1.0, 2.0 ** 40, 2.0 ** 500]))
    values = [k * cell * scale for k in ints]
    raw = draw(st.lists(raw_weights, min_size=len(values), max_size=len(values)))
    total = math.fsum(raw)
    schedule = StepSchedule(
        eps0=draw(st.sampled_from([cell / 8, cell, 3 * cell, 1e-15])) * scale,
        ratio=draw(st.sampled_from([0.5, 0.3, 0.125])),
        count=draw(st.integers(2, 4)),
        mode=draw(st.sampled_from(["central", "one_sided"])))
    return make_sample(values, [r / total for r in raw]), n, schedule


def _grid_outcome(fn):
    try:
        g, err, failed = fn()
    except (ProbeFailureError, MeasureError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return _bits(g), _bits(err), failed


def _grid(f, sample, n, schedule):
    est = lions_derivative_grid(f, sample, n, schedule)
    return est.g_values, est.error_estimates, est.failed_atoms


@given(grid_cases(), builtins)
@settings(max_examples=300, deadline=None)
def test_grid_matches_one_atom_at_a_time_reference(case, f):
    sample, n, schedule = case
    want = _grid_outcome(lambda: _reference_grid(f, sample, n, schedule))
    assert _grid_outcome(lambda: _grid(f, sample, n, schedule)) == want


# ---------------------------------------------------------------------------
# vectorised dyadic cells and merging against the loops they replaced
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
        first = next(v for v, s in zip(sample.values.tolist(), scaled) if not math.isfinite(s))
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
    est = DerivativeEstimate(QuantizationLevel(n), mu, StepSchedule(),
                             np.arange(1.0, mu.n_atoms + 1.0), np.zeros(mu.n_atoms))
    points = list(sample.values) + xs
    assert _bits(g_tilde_values(est, points)) == _bits(_loop_g_tilde(est, points))
    at_one = g_tilde_values(est, points[0])
    assert at_one.shape == () and _bits(at_one) == _bits(_loop_g_tilde(est, points[:1]))


def _loop_make_measure(atoms, weights):
    """make_measure's former merge loop: sorted atoms grouped one by one.
    The merged weights are divided by their sum unless it equals the
    input's and lies within 1e-12 of 1."""
    total = math.fsum(weights.tolist())
    order = np.argsort(atoms, kind="stable")
    a, w = atoms[order], weights[order]
    merged_atoms, merged_weights = [], []
    i = 0
    while i < a.size:
        j = i + 1
        while j < a.size and a[j] == a[i]:
            j += 1
        mass = math.fsum(w[i:j].tolist())
        if mass > 0.0:
            merged_atoms.append(float(a[i]))
            merged_weights.append(mass)
        i = j
    mw = np.array(merged_weights)
    merged_total = math.fsum(merged_weights)
    if merged_total != total or abs(merged_total - 1.0) > 1e-12:
        mw = mw / merged_total
    return np.array(merged_atoms), mw


@given(st.lists(st.tuples(st.integers(-4, 4), st.one_of(st.just(0.0), raw_weights)),
                min_size=1, max_size=16).filter(lambda ps: any(w for _, w in ps)))
@settings(max_examples=examples(200), deadline=None)
def test_vectorised_merge_matches_loop(pairs):
    atoms = np.array([k * 0.375 for k, _ in pairs])
    raw = np.array([w for _, w in pairs])
    weights = raw / math.fsum(raw.tolist())
    got = make_measure(atoms, weights)
    want_atoms, want_weights = _loop_make_measure(atoms, weights)
    assert _bits(got.atoms) == _bits(want_atoms)
    assert _bits(got.weights) == _bits(want_weights)


@st.composite
def atom_lists(draw):
    """Atoms, distinct or at times drawn from a few values so that some
    merge, with weights that sum to 1 within rounding, at times all equal."""
    atoms = draw(st.one_of(
        st.lists(st.one_of(finite_values, wide_values), min_size=1, max_size=12, unique=True),
        st.lists(st.sampled_from([-1e300, -0.5, 0.0, 0.375, 3.0]), min_size=1, max_size=12)))
    raw = draw(st.one_of(st.lists(raw_weights, min_size=len(atoms), max_size=len(atoms)),
                         raw_weights.map(lambda r: [r] * len(atoms))))
    return atoms, [r / math.fsum(raw) for r in raw]


@given(atom_lists())
@example(([1.0, 0.0, 2.0], [1 / 3] * 3))
@example(([1.0, 0.0], [0.5, 0.5 + 2e-10]))  # renormalized
@example(([0.0, 0.0, 1.0, 1.0, 2.0],  # merges round: renormalized
          [0.19034218292452224, 0.35205778307801294, 0.18469247567713593,
           0.24083819399326362, 0.032069364327065246]))
@settings(max_examples=examples(200), deadline=None)
def test_make_measure_of_distinct_atoms_is_the_validated_measure(case):
    atoms, weights = case
    got = make_measure(atoms, weights)
    want = DiscreteMeasure(*_loop_make_measure(np.array(atoms), np.array(weights)))
    assert _bits(got.atoms) == _bits(want.atoms)
    assert _bits(got.weights) == _bits(want.weights)
    checked = DiscreteMeasure(got.atoms, got.weights)  # meets every invariant
    assert _bits(checked.weights) == _bits(got.weights)
    for arr in (got.atoms, got.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


@given(st.lists(st.tuples(raw_weights, st.one_of(wide_values, st.just(math.nan))),
                min_size=1, max_size=12))
@example([(1.0, 1.3e154), (1.0, 1.3e154), (1.0, math.nan)])
@settings(max_examples=200, deadline=None)
def test_weighted_l2_matches_loop(pairs):
    weights = np.array([w for w, _ in pairs])
    d = np.array([x for _, x in pairs])
    try:
        total = math.fsum(float(w) * float(x) * float(x) for w, x in zip(weights, d))
    except OverflowError:  # terms >= 0 overflowed: inf, unless a NaN is among them
        total = math.nan if np.isnan(d).any() else math.inf
    assert _bits(_weighted_l2(weights, d)) == _bits(math.sqrt(max(total, 0.0)))


def test_weighted_l2_of_an_overflowing_sum_is_inf():
    assert _weighted_l2(np.array([0.5, 0.5]), np.array([-1.4e154, 1.4e154])) == math.inf


# ---------------------------------------------------------------------------
# exact sums on arrays against math.fsum over Python floats
# ---------------------------------------------------------------------------

_SPECIAL_TERMS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308)


@st.composite
def term_arrays(draw):
    """0..4096 terms: seeded bulk terms k * 2^e with exponents drawn from a
    subrange of -1074..1023, optionally with cancelling pairs, plus a few
    arbitrary floats (subnormals, signed zeros, huge values, inf and NaN)."""
    size = draw(st.integers(0, 4096))
    lo = draw(st.integers(-1074, 1023))
    hi = draw(st.integers(lo, min(lo + draw(st.integers(0, 2100)), 1023)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bulk = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(lo, hi + 1, size))
    if draw(st.booleans()):
        bulk = np.concatenate((bulk, -bulk[: draw(st.integers(0, size))]))
    extra = draw(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_TERMS)),
                          max_size=8))
    terms = np.concatenate((bulk, np.array(extra, dtype=float)))
    rng.shuffle(terms)
    return terms


def _fsum_or_nan(terms):
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.nan


@given(term_arrays())
@settings(max_examples=examples(200), deadline=None)
def test_exact_sum_is_fsum_or_nan_bit_for_bit(terms):
    want = _fsum_or_nan(terms.tolist())
    assert _bits(_exact_sum(terms)) == _bits(want)
    partials = _exact_parts(terms)
    if partials is not None:  # every term finite, far below the overflow threshold
        assert _bits(math.fsum(partials)) == _bits(want)
        assert all(partials) and len(partials) <= 40
        # the first two terms swapped for copies of the next two
        (resummed,) = _resums(partials, [[-t for t in terms[:2].tolist()] + terms[2:4].tolist()])
        assert math.isfinite(resummed)
        assert _bits(resummed) == _bits(math.fsum(terms[2:].tolist() + terms[2:4].tolist()))


def _reference_partials(terms, count=None):
    """The partials of the exact sum of ``terms`` one fsum at a time over
    Python floats, largest first; None where a term is not finite or
    frexp(max |t|)[1] + bitlen(count) > 1020, ``count`` defaulting to the
    number of terms."""
    rest = terms.tolist()
    count = len(rest) if count is None else count
    if not all(math.isfinite(t) for t in rest):
        return None
    if math.frexp(max(map(abs, rest), default=0.0))[1] + count.bit_length() > 1020:
        return None
    partials = []
    while p := math.fsum(rest):
        partials.append(p)
        rest.append(-p)
    return partials


@given(term_arrays(), st.one_of(st.none(), st.integers(1, 2 ** 40)))
@settings(max_examples=examples(200), deadline=None)
def test_exact_parts_are_the_partials_of_fsum(terms, extra):
    count = None if extra is None else terms.size + extra
    assert _exact_parts(terms, count) == _reference_partials(terms, count)


def _wide(seed, size, lo, hi):
    rng = np.random.default_rng(seed)
    return np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(lo, hi + 1, size))


def _count_rounds(monkeypatch):
    rounds = []

    def extract(*args):
        rounds.append(1)
        return real(*args)

    real = measure._extract
    monkeypatch.setattr(measure, "_extract", extract)
    return rounds


@pytest.mark.parametrize("terms, min_rounds", [
    (_wide(0, 4096, -1000, 1000), 30),  # exponents over about 2000 binary orders
    (_wide(1, 600, -1074, 1000), 30),
    (_wide(2, 64, -1074, -1050), 1),  # subnormals only: one exact round
    (_wide(3, 4096, -1074, -1000), 2),  # a round above 2^-1021, then an exact one
    (np.concatenate((_wide(4, 100, 0, 10), _wide(5, 100, -1074, -1060))), 2),
], ids=["span2000", "span2074", "subnormal", "subnormal-round", "normal-and-tail"])
def test_exact_parts_over_many_rounds_and_the_subnormal_tail(terms, min_rounds, monkeypatch):
    rounds = _count_rounds(monkeypatch)
    parts = _exact_parts(terms)
    assert parts and parts == _reference_partials(terms)
    assert len(rounds) >= min_rounds


@pytest.mark.parametrize("top, count, fits", [
    (1.5 * 2.0 ** 1017, None, True),  # 1018 + bitlen(3) = 1020
    (1.5 * 2.0 ** 1018, None, False),  # 1021
    (1.5 * 2.0 ** 1009, 1023, True),  # 1010 + bitlen(1023) = 1020
    (1.5 * 2.0 ** 1009, 1024, False),  # 1021
])
def test_exact_parts_overflow_rule_at_its_boundary(top, count, fits):
    terms = np.array([top, -3.0, 2.0 ** -60])
    assert _exact_parts(terms, count) == _reference_partials(terms, count)
    assert (_exact_parts(terms, count) is not None) == fits
    assert (_split_sum(terms, count) is not None) == fits


def _split_ties(head, k):
    """``head`` then 2^-53 split into 2^k equal terms: an exact sum halfway
    between two floats, which fsum rounds to the even one."""
    return np.concatenate(([head], np.full(2 ** k, 2.0 ** -53 / 2 ** k)))


def _cancelling(seed, size):
    """[x.sum(), *-x]: the exact sum is the rounding error of x.sum(), far
    below every term."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-20, 20, size))
    return np.concatenate(([x.sum()], -x))


@pytest.mark.parametrize("terms", [
    _split_ties(1.0, 0), _split_ties(1.0, 3), _split_ties(1.0, 10),  # rounds down to 1
    _split_ties(1.0 + 2.0 ** -52, 0), _split_ties(1.0 + 2.0 ** -52, 10),  # rounds up
    _cancelling(1, 10), _cancelling(2, 1000), _cancelling(3, 4096),
], ids=lambda terms: f"{terms.size}terms")
def test_exact_sum_where_the_certificate_declines_is_fsum(terms):
    # Ties and sums far below their terms leave the rounding to the exact
    # parts; the certified split sum must not answer.
    part = _split_sum(terms)
    assert part is not None and _certified_sum([part]) is None
    assert _bits(_exact_sum(terms)) == _bits(math.fsum(terms.tolist()))


# ---------------------------------------------------------------------------
# closed forms on arrays against the per-point scalar code they replaced
# ---------------------------------------------------------------------------

def _horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _loop_analytic_g(f, mu, xs):
    """g(mu, x) one point at a time in Python floats, as the built-ins
    computed it before they took arrays."""
    coeffs = f.params.get("phi", f.params.get("w", ()))
    d = [j * c for j, c in enumerate(coeffs) if j > 0] or [0.0]
    m = math.fsum(float(p) * float(a) for p, a in zip(mu.weights, mu.atoms))
    out = []
    for x in xs:
        if f.name == "variance":
            out.append(2.0 * x - 2.0 * m)
        elif f.name == "mean_square":
            out.append(2.0 * m)
        elif f.name == "linear":
            out.append(_horner(d, x))
        else:
            terms = [float(p) * (_horner(d, x - float(a)) - _horner(d, float(a) - x))
                     for p, a in zip(mu.weights, mu.atoms)]
            try:
                out.append(math.fsum(terms))
            except ValueError:  # +inf and -inf terms: no exact sum
                out.append(math.nan)
    return out


@given(measures(),
       st.one_of(st.just(make_variance()), st.just(make_mean_square()),
                 small_coefficients.map(make_linear),
                 small_coefficients.map(make_interaction)),
       st.lists(st.one_of(finite_values, wide_values), max_size=12))
@settings(max_examples=300, deadline=None)
def test_analytic_g_on_arrays_matches_scalar_loop(mu, f, xs):
    got = f.analytic_g(mu, np.array(xs, dtype=float))
    assert got.shape == (len(xs),)
    assert _bits(got) == _bits(np.array(_loop_analytic_g(f, mu, xs), dtype=float))


# ---------------------------------------------------------------------------
# interaction against fsum over the full M x M matrix of scalar terms
# ---------------------------------------------------------------------------

def _reference_interaction(coeffs, mu):
    """fsum over the terms (p_j*p_k) * w(x_j - x_k) of the whole matrix, row
    by row, in Python floats; NaN where fsum raises."""
    atoms, weights = mu.atoms.tolist(), mu.weights.tolist()
    return _fsum_or_nan([(pj * pk) * _horner(coeffs, xj - xk)
                         for xj, pj in zip(atoms, weights)
                         for xk, pk in zip(atoms, weights)])


def _only(parity):
    return lambda coeffs: [c if k % 2 == parity else 0 for k, c in enumerate(coeffs)]


# Integers, and floats with fractions, between -2 and 2; zeros of either sign.
fractional_coefficients = st.lists(
    st.one_of(st.integers(-2, 2), st.just(-0.0), st.floats(-2.0, 2.0, allow_nan=False)),
    min_size=1, max_size=11)

interaction_kernels = st.one_of(
    small_coefficients,
    fractional_coefficients,
    small_coefficients.map(_only(0)),  # even kernels: w(-u) == w(u)
    small_coefficients.map(_only(1)),  # odd kernels: w(-u) == -w(u)
    fractional_coefficients.map(_only(0)),
    fractional_coefficients.map(_only(1)),
    small_coefficients.map(lambda coeffs: [c * 1e300 for c in coeffs]),
)


@st.composite
def wide_measures(draw, max_size=9):
    """Atoms anywhere up to 1e308, so differences and terms can overflow;
    at times with equal weights, such as 1/3, before any merge."""
    atoms = draw(st.lists(st.one_of(finite_values, st.floats(-1e308, 1e308)),
                          min_size=1, max_size=max_size))
    raw = draw(st.one_of(st.lists(raw_weights, min_size=len(atoms), max_size=len(atoms)),
                         raw_weights.map(lambda r: [r] * len(atoms))))
    total = math.fsum(raw)
    return make_measure(atoms, [r / total for r in raw])


def _calls_inside(f, mu, name):
    """f(mu), and (arguments, result) of each call of ``measure.<name>``
    during it, and only then."""
    calls = []
    real = getattr(measure, name)

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measure, name, recorded)
        value = f(mu)
    return value, calls


def _certificates(f, mu):
    """f(mu), and per certificate that evaluation asked for, whether the
    certified split sum answered (True) or the exact parts did (False)."""
    value, calls = _calls_inside(f, mu, "_certified_sum")
    return value, [total is not None for _, total in calls]


HALF_HALF = make_measure([0.0, 1.0], [0.5, 0.5])


@given(wide_measures(), interaction_kernels)
@example(HALF_HALF, [0.1, 0.2, 0.5])  # mixed: certified
@example(HALF_HALF, [0, 1, 0, -0.25])  # odd: certified 0
@example(HALF_HALF, [-0.25, 0, 0.5])  # the terms sum to 0 exactly: exact parts
@example(HALF_HALF, [-0.25, 0.5, 0.5])  # the same with an odd part: exact parts
@example(make_measure([-1e308, 1e308], [0.5, 0.5]), [1.0])  # 0 * inf + 1 is NaN
@settings(max_examples=examples(400), deadline=None)
def test_interaction_is_fsum_over_the_full_matrix(mu, coeffs):
    assert _bits(make_interaction(coeffs)(mu)) == _bits(_reference_interaction(coeffs, mu))


@pytest.mark.parametrize("coeffs", [[0, 0, 1e307], [0, 1e307], [1e300, -1e307, 1e307], [1e308]])
@pytest.mark.parametrize("gap", [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.8, 1.5, 4.2, 4.3, 6.0])
@pytest.mark.parametrize("n_atoms", [2, 3, 5])
def test_interaction_near_the_overflow_threshold_is_fsum_or_nan(coeffs, gap, n_atoms):
    # The largest terms go from below the 2^1020 bound of the exact parts,
    # counted over all M^2 terms, to past the float range.
    mu = make_measure([k * gap for k in range(n_atoms)], [1 / n_atoms] * n_atoms)
    assert _bits(make_interaction(coeffs)(mu)) == _bits(_reference_interaction(coeffs, mu))


def _seeded_measure(n_atoms, equal_weights=False):
    rng = np.random.default_rng(n_atoms)
    raw = rng.uniform(0.05, 1.0, n_atoms)
    weights = [1 / n_atoms] * n_atoms if equal_weights else raw / math.fsum(raw.tolist())
    return make_measure(rng.uniform(-2.0, 2.0, n_atoms), weights)


@pytest.mark.parametrize("n_atoms", [600, 601])
@pytest.mark.parametrize("equal_weights", [False, True])
@pytest.mark.parametrize("coeffs", [[0, 0, 0.5], [0, 1, 0, -0.25], [0.1, 0.2, 0.5]])
def test_interaction_over_many_pair_blocks_is_fsum_over_the_full_matrix(
        coeffs, equal_weights, n_atoms):
    mu = _seeded_measure(n_atoms, equal_weights)
    assert np.all(mu.weights == mu.weights[0]) == equal_weights
    value, answered = _certificates(make_interaction(coeffs), mu)
    assert _bits(value) == _bits(_reference_interaction(coeffs, mu))
    assert answered == [True]


@pytest.mark.parametrize("n_atoms", [2, 33, 600, 601])
@pytest.mark.parametrize("equal_weights", [False, True])
def test_interaction_of_an_odd_kernel_split_sums_only_the_diagonal(
        n_atoms, equal_weights):
    # Each pair's swapped term cancels its term, so a block of pair terms
    # needs only the check that its terms are finite and far from overflow.
    mu = _seeded_measure(n_atoms, equal_weights)
    coeffs = [0, 1, 0, -0.25]
    value, calls = _calls_inside(make_interaction(coeffs), mu, "_split_sum")
    assert _bits(value) == _bits(_reference_interaction(coeffs, mu))
    assert [terms.size for (terms, *_), _ in calls] == [n_atoms]


@pytest.mark.parametrize("n_atoms", [2, 33, 600, 601])
@pytest.mark.parametrize("odd", [0.0, 1e-3])
def test_interaction_where_the_certificate_declines_is_fsum_over_the_full_matrix(
        n_atoms, odd):
    # w(u) = u^2 / 2 + odd * u - Var(mu): the M x M terms sum to about 0,
    # far below the bound on the split sums' error, so the exact parts
    # decide the rounding.
    mu = _seeded_measure(n_atoms)
    coeffs = [-make_variance()(mu), odd, 0.5]
    value, answered = _certificates(make_interaction(coeffs), mu)
    assert _bits(value) == _bits(_reference_interaction(coeffs, mu))
    assert answered == [False]


# ---------------------------------------------------------------------------
# the sample file reader
# ---------------------------------------------------------------------------

def _reference_reader(path: str) -> EmpiricalSample:
    """The line-by-line sample reader the one-pass reader replaced: the
    definition of the format it must match."""
    values, weights, weighted = [], [], None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SampleFormatError(f"cannot read sample file: {exc}", path=str(path))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (1, 2):
            raise SampleFormatError(f"expected `value` or `value,weight`, got {line!r}",
                                    path=str(path), line=lineno)
        has_weight = len(fields) == 2
        if weighted is None:
            weighted = has_weight
        elif weighted != has_weight:
            raise SampleFormatError("mixing weighted and unweighted records",
                                    path=str(path), line=lineno)
        try:
            v = float(fields[0])
        except ValueError:
            raise SampleFormatError(f"not a number: {fields[0]!r}",
                                    path=str(path), line=lineno) from None
        if not math.isfinite(v):
            raise SampleFormatError(f"value must be finite, got {fields[0]!r}",
                                    path=str(path), line=lineno)
        values.append(v)
        if has_weight:
            try:
                w = float(fields[1])
            except ValueError:
                raise SampleFormatError(f"not a number: {fields[1]!r}",
                                        path=str(path), line=lineno) from None
            if not math.isfinite(w) or w <= 0:
                raise SampleFormatError(
                    f"weight must be finite and positive, got {fields[1]!r}",
                    path=str(path), line=lineno)
            weights.append(w)
    if not values:
        raise SampleFormatError("no records found", path=str(path), line=1)
    try:
        return make_sample(values, weights if weighted else None)
    except MeasureError as exc:
        raise SampleFormatError(str(exc), path=str(path)) from exc


def _read_outcome(read, path):
    """The sample's bits, or the error's text and line."""
    try:
        s = read(path)
    except SampleFormatError as exc:
        return str(exc), exc.line
    return s.values.tobytes(), s.weights.tobytes()


# Tokens where numpy's parse and float() part, or the format's checks bite.
EDGE_TOKENS = ["1_0", "١", "inf", "-inf", "1e400", "nan", "-0.0", "0", "-0.5", "",
               "abc", "1.0 # x", "0x10", "\ufeff1", "1d0", "+.5", "1e", "1\x00",
               "Infinity", "1.0 ", "1.0 x"]
PADDING = st.text(st.sampled_from(" \t\x0b\x0c\xa0\u2000\u3000"), max_size=2)
finite_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.floats(-1e6, 1e6), st.integers(0, 20)).map(lambda t: f"{t[0]:.{t[1]}e}"))
any_tokens = st.one_of(st.floats().map(repr), finite_tokens, st.sampled_from(EDGE_TOKENS))


FILLER_LINES = ["", "   ", "\t", "# note", "  # note", "\xa0#", "#,1,2"]
# A file longer than one 8 KiB read, after a comment line.
LONG_RECORDS = "# header\n" + "".join(f"{k / 1024!r}\n" for k in range(4000))


@st.composite
def sample_files(draw):
    """Sample files, half of them well formed; padding around fields, and
    blank and comment lines, leading ones too, in any of them."""
    n = draw(st.integers(1, 8))
    weighted, clean = draw(st.booleans()), draw(st.booleans())
    tokens = finite_tokens if clean else any_tokens
    weight = repr(1.0 / n)
    lines = draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2))
    for _ in range(n):
        fields = [draw(tokens)]
        if weighted:
            fields.append(weight if clean else draw(st.one_of(st.just(weight), tokens)))
        if not clean and draw(st.integers(0, 9)) == 0:  # a stray field, or a missing one
            fields = fields[:-1] if len(fields) == 2 else fields + [weight]
        lines.append(",".join(draw(PADDING) + f + draw(PADDING) for f in fields))
        if draw(st.integers(0, 19 if clean else 4)) == 0:
            lines.append(draw(st.sampled_from(FILLER_LINES)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (ending.join(lines) + draw(st.sampled_from([ending, ""]))).encode()
    if not clean and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xef\xbb\xbf"])) + data[at:]
    return data


@given(sample_files())
@example(b"0.5\n1.0 # x\n")
@example(b"1_0\n\xd9\xa1\n")
@example(b"abc\n0.5\n\xff\n")
@example(b"0.25,0.5\r\n  # c\n\n0.75,0.5")
@example(LONG_RECORDS.encode())
@example(LONG_RECORDS.encode() + b"# late\n")
@example(LONG_RECORDS.encode() + b"\xff\n")
@settings(max_examples=examples(300), deadline=None)
def test_reader_matches_the_line_by_line_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        assert _read_outcome(read_sample_file, path) == _read_outcome(_reference_reader, path)


# ---------------------------------------------------------------------------
# refinement and study under permutations of the sample
# ---------------------------------------------------------------------------

@st.composite
def permuted_samples(draw):
    """A sample with repeated values and zeros of both signs, and the same
    records in another order."""
    values = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0]),
                                     finite_values), min_size=1, max_size=10))
    raw = draw(st.one_of(st.none(), st.lists(raw_weights, min_size=len(values),
                                             max_size=len(values))))
    sample = make_sample(values, None if raw is None else [r / math.fsum(raw) for r in raw])
    order = draw(st.permutations(range(sample.size)))
    return sample, EmpiricalSample(sample.values[order], sample.weights[order])


PERMUTATION_FUNCTIONALS = [make_variance(), make_linear([0.0, 1.0, 0.5, 0.25]),
                           make_interaction([0.0, 0.0, 0.5])]


def _refinement_bits(f, sample):
    est, report = refine_until_converged(f, sample, 1e-3, n_min=0, n_max=6)
    return (est.level.n, est.law.atoms.tobytes(), est.law.weights.tobytes(),
            est.g_values.tobytes(), est.error_estimates.tobytes(), repr(report))


@given(permuted_samples(), st.sampled_from(PERMUTATION_FUNCTIONALS))
@settings(max_examples=examples(100), deadline=None)
def test_refinement_and_study_are_permutation_invariant(case, f):
    sample, permuted = case
    assert _refinement_bits(f, sample) == _refinement_bits(f, permuted)
    assert (repr(convergence_study(f, sample, range(0, 5)))
            == repr(convergence_study(f, permuted, range(0, 5))))
