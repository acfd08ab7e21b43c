"""Atom-shift derivatives, grids, refinement, moved mass, directions.

Oracle checklist:
- One-sided quotient on variance at (1/2) d_0 + (1/2) d_1, atom 1: hand
  expansion gives exactly (2 + eps)/2 per step, limit 1.
- Grid values against closed forms from the functionals module.
- Directional derivatives against the weighted pairing sum with the closed
  form, computed inline.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from lionsderiv import (
    DerivativeEstimate,
    Direction,
    DiscreteMeasure,
    EstimatorError,
    Functional,
    MeasureError,
    ProbeFailureError,
    QuantizationLevel,
    StepSchedule,
    atom_shift_quotients,
    directional_derivative,
    dyadic_quantize,
    g_tilde_values,
    law_of,
    lions_derivative_at_atom,
    lions_derivative_grid,
    make_interaction,
    make_linear,
    make_measure,
    make_mean_square,
    make_sample,
    make_variance,
    partial_mass_perturbation,
    refine_until_converged,
)

from conftest import random_measure, random_sample, recorded_law

HALF_HALF = make_measure([0.0, 1.0], [0.5, 0.5])
VARIANCE = make_variance()


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_defaults_and_steps():
    sched = StepSchedule()
    assert sched.steps() == (0.125, 0.0625, 0.03125, 0.015625)
    assert StepSchedule.for_level(3).eps0 == 2.0 ** -3 / 8.0


def test_schedule_validation():
    with pytest.raises(EstimatorError):
        StepSchedule(eps0=0.0)
    with pytest.raises(EstimatorError):
        StepSchedule(ratio=1.0)
    with pytest.raises(EstimatorError):
        StepSchedule(count=1)
    with pytest.raises(EstimatorError):
        StepSchedule(mode="sideways")


@pytest.mark.parametrize("ratio, count", [(1e-200, 4), (0.5, 1100), (0.5, 10 ** 400)])
def test_schedule_rejects_a_ratio_power_that_underflows(ratio, count):
    # steps() divides by ratio ** (count - 1)
    with pytest.raises(EstimatorError, match="underflow"):
        StepSchedule(ratio=ratio, count=count)


# Values of a wrong type: each raised TypeError or OverflowError here once.
WRONG_TYPES = [("eps0", "0.1"), ("eps0", None), ("eps0", 10 ** 400), ("eps0", [0.1]),
               ("eps0", 0.1j), ("ratio", "0.5"), ("ratio", None), ("ratio", [0.5]),
               ("ratio", 0.5j)]
FIELD_MESSAGES = {"eps0": "eps0 must be positive and finite",
                  "ratio": r"ratio must lie in \(0, 1\)"}


@pytest.mark.parametrize("field, value", WRONG_TYPES,
                         ids=[f"{f}-{type(v).__name__}" for f, v in WRONG_TYPES])
def test_schedule_rejects_a_value_of_a_wrong_type_with_its_field_message(field, value):
    message = f"^{FIELD_MESSAGES[field]}, got {re.escape(repr(value))}$"
    with pytest.raises(EstimatorError, match=message):
        StepSchedule(**{field: value})


def test_schedule_policy_is_checked_when_built():
    with pytest.raises(EstimatorError, match="eps0"):
        StepSchedule.for_level(0, eps0=-1.0)
    with pytest.raises(EstimatorError, match="underflow"):
        StepSchedule.for_level(0, ratio=1e-200)


def test_schedule_step_floor():
    # asking for absurdly small steps gets raised to the cancellation floor
    sched = StepSchedule(eps0=1e-15, count=2)
    steps = sched.steps(at=100.0)
    assert steps[-1] >= 1e-9 * 100.0
    assert steps[0] > steps[1] > 0


def test_schedule_policy_overrides():
    sched = StepSchedule.for_level(4, eps0=0.5, ratio=None, count=None, mode="one_sided")
    assert sched.eps0 == 0.5
    assert sched.mode == "one_sided"
    assert sched.ratio == 0.5
    default = StepSchedule.for_level(4, eps0=None, ratio=None, count=None, mode=None)
    assert default.eps0 == 2.0 ** -4 / 8.0
    assert default.mode == "central"
    assert StepSchedule() == StepSchedule.for_level(0)


# ---------------------------------------------------------------------------
# atom-shift derivative
# ---------------------------------------------------------------------------

def test_one_sided_quotients_match_hand_expansion():
    sched = StepSchedule(mode="one_sided")
    quots = atom_shift_quotients(VARIANCE, HALF_HALF, 1, sched)
    for q, eps in zip(quots, sched.steps(at=1.0)):
        assert q == pytest.approx((2.0 + eps) / 2.0, abs=1e-12)
    value, err = lions_derivative_at_atom(VARIANCE, HALF_HALF, 1, sched)
    assert value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("f", [VARIANCE, make_linear([0.0, 1.0, 1.0]),
                               make_interaction([0.1, 0.2, 0.5])])
def test_one_sided_quotients_use_the_laws_own_weights(f):
    # The probes inside their gaps, valued by the shift evaluator, are f at
    # the law's atoms with one moved and its weights as they are, bit for
    # bit, as is the base f(mu).
    mu = recorded_law()
    sched = StepSchedule(eps0=1e-3, mode="one_sided")
    base = f(mu)
    checked = 0
    for i in range(mu.n_atoms):
        steps = sched.steps(at=mu.atoms[i].item())
        if i + 1 < mu.n_atoms and mu.atoms[i] + steps[0] >= mu.atoms[i + 1]:
            continue  # the probes cross the right neighbour and merge
        expected = []
        for eps in steps:
            atoms = np.array(mu.atoms)
            atoms[i] += eps
            expected.append((f(DiscreteMeasure(atoms, mu.weights)) - base)
                            / (eps * mu.weights[i]))
        quots = atom_shift_quotients(f, mu, i, sched)
        assert quots.tobytes() == np.array(expected).tobytes()
        checked += 1
    assert checked == 3


def test_central_square_potential_at_dirac_is_exactly_zero():
    f = make_linear([0.0, 0.0, 1.0])
    delta0 = make_measure([0.0], [1.0])
    quots = atom_shift_quotients(f, delta0, 0, StepSchedule())
    assert np.all(quots == 0.0)
    value, err = lions_derivative_at_atom(f, delta0, 0)
    assert value == 0.0
    assert err == 0.0


def test_mean_square_atom_zero():
    f = make_mean_square()
    value, err = lions_derivative_at_atom(f, HALF_HALF, 0)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_quadratic_central_quotients_are_step_independent():
    rng = np.random.default_rng(99)
    for f in (VARIANCE, make_mean_square(), make_linear([1.0, -2.0, 0.5])):
        mu = random_measure(rng, max_atoms=6)
        for i in range(mu.n_atoms):
            quots = atom_shift_quotients(f, mu, i, StepSchedule())
            assert np.max(quots) - np.min(quots) <= 1e-10


def test_atom_index_validation():
    with pytest.raises(EstimatorError):
        lions_derivative_at_atom(VARIANCE, HALF_HALF, 2)
    with pytest.raises(EstimatorError):
        lions_derivative_at_atom(VARIANCE, HALF_HALF, -1)


def test_shift_collision_merges_exactly():
    # eps0 = 1.0 makes the first probe shift atom 0 exactly onto atom 1;
    # measure-level evaluation makes the merge semantically exact
    f = make_linear([0.0, 1.0])  # f(mu) = mean, g = 1
    sched = StepSchedule(eps0=1.0, count=2)
    value, _ = lions_derivative_at_atom(f, HALF_HALF, 0, sched)
    assert value == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_balanced_binary_sample():
    values = np.concatenate([np.zeros(128), np.ones(128)])
    sample = make_sample(values)
    est = lions_derivative_grid(VARIANCE, sample, 3)
    assert est.grid_atoms.tolist() == [0.0, 1.0]
    assert est.g_values[0] == pytest.approx(-1.0, abs=1e-8)
    assert est.g_values[1] == pytest.approx(1.0, abs=1e-8)
    assert np.all(est.error_estimates <= 1e-8)
    assert est.failed_atoms == ()


def test_grid_atoms_equal_distinct_values_for_grid_sample():
    sample = make_sample([0.25, 0.75, 0.25, -0.5])
    est = lions_derivative_grid(VARIANCE, sample, 2)
    assert est.grid_atoms.tolist() == [-0.5, 0.25, 0.75]


def test_grid_cubic_potential():
    f = make_linear([0.0, 0.0, 0.0, 1.0])
    sample = make_sample([-0.5, 0.5])
    est = lions_derivative_grid(f, sample, 1)
    assert est.grid_atoms.tolist() == [-0.5, 0.5]
    assert est.g_values[0] == pytest.approx(0.75, abs=1e-8)
    assert est.g_values[1] == pytest.approx(0.75, abs=1e-8)


def test_grid_is_bitwise_order_independent():
    rng = np.random.default_rng(17)
    sample = random_sample(rng, size=48)
    perm = rng.permutation(sample.size)
    shuffled = make_sample(sample.values[perm])
    a = lions_derivative_grid(VARIANCE, sample, 4)
    b = lions_derivative_grid(VARIANCE, shuffled, 4)
    assert np.array_equal(a.grid_atoms, b.grid_atoms)
    assert np.array_equal(a.g_values, b.g_values)
    assert np.array_equal(a.error_estimates, b.error_estimates)


def test_grid_canonicalizes_per_grid_not_per_probe(monkeypatch):
    import lionsderiv.estimator as estimator_module
    import lionsderiv.measure as measure_module

    canonicalizations = []
    real = measure_module.make_measure

    def counting(*args, **kwargs):
        canonicalizations.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure_module, "make_measure", counting)  # law_of
    monkeypatch.setattr(estimator_module, "make_measure", counting)
    full_evaluations = []

    def counted(f):
        def evaluate(mu):
            full_evaluations.append(1)
            return f(mu)

        return Functional(name=f.name, params=f.params, evaluate=evaluate,
                          shift_evaluator=f.shift_evaluator)

    sample = random_sample(np.random.default_rng(5), size=256)
    for f in (VARIANCE, make_interaction([0.0, 0.0, 0.5])):
        canonicalizations.clear()
        est = lions_derivative_grid(counted(f), sample, 8)
        assert est.n_atoms > 100
        assert len(canonicalizations) == 1  # the law
        assert full_evaluations == []  # every probe was incremental


def test_grid_flags_probe_failures_per_atom():
    def fragile(mu):
        # blows up only when the top atom gets pushed above 1
        if np.any(mu.atoms > 1.05):
            return math.nan
        return 0.0

    f = Functional(name="fragile", params={}, evaluate=fragile)
    sample = make_sample([0.0, 1.0])
    est = lions_derivative_grid(f, sample, 0)
    assert est.failed_atoms == (1,)
    assert math.isnan(est.g_values[1])
    assert not math.isnan(est.g_values[0])


def test_grid_stops_an_atom_at_its_first_non_finite_probe():
    # A functional without a shift evaluator sees its probes one at a time,
    # atom by atom, in probe order: after atom 0's first probe (+eps0) gives
    # NaN, no later probe of atom 0 is evaluated.
    def fragile(mu):
        if mu.atoms[0] == 0.125:
            return math.nan
        if mu.atoms[0] != 0.0:
            raise RuntimeError(f"atom 0 probed again at {mu.atoms[0]!r}")
        return float(np.dot(mu.weights, mu.atoms))

    f = Functional(name="fragile", params={}, evaluate=fragile)
    est = lions_derivative_grid(f, make_sample([0.0, 1.0]), 0, StepSchedule(eps0=0.125))
    assert est.failed_atoms == (0,)
    assert est.g_values[1] == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["central", "one_sided"])
@pytest.mark.parametrize("value", [None, np.array([1.0, 2.0])], ids=["None", "array"])
def test_grid_raises_the_type_error_of_a_value_that_is_not_a_number(value, mode):
    # The estimator takes each value of evaluate with float(); the TypeError
    # of one it rejects propagates, as an error raised by evaluate does,
    # and is not a flagged atom.
    f = Functional(name="no_number", params={}, evaluate=lambda mu: value)
    with pytest.raises(TypeError):
        lions_derivative_grid(f, make_sample([0.0, 1.0]), 2, StepSchedule.for_level(2, mode=mode))


def test_interaction_grid_memory_stays_far_below_one_lines_array_for_all_probes():
    # 600 atoms, one-sided with two steps: 1200 probes, each moving one row
    # and one column of the 600 x 600 terms.  Those lines as one array would
    # take 1200 * 1200 * 8 bytes, about 11 MiB; chunks of probes keep them
    # within _PAIR_BLOCK terms at a time.
    sample = make_sample(np.arange(600) / 1024.0)
    schedule = StepSchedule.for_level(10, count=2, mode="one_sided")
    tracemalloc.start()
    try:
        est = lions_derivative_grid(make_interaction([0.0, 0.0, 0.5]), sample, 10, schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_atoms == 600 and est.failed_atoms == ()
    assert peak < 1200 * 1200 * 8 / 4


def test_grid_flags_an_underflowing_atom_without_dividing_by_zero():
    # 1.5e-323 times every level-2 step underflows to 0, and the shift
    # evaluator has the atom's probe values: the failed row's quotients are
    # dropped without a divide-by-zero warning.
    sample = make_sample([0.0, 0.5], [1.0, 1.5e-323])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = lions_derivative_grid(VARIANCE, sample, 2)
    assert est.failed_atoms == (1,)


def test_grid_flags_non_finite_extrapolation_per_atom():
    # Every probe value is finite, but plus - minus overflows, so the
    # extrapolated value and its error come out NaN.
    f = make_linear([1e308, 1e308])
    est = lions_derivative_grid(f, make_sample([0.0, 0.5]), 2)
    assert est.failed_atoms == (0, 1)
    assert np.all(np.isnan(est.g_values))
    assert np.all(np.isnan(est.error_estimates))


def test_grid_flags_an_atom_whose_step_times_weight_underflows():
    # 2^-23 * 1e-320 is 0 in floating point: no quotient can be formed
    sample = make_sample([0.0, 1.0], [1e-320, 1.0])
    est = lions_derivative_grid(VARIANCE, sample, 20)
    assert est.failed_atoms == (0,)
    assert est.g_values[1] == pytest.approx(2.0 - 2.0 * 1.0, abs=1e-6)
    with pytest.raises(ProbeFailureError, match="underflows to 0"):
        lions_derivative_at_atom(VARIANCE, law_of(sample), 0, StepSchedule.for_level(20))


def test_one_sided_grid_with_failing_base_flags_every_atom_evaluating_once():
    sample = make_sample([0.0, 0.25, 0.5, 1.0])  # on the level-2 grid
    law = law_of(sample)
    evaluated = []

    def nan_at_base(mu):
        evaluated.append(mu)
        return math.nan if np.array_equal(mu.atoms, law.atoms) else VARIANCE(mu)

    f = Functional(name="nan_at_base", params={}, evaluate=nan_at_base)
    est = lions_derivative_grid(f, sample, 2, StepSchedule.for_level(2, mode="one_sided"))
    assert est.failed_atoms == (0, 1, 2, 3)
    assert np.all(np.isnan(est.g_values)) and np.all(np.isnan(est.error_estimates))
    assert len(evaluated) == 1  # f(mu) once, and no probe after it failed


def test_grid_flags_opposite_infinite_terms_per_atom():
    # phi(x) = 1e308 x is -inf and +inf at the two atoms
    est = lions_derivative_grid(make_linear([0.0, 1e308]), make_sample([-10.0, 10.0]), 2)
    assert est.failed_atoms == (0, 1)
    assert np.all(np.isnan(est.g_values))


def test_grid_flags_atoms_whose_floored_steps_reach_a_neighbour():
    # At |x| = 1e6 the relative step floor raises the level-20 steps to
    # (8e-3, ..., 1e-3), far past the 2^-20 gap between these atoms; the
    # unflagged quotients came out near +-0.5 against an oracle of +-2e-6.
    values = [1e6 + k * 2.0 ** -20 for k in range(3)]
    est = lions_derivative_grid(VARIANCE, make_sample(values), 20)
    assert est.grid_atoms.tolist() == values
    assert est.failed_atoms == (0, 1, 2)
    assert np.all(np.isnan(est.g_values))
    # One-sided probes shift only to the right: the last atom has no right
    # neighbour to reach and keeps its value.
    one_sided = lions_derivative_grid(VARIANCE, make_sample(values[:2]), 20,
                                      StepSchedule.for_level(20, mode="one_sided"))
    assert one_sided.failed_atoms == (0,)
    assert np.isfinite(one_sided.g_values[1])
    # Steps the caller chose that reach a neighbour merge with it instead.
    merged = lions_derivative_grid(make_linear([0.0, 1.0]), make_sample([0.0, 1.0]), 0,
                                   StepSchedule(eps0=1.0, count=2))
    assert merged.failed_atoms == ()
    assert merged.g_values.tolist() == pytest.approx([1.0, 1.0], abs=1e-12)


def _estimate(atoms, g_values, error_estimates, level=1):
    return DerivativeEstimate(
        level=QuantizationLevel(level),
        law=make_measure(atoms, np.full(len(atoms), 1.0 / len(atoms))),
        schedule=StepSchedule.for_level(level),
        g_values=np.array(g_values),
        error_estimates=np.array(error_estimates),
    )


# Each message that names an array entry prints it as a Python float, so
# the text is the same on every numpy: numpy 2 reprs its scalars as
# ``np.float64(...)``.
ENTRY_MESSAGES = [
    pytest.param(lambda: make_measure([1.0, math.inf], [0.5, 0.5]),
                 "atoms[1] is not finite: inf", id="not_finite"),
    pytest.param(lambda: make_measure([0.0, 1.0], [1.5, -0.5]),
                 "weights[1] is negative: -0.5", id="negative_weight"),
    pytest.param(lambda: make_sample([0.0, 1.0], [1.0, 0.0]),
                 "weights[1] must be positive, got 0.0", id="zero_weight"),
    pytest.param(lambda: dyadic_quantize(make_sample([1e308, -1e308]), 2),
                 "value 1e+308 overflows at quantization level 2", id="quantize_overflow"),
    pytest.param(lambda: refine_until_converged(VARIANCE, make_sample([1e308, -1e308]), 1e-3),
                 "value 1e+308 overflows at quantization level 2", id="refine_overflow"),
    pytest.param(lambda: _estimate([0.3], [1.0], [0.0]),
                 "atom 0.3 is not on the level-1 dyadic grid", id="off_grid"),
    pytest.param(lambda: atom_shift_quotients(VARIANCE, make_measure([1e308], [1.0]), 0,
                                              StepSchedule(eps0=1e308)),
                 "atom 0 moved by 1e+308 leaves the float range", id="probe_overflow"),
]


@pytest.mark.parametrize("build, message", ENTRY_MESSAGES)
def test_a_message_names_an_entry_as_a_python_float(build, message):
    with pytest.raises((MeasureError, EstimatorError, ProbeFailureError)) as info:
        build()
    assert str(info.value) == message


def test_estimate_invariant_validation():
    with pytest.raises(EstimatorError, match="not on the level-1 dyadic grid"):
        _estimate([0.3], [1.0], [0.0])
    with pytest.raises(EstimatorError, match="elsewhere finite and nonnegative"):
        _estimate([0.5], [1.0], [-1.0])
    with pytest.raises(EstimatorError, match="lengths differ"):
        _estimate([0.0, 0.5], [1.0], [0.0])


@pytest.mark.parametrize("g_values, error_estimates", [
    ([math.nan], [0.0]),  # used to pass as an atom that did not fail
    ([1.0], [math.nan]),
    ([math.nan, 1.0], [math.nan, math.nan]),
])
def test_estimate_rejects_nan_patterns_that_differ(g_values, error_estimates):
    with pytest.raises(EstimatorError, match="NaN where g_values are"):
        _estimate([0.0, 0.5][:len(g_values)], g_values, error_estimates)


def test_failed_atoms_are_the_nan_entries():
    est = _estimate([0.0, 0.5, 1.0], [math.nan, 2.0, math.nan], [math.nan, 0.0, math.nan])
    assert est.failed_atoms == (0, 2)
    assert est.n_atoms == 3
    assert est.grid_atoms is est.law.atoms


@pytest.mark.parametrize("failed", [(3,), (-1,)])
def test_failed_atoms_cannot_be_given(failed):
    # (3,) on one atom used to raise numpy's IndexError, (-1,) to wrap
    # to the last atom
    with pytest.raises(TypeError):
        DerivativeEstimate(QuantizationLevel(1), make_measure([0.5], [1.0]),
                           StepSchedule.for_level(1), np.array([1.0]),
                           np.array([0.0]), failed_atoms=failed)


def test_grid_records_the_law_and_schedule_it_probed():
    sample = random_sample(np.random.default_rng(8), size=40, weighted=True)
    est = lions_derivative_grid(VARIANCE, sample, 3)
    law = law_of(dyadic_quantize(sample, 3))
    assert est.law.atoms.tobytes() == law.atoms.tobytes()
    assert est.law.weights.tobytes() == law.weights.tobytes()
    assert est.schedule == StepSchedule.for_level(3)
    one_sided = StepSchedule(eps0=0.01, mode="one_sided")
    assert lions_derivative_grid(VARIANCE, sample, 3, one_sided).schedule is one_sided


# ---------------------------------------------------------------------------
# piecewise-constant extension
# ---------------------------------------------------------------------------

def test_g_tilde_cell_membership():
    est = _estimate([0.0, 1.0], [-1.0, 1.0], [0.0, 0.0])
    # inside [0, 0.5), a zero-mass cell, exactly at a grid atom, and a
    # zero-mass cell below the grid
    assert g_tilde_values(est, [0.3, 0.5, 1.0, -0.2]).tolist() == [-1.0, 0.0, 1.0, 0.0]
    got = g_tilde_values(est, np.array([0.0, 0.49, 1.49, 2.0]))
    assert got.tolist() == [-1.0, -1.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_converges_for_variance():
    rng = np.random.default_rng(8)
    sample = random_sample(rng, size=64)
    est, report = refine_until_converged(VARIANCE, sample, tol=1e-4, n_min=2, n_max=20)
    assert report.converged
    assert report.levels[-1] == est.level.n
    assert len(report.distances) == len(report.levels) - 1
    # distances shrink roughly geometrically for a Lipschitz derivative
    assert report.distances[-1] < report.distances[0]


def test_refine_immediate_convergence_on_grid_sample():
    sample = make_sample([0.0, 0.5, 1.0, 0.5])
    est, report = refine_until_converged(VARIANCE, sample, tol=1e-6, n_min=1, n_max=10)
    assert report.converged
    assert report.levels == (1, 2)
    assert report.distances == (0.0,)


def test_refine_constant_derivative_distance_zero():
    f = make_linear([0.0, 1.0])  # g is identically 1
    rng = np.random.default_rng(21)
    sample = random_sample(rng, size=32)
    est, report = refine_until_converged(f, sample, tol=1e-12, n_min=2, n_max=5)
    assert report.converged
    assert report.distances == (0.0,)


def test_refine_non_convergence_is_flagged_not_raised():
    rng = np.random.default_rng(13)
    sample = random_sample(rng, size=64)
    est, report = refine_until_converged(VARIANCE, sample, tol=1e-30, n_min=2, n_max=4)
    assert not report.converged
    assert report.levels == (2, 3, 4)
    assert est.level.n == 4


def test_refine_validation():
    sample = make_sample([0.0, 1.0])
    with pytest.raises(EstimatorError):
        refine_until_converged(VARIANCE, sample, tol=-1.0)
    with pytest.raises(EstimatorError):
        refine_until_converged(VARIANCE, sample, tol=1e-6, n_min=5, n_max=2)


# ---------------------------------------------------------------------------
# moved mass
# ---------------------------------------------------------------------------

def test_partial_mass_values_on_variance():
    assert partial_mass_perturbation(VARIANCE, HALF_HALF, 1, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert partial_mass_perturbation(VARIANCE, HALF_HALF, 1, 0.5) == pytest.approx(0.25, abs=1e-9)


def test_partial_mass_constant_functional_is_zero():
    f = make_linear([3.0])
    assert partial_mass_perturbation(f, HALF_HALF, 0, 0.7) == 0.0


def test_partial_mass_full_fraction_matches_atom_derivative():
    rng = np.random.default_rng(31)
    for sched in (StepSchedule(), StepSchedule(mode="one_sided")):
        mu = random_measure(rng, max_atoms=6)
        i = mu.n_atoms // 2
        whole = partial_mass_perturbation(VARIANCE, mu, i, 1.0, sched)
        g, err = lions_derivative_at_atom(VARIANCE, mu, i, sched)
        p = float(mu.weights[i])
        assert whole == pytest.approx(p * g, abs=max(1e-9, 4 * err))


def test_partial_mass_linearity_in_fraction():
    rng = np.random.default_rng(77)
    builders = [VARIANCE, make_mean_square(),
                make_linear([0.0, 1.0, 0.5, 0.25]), make_interaction([0.0, 0.0, 0.5])]
    for f in builders:
        mu = random_measure(rng, max_atoms=5)
        i = 0
        p = float(mu.weights[i])
        fractions = (0.25, 0.5, 0.75, 1.0)
        values = [partial_mass_perturbation(f, mu, i, q) for q in fractions]
        masses = [q * p for q in fractions]
        slope = math.fsum(v * m for v, m in zip(values, masses)) / \
            math.fsum(m * m for m in masses)
        scale = max(abs(v) for v in values)
        for v, m in zip(values, masses):
            assert abs(v - slope * m) <= 1e-6 * max(scale, 1e-30)


def test_partial_mass_fraction_validation():
    with pytest.raises(EstimatorError):
        partial_mass_perturbation(VARIANCE, HALF_HALF, 0, 0.0)
    with pytest.raises(EstimatorError):
        partial_mass_perturbation(VARIANCE, HALF_HALF, 0, 1.5)


# ---------------------------------------------------------------------------
# directional derivative
# ---------------------------------------------------------------------------

def test_directional_single_atom_direction():
    sample = make_sample([0.0, 1.0])
    got = directional_derivative(VARIANCE, sample, Direction([1.0, 0.0]))
    assert got == pytest.approx(-0.5, abs=1e-9)


def test_directional_zero_direction():
    sample = make_sample([0.2, 0.8])
    assert directional_derivative(VARIANCE, sample, Direction([0.0, 0.0])) == 0.0


def test_directional_translation_invariance_of_variance():
    sample = make_sample([0.0, 1.0])
    got = directional_derivative(VARIANCE, sample, Direction([1.0, 1.0]))
    assert got == pytest.approx(0.0, abs=1e-10)


def test_directional_matches_pairing_with_closed_form():
    rng = np.random.default_rng(4)
    sample = random_sample(rng, size=16)
    mu = law_of(sample)
    for f in (VARIANCE, make_mean_square(), make_linear([0.0, -1.0, 2.0])):
        eta = rng.standard_normal(sample.size)
        expected = math.fsum(
            float(w) * f.analytic_g(mu, float(v)) * float(e)
            for w, v, e in zip(sample.weights, sample.values, eta)
        )
        got = directional_derivative(f, sample, Direction(eta))
        assert got == pytest.approx(expected, abs=1e-8, rel=1e-8)


def test_atom_shift_consistent_with_directional():
    # shifting one atom is the directional derivative along its scaled
    # indicator; the two quotients probe the same limit, for every built-in
    rng = np.random.default_rng(55)
    sample = random_sample(rng, size=12)
    mu = law_of(sample)
    builtins = (VARIANCE, make_mean_square(),
                make_linear([0.0, 1.0, -0.5, 0.25]),
                make_interaction([0.0, 0.2, 0.5]))
    for f in builtins:
        for i in (0, mu.n_atoms - 1):
            g, err = lions_derivative_at_atom(f, mu, i)
            p = float(mu.weights[i])
            indicator = (sample.values == mu.atoms[i]).astype(float) / p
            got = directional_derivative(f, sample, Direction(indicator))
            assert got == pytest.approx(g, abs=max(1e-8, 4 * err))


def test_direction_validation():
    with pytest.raises(EstimatorError):
        Direction([math.inf])
    with pytest.raises(EstimatorError):
        directional_derivative(VARIANCE, make_sample([0.0, 1.0]), Direction([1.0]))


@pytest.mark.parametrize("ratio, count", [
    (5e-324, 2),  # the cancellation floor raises eps0 to inf
    (0.999, 2000),  # every quotient is finite, the extrapolation is NaN
    (1e-160, 2),  # the Richardson factor (1 / ratio)^2 is past the float range
])
def test_schedule_without_a_finite_derivative_raises_probe_failure(ratio, count):
    schedule = StepSchedule(ratio=ratio, count=count)
    mu = make_measure([0.0, 0.5, 1.0], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ProbeFailureError):
        lions_derivative_at_atom(VARIANCE, mu, 1, schedule)
    est = lions_derivative_grid(VARIANCE, make_sample([0.0, 0.5, 1.0]), 1, schedule)
    assert est.failed_atoms == (0, 1, 2)


def test_probe_past_the_float_range_is_a_probe_failure():
    top = make_measure([1.7976931348623157e308], [1.0])
    with np.errstate(all="raise"):
        with pytest.raises(ProbeFailureError, match="leaves the float range"):
            lions_derivative_at_atom(VARIANCE, top, 0)
        with pytest.raises(ProbeFailureError, match="leaves the float range"):
            partial_mass_perturbation(VARIANCE, top, 0, 0.5)
        with pytest.raises(ProbeFailureError, match="leaves the float range"):
            directional_derivative(VARIANCE, make_sample([1.7976931348623157e308]),
                                   Direction([1.0]))
        est = lions_derivative_grid(VARIANCE, make_sample([1.7976931348623157e308]), 0)
    assert est.failed_atoms == (0,)


def test_probe_failure_raises_for_scalar_ops():
    f = Functional(name="bad", params={}, evaluate=lambda mu: math.inf)
    with pytest.raises(ProbeFailureError):
        lions_derivative_at_atom(f, HALF_HALF, 0)
    with pytest.raises(ProbeFailureError):
        partial_mass_perturbation(f, HALF_HALF, 0, 0.5)
    with pytest.raises(ProbeFailureError):
        directional_derivative(f, make_sample([0.0, 1.0]), Direction([1.0, 0.0]))
