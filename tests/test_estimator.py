"""Atom-shift derivatives, grids, refinement, moved mass, directions.

Oracle checklist:
- One-sided quotient on variance at (1/2) d_0 + (1/2) d_1, atom 1: hand
  expansion gives exactly (2 + eps)/2 per step, limit 1.
- Grid values against closed forms from the functionals module.
- Directional derivatives against the weighted pairing sum with the closed
  form, computed inline.
"""

import math

import numpy as np
import pytest

from lionsderiv import (
    DerivativeEstimate,
    Direction,
    EstimatorError,
    Functional,
    ProbeFailureError,
    QuantizationLevel,
    SchedulePolicy,
    StepSchedule,
    atom_shift_quotients,
    directional_derivative,
    evaluate_g_tilde,
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

from conftest import random_measure, random_sample

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


def test_schedule_step_floor():
    # asking for absurdly small steps gets raised to the cancellation floor
    sched = StepSchedule(eps0=1e-15, count=2)
    steps = sched.steps(at=100.0)
    assert steps[-1] >= 1e-9 * 100.0
    assert steps[0] > steps[1] > 0


def test_schedule_policy_overrides():
    policy = SchedulePolicy(eps0=0.5, mode="one_sided")
    sched = policy.for_level(4)
    assert sched.eps0 == 0.5
    assert sched.mode == "one_sided"
    assert sched.ratio == 0.5
    default = SchedulePolicy().for_level(4)
    assert default.eps0 == 2.0 ** -4 / 8.0
    assert default.mode == "central"


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

    def evaluate(mu):
        full_evaluations.append(1)
        return VARIANCE(mu)

    counted_variance = Functional(name="variance", params={}, evaluate=evaluate,
                                  shift_evaluator=VARIANCE.shift_evaluator)
    sample = random_sample(np.random.default_rng(5), size=256)
    for f in (counted_variance, make_interaction([0.0, 0.0, 0.5])):
        canonicalizations.clear()
        est = lions_derivative_grid(f, sample, 8)
        assert est.n_atoms > 100
        assert len(canonicalizations) == 2  # the law, then its canonical form
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


def test_grid_flags_non_finite_extrapolation_per_atom():
    # Every probe value is finite, but plus - minus overflows, so the
    # extrapolated value and its error come out NaN.
    f = make_linear([1e308, 1e308])
    est = lions_derivative_grid(f, make_sample([0.0, 0.5]), 2)
    assert est.failed_atoms == (0, 1)
    assert np.all(np.isnan(est.g_values))
    assert np.all(np.isnan(est.error_estimates))


def test_estimate_invariant_validation():
    with pytest.raises(EstimatorError):
        DerivativeEstimate(
            level=QuantizationLevel(1),
            grid_atoms=np.array([0.3]),  # not on the level-1 grid
            g_values=np.array([1.0]),
            error_estimates=np.array([0.0]),
        )
    with pytest.raises(EstimatorError):
        DerivativeEstimate(
            level=QuantizationLevel(1),
            grid_atoms=np.array([0.5]),
            g_values=np.array([1.0]),
            error_estimates=np.array([-1.0]),
        )


# ---------------------------------------------------------------------------
# piecewise-constant extension
# ---------------------------------------------------------------------------

def test_g_tilde_cell_membership():
    est = DerivativeEstimate(
        level=QuantizationLevel(1),
        grid_atoms=np.array([0.0, 1.0]),
        g_values=np.array([-1.0, 1.0]),
        error_estimates=np.array([0.0, 0.0]),
    )
    assert evaluate_g_tilde(est, 0.3) == -1.0      # inside [0, 0.5)
    assert evaluate_g_tilde(est, 0.5) == 0.0       # zero-mass cell
    assert evaluate_g_tilde(est, 1.0) == 1.0       # exactly at a grid atom
    assert evaluate_g_tilde(est, -0.2) == 0.0      # zero-mass cell below
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


def test_probe_failure_raises_for_scalar_ops():
    f = Functional(name="bad", params={}, evaluate=lambda mu: math.inf)
    with pytest.raises(ProbeFailureError):
        lions_derivative_at_atom(f, HALF_HALF, 0)
    with pytest.raises(ProbeFailureError):
        partial_mass_perturbation(f, HALF_HALF, 0, 0.5)
    with pytest.raises(ProbeFailureError):
        directional_derivative(f, make_sample([0.0, 1.0]), Direction([1.0, 0.0]))
