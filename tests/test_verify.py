"""Property checks: structure identity, law invariance, mass linearity,
oracle comparison, convergence study."""

import json
import math

import numpy as np
import pytest

from lionsderiv import (
    NoClosedFormError,
    Functional,
    StepSchedule,
    check_against_oracle,
    check_law_invariance,
    check_mass_linearity,
    check_structure,
    convergence_study,
    law_of,
    lions_derivative_grid,
    make_interaction,
    make_linear,
    make_measure,
    make_mean_square,
    make_sample,
    make_variance,
    refine_until_converged,
)

from conftest import random_sample

VARIANCE = make_variance()
HALF_HALF = make_measure([0.0, 1.0], [0.5, 0.5])


def balanced_binary_sample(n=256):
    return make_sample(np.concatenate([np.zeros(n // 2), np.ones(n // 2)]))


# ---------------------------------------------------------------------------
# structure identity
# ---------------------------------------------------------------------------

def test_structure_variance_balanced_sample():
    sample = balanced_binary_sample()
    est = lions_derivative_grid(VARIANCE, sample, 3)
    report = check_structure(VARIANCE, sample, est, directions=32, seed=0)
    assert report.status == "pass"
    assert report.discrepancy <= 1e-6
    assert len(report.cases) == 32


def test_structure_constant_derivative_exact():
    f = make_linear([0.0, 1.0])  # g is identically 1
    sample = make_sample([0.25, 0.5, 0.75])
    est = lions_derivative_grid(f, sample, 2)
    report = check_structure(f, sample, est, directions=8, seed=1)
    assert report.status == "pass"
    # both sides are the weighted mean of eta, to roundoff
    for case in report.cases:
        assert case["lhs_directional"] == pytest.approx(case["rhs_pairing"], abs=1e-12)


def test_structure_passes_on_non_grid_sample():
    # both sides are evaluated at the quantized sample, so a generic sample
    # is checked at scheme precision, not quantization precision
    rng = np.random.default_rng(23)
    sample = random_sample(rng, size=40)
    est = lions_derivative_grid(VARIANCE, sample, 3)
    report = check_structure(VARIANCE, sample, est, directions=16, seed=2)
    assert report.status == "pass"
    assert report.discrepancy <= 1e-6


def test_structure_report_is_reproducible():
    sample = balanced_binary_sample(64)
    est = lions_derivative_grid(VARIANCE, sample, 2)
    a = check_structure(VARIANCE, sample, est, directions=4, seed=7)
    b = check_structure(VARIANCE, sample, est, directions=4, seed=7)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    c = check_structure(VARIANCE, sample, est, directions=4, seed=8)
    assert json.dumps(a.to_dict()) != json.dumps(c.to_dict())


def test_structure_fails_with_nan_when_a_probe_fails():
    # at level 0 every probe of the variance on these values overflows
    sample = make_sample([1e308, -1e308, 1e308])
    est = lions_derivative_grid(VARIANCE, sample, 0)
    report = check_structure(VARIANCE, sample, est, directions=2)
    assert report.status == "fail" and math.isnan(report.discrepancy)
    assert all(math.isnan(c["lhs_directional"]) for c in report.cases)


def test_structure_discrepancy_survives_an_overflowing_g_norm():
    # g is about +-1.4e154, so the squares in the g-norm overflow to inf;
    # the two sides still differ in about the seventh digit
    sample = make_sample([-7e153, 7e153])
    est = lions_derivative_grid(VARIANCE, sample, 2)
    report = check_structure(VARIANCE, sample, est, directions=4)
    rels = [c["relative_discrepancy"] for c in report.cases]
    assert all(0.0 < r < 1e-5 for r in rels)
    assert report.discrepancy == max(rels)


# ---------------------------------------------------------------------------
# law invariance
# ---------------------------------------------------------------------------

def test_law_invariance_bitwise_zero():
    rng = np.random.default_rng(3)
    sample = random_sample(rng, size=64, weighted=True)
    report = check_law_invariance(VARIANCE, sample, 4, transforms=10, seed=0)
    assert report.status == "pass"
    assert report.discrepancy == 0.0
    assert report.tolerance == 0.0
    kinds = {c["kind"] for c in report.cases}
    assert kinds == {"permutation", "weight_split"}


def test_law_invariance_sorted_copy():
    rng = np.random.default_rng(9)
    sample = random_sample(rng, size=32)
    sorted_sample = make_sample(np.sort(sample.values))
    a = lions_derivative_grid(VARIANCE, sample, 3)
    b = lions_derivative_grid(VARIANCE, sorted_sample, 3)
    assert np.array_equal(a.g_values, b.g_values)
    assert np.array_equal(a.error_estimates, b.error_estimates)


def test_law_invariance_same_empirical_frequencies():
    # two different orderings with identical value counts: same canonical law
    a = make_sample([0.5, 0.25, 0.5, 0.75])
    b = make_sample([0.75, 0.5, 0.25, 0.5])
    ga = lions_derivative_grid(VARIANCE, a, 2)
    gb = lions_derivative_grid(VARIANCE, b, 2)
    assert np.array_equal(ga.g_values, gb.g_values)


# ---------------------------------------------------------------------------
# mass linearity
# ---------------------------------------------------------------------------

def test_mass_linearity_variance_hand_values():
    report = check_mass_linearity(VARIANCE, HALF_HALF, 1)
    assert report.status == "pass"
    values = [case["value"] for case in report.cases]
    assert values == pytest.approx([0.125, 0.25, 0.375, 0.5], abs=1e-9)
    assert report.details["fitted_slope"] == pytest.approx(1.0, abs=1e-9)
    assert report.details["atom_derivative"] == pytest.approx(1.0, abs=1e-9)


def test_mass_linearity_constant_functional():
    f = make_linear([2.5])
    report = check_mass_linearity(f, HALF_HALF, 0)
    assert report.status == "pass"
    assert all(case["value"] == 0.0 for case in report.cases)
    assert report.details["fitted_slope"] == 0.0


@pytest.mark.parametrize("f", [
    VARIANCE,
    make_mean_square(),
    make_linear([0.0, 0.5, 1.0, 0.25]),
    make_interaction([0.0, 0.0, 0.5]),
])
def test_mass_linearity_all_builtins_default_schedule(f):
    mu = make_measure([-0.5, 0.25, 1.0], [0.25, 0.5, 0.25])
    report = check_mass_linearity(f, mu, 1)
    assert report.status == "pass"
    assert report.details["fit_residual_relative"] <= 1e-6


def test_mass_linearity_fails_with_nan_when_a_probe_fails():
    mu = law_of(make_sample([1e308, -1e308, 1e308]))
    report = check_mass_linearity(VARIANCE, mu, 1)
    assert report.status == "fail" and math.isnan(report.discrepancy)
    assert math.isnan(report.details["atom_derivative"])


def test_mass_linearity_fails_under_abusive_schedule():
    # coarse one-sided 2-step schedule on a quartic kernel: the nonlinear
    # moved-mass terms survive extrapolation and break the 1e-6 fit residual
    f = make_interaction([0.0, 0.0, 0.0, 0.0, 1.0])
    sched = StepSchedule(eps0=8.0, count=2, mode="one_sided")
    report = check_mass_linearity(f, HALF_HALF, 1, schedule=sched)
    assert report.status == "fail"


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

def test_oracle_variance_random_sample():
    rng = np.random.default_rng(12)
    sample = random_sample(rng, size=256)
    report = check_against_oracle(VARIANCE, sample, 4)
    assert report.status == "pass"
    assert report.details["sup_error"] <= 1e-8


def test_oracle_cubic_taylor_bound():
    f = make_linear([0.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(14)
    sample = random_sample(rng, size=64, lo=-1.0, hi=1.0)
    report = check_against_oracle(f, sample, 3)
    assert report.status == "pass"
    sched = StepSchedule.for_level(3)
    eps_min = sched.steps(at=1.0)[-1]
    assert report.tolerance <= 1.5 * eps_min ** 2 * 1.2  # phi''' = 6, bound ~ eps^2
    assert report.details["sup_error"] <= report.tolerance


def test_oracle_mean_square_constant_g():
    rng = np.random.default_rng(15)
    sample = random_sample(rng, size=128)
    report = check_against_oracle(make_mean_square(), sample, 4)
    assert report.status == "pass"
    estimates = [case["estimated"] for case in report.cases]
    assert max(estimates) - min(estimates) <= 1e-10


def test_oracle_requires_closed_form():
    f = Functional(name="opaque", params={}, evaluate=lambda mu: 0.0)
    with pytest.raises(NoClosedFormError):
        check_against_oracle(f, make_sample([0.0, 1.0]), 2)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_study_w2_bound_and_monotonicity():
    rng = np.random.default_rng(16)
    sample = random_sample(rng, size=128)
    rows = convergence_study(VARIANCE, sample, range(0, 9))
    for row in rows:
        assert row.w2_quantization <= 2.0 ** -row.level
    w2s = [row.w2_quantization for row in rows]
    assert all(b <= a for a, b in zip(w2s, w2s[1:]))
    assert rows[0].successive_difference is None
    assert all(r.successive_difference is not None for r in rows[1:])


def test_study_oracle_error_decays_geometrically():
    rng = np.random.default_rng(18)
    sample = random_sample(rng, size=512)
    rows = convergence_study(VARIANCE, sample, range(2, 9))
    errs = [row.oracle_error for row in rows]
    for a, b in zip(errs, errs[1:]):
        assert a / b >= 1.8


def test_study_grid_sample_goes_flat():
    sample = make_sample([0.0, 0.25, 0.5, 0.75])  # resolved at level 2
    rows = convergence_study(VARIANCE, sample, range(2, 6))
    for row in rows[1:]:
        assert row.successive_difference == 0.0
    for row in rows:
        if row.level >= 2:
            assert row.w2_quantization == 0.0


def test_study_without_closed_form_leaves_column_empty():
    f = Functional(name="opaque", params={}, evaluate=lambda mu: 0.0)
    rows = convergence_study(f, make_sample([0.1, 0.9]), [1, 2])
    assert all(row.oracle_error is None for row in rows)


def test_study_successive_differences_are_refinement_distances():
    sample = random_sample(np.random.default_rng(21), size=96, weighted=True)
    rows = convergence_study(VARIANCE, sample, range(2, 8))
    _, report = refine_until_converged(VARIANCE, sample, tol=1e-300, n_min=2, n_max=7)
    assert report.levels == tuple(row.level for row in rows)
    assert len(report.distances) == 5
    assert [row.successive_difference for row in rows[1:]] == list(report.distances)


def test_study_rejects_bad_level_ranges():
    with pytest.raises(ValueError):
        convergence_study(VARIANCE, make_sample([0.1]), [])
    with pytest.raises(ValueError):
        convergence_study(VARIANCE, make_sample([0.1]), [4, 3, 2])


# ---------------------------------------------------------------------------
# report contract
# ---------------------------------------------------------------------------

def test_reports_serialize_to_json():
    sample = balanced_binary_sample(32)
    est = lions_derivative_grid(VARIANCE, sample, 2)
    for report in (
        check_structure(VARIANCE, sample, est, directions=2, seed=0),
        check_law_invariance(VARIANCE, sample, 2, transforms=2, seed=0),
        check_mass_linearity(VARIANCE, HALF_HALF, 1),
        check_against_oracle(VARIANCE, sample, 2),
    ):
        payload = json.dumps(report.to_dict())
        back = json.loads(payload)
        assert back["name"] == report.name
        assert (back["discrepancy"] <= back["tolerance"]) == (report.status == "pass")
