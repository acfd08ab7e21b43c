"""Property checks: structure identity, law invariance, mass linearity,
oracle comparison, convergence study."""

import dataclasses
import json
import math
import os
import signal
import time

import numpy as np
import pytest

from lionsderiv import (
    DiscreteMeasure,
    EstimatorError,
    NoClosedFormError,
    Functional,
    StepSchedule,
    check_against_oracle,
    check_law_invariance,
    check_mass_linearity,
    check_structure,
    convergence_study,
    law_of,
    lions_derivative_at_atom,
    lions_derivative_grid,
    make_interaction,
    make_linear,
    make_mean_square,
    make_sample,
    make_variance,
    refine_until_converged,
)

from lionsderiv import measure, verify

from conftest import random_sample

VARIANCE = make_variance()


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


def test_structure_tolerance_is_nan_where_the_estimate_flags_atoms():
    # The grid flags both atoms (see the mass-linearity case below), so
    # their error estimates, and the bound built from them, are NaN.
    sample = make_sample([1e6, 1e6 + 2.0 ** -20])
    est = lions_derivative_grid(VARIANCE, sample, 20)
    report = check_structure(VARIANCE, sample, est, directions=4)
    assert report.status == "fail" and math.isnan(report.discrepancy)
    assert math.isnan(report.tolerance)


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
    est = lions_derivative_grid(VARIANCE, sample, 4)
    report = check_law_invariance(VARIANCE, sample, est, transforms=10, seed=0)
    assert report.status == "pass"
    assert report.discrepancy == 0.0
    assert report.tolerance == 0.0
    kinds = {c["kind"] for c in report.cases}
    assert kinds == {"permutation", "weight_split"}


@pytest.mark.parametrize("transforms", [0, -5])
def test_law_invariance_needs_at_least_one_transform(transforms):
    # no transform used to report a pass over zero cases
    sample = make_sample([0.25, 0.75])
    est = lions_derivative_grid(VARIANCE, sample, 2)
    with pytest.raises(ValueError, match="at least one transform"):
        check_law_invariance(VARIANCE, sample, est, transforms=transforms)


def test_checks_use_the_schedule_the_estimate_was_built_under():
    # no schedule argument: a check that rebuilt grids under the level's
    # default central schedule would see a gap to this one-sided estimate
    sample = random_sample(np.random.default_rng(4), size=48, weighted=True)
    est = lions_derivative_grid(VARIANCE, sample, 4,
                                StepSchedule.for_level(4, mode="one_sided"))
    invariance = check_law_invariance(VARIANCE, sample, est, transforms=3)
    assert invariance.status == "pass" and invariance.discrepancy == 0.0
    structure = check_structure(VARIANCE, sample, est, directions=4)
    assert structure.details["schedule"] == dataclasses.asdict(est.schedule)
    assert structure.details["schedule"]["mode"] == "one_sided"
    oracle = check_against_oracle(VARIANCE, est)
    assert oracle.details["schedule"] == dataclasses.asdict(est.schedule)


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


# Every probe that moves the lowest atom below 0 gives NaN, so on [0, 0.5]
# atom 0 fails and atom 1 does not.
FAILS_AT_ATOM_0 = Functional(
    name="fails_at_atom_0", params={},
    evaluate=lambda mu: math.nan if mu.atoms[0] < 0.0 else VARIANCE(mu))


def _moved_at_atom_1(est, dg, de):
    return dataclasses.replace(est, g_values=est.g_values + [0.0, dg],
                               error_estimates=est.error_estimates + [0.0, de])


@pytest.mark.parametrize("dg, de", [(1e-9, 0.0), (0.0, 1e-9), (1e-9, 3e-9)])
def test_estimate_gap_is_taken_over_the_atoms_both_estimates_computed(dg, de):
    # Both estimates fail at atom 0; the gap at atom 1 used to read NaN.
    est = lions_derivative_grid(FAILS_AT_ATOM_0, make_sample([0.0, 0.5]), 2)
    assert est.failed_atoms == (0,)
    moved = _moved_at_atom_1(est, dg, de)
    want = max(abs(est.g_values[1] - moved.g_values[1]),
               abs(est.error_estimates[1] - moved.error_estimates[1]))
    assert want > 0.0
    assert verify._estimate_gap(est, moved) == want


@pytest.mark.parametrize("values, level", [([0.0, 0.5], 3), ([0.0, 0.75], 2)])
def test_estimate_gap_is_inf_between_different_grids(values, level):
    est = lions_derivative_grid(VARIANCE, make_sample([0.0, 0.5]), 2)
    other = lions_derivative_grid(VARIANCE, make_sample(values), level)
    assert verify._estimate_gap(est, other) == verify._estimate_gap(other, est) == math.inf


def test_estimate_gap_is_inf_between_different_failed_atoms():
    # Same level and grid atoms; only one estimate fails at atom 0.
    sample = make_sample([0.0, 0.5])
    est = lions_derivative_grid(FAILS_AT_ATOM_0, sample, 2)
    other = lions_derivative_grid(VARIANCE, sample, 2)
    assert est.failed_atoms == (0,) and other.failed_atoms == ()
    assert np.array_equal(est.grid_atoms, other.grid_atoms)
    assert verify._estimate_gap(est, other) == verify._estimate_gap(other, est) == math.inf


def test_law_invariance_fails_on_a_gap_beside_a_failed_atom():
    # Every transform's grid is the sample's, so each gap is atom 1's 1e-9.
    sample = make_sample([0.0, 0.5])
    est = lions_derivative_grid(FAILS_AT_ATOM_0, sample, 2)
    moved = _moved_at_atom_1(est, 1e-9, 0.0)
    report = check_law_invariance(FAILS_AT_ATOM_0, sample, moved, transforms=2)
    assert report.status == "fail"
    assert report.discrepancy == abs(est.g_values[1] - moved.g_values[1])


def test_law_invariance_keeps_a_nan_gap(monkeypatch):
    # A NaN gap used to be dropped by the fold, max(0.0, nan) being 0.0.
    monkeypatch.setattr(verify, "_estimate_gap", lambda a, b: math.nan)
    sample = make_sample([0.25, 0.75])
    est = lions_derivative_grid(VARIANCE, sample, 2)
    report = check_law_invariance(VARIANCE, sample, est, transforms=2)
    assert report.status == "fail"
    assert math.isnan(report.discrepancy)


# ---------------------------------------------------------------------------
# mass linearity
# ---------------------------------------------------------------------------

def _estimate(f, sample, level, schedule=None):
    """``f``'s grid of ``sample`` at ``level``, whose dyadic grid holds the
    sample's values, so that its law is the sample's; ``schedule`` defaults
    to ``StepSchedule()``."""
    est = lions_derivative_grid(f, sample, level, schedule or StepSchedule())
    law = law_of(sample)
    assert np.array_equal(est.law.atoms, law.atoms)
    assert np.array_equal(est.law.weights, law.weights)
    return est


HALF_HALF_SAMPLE = make_sample([0.0, 1.0])


def test_mass_linearity_variance_hand_values():
    report = check_mass_linearity(VARIANCE, _estimate(VARIANCE, HALF_HALF_SAMPLE, 0), 1)
    assert report.status == "pass"
    values = [case["value"] for case in report.cases]
    assert values == pytest.approx([0.125, 0.25, 0.375, 0.5], abs=1e-9)
    assert report.details["fitted_slope"] == pytest.approx(1.0, abs=1e-9)
    assert report.details["atom_derivative"] == pytest.approx(1.0, abs=1e-9)


def test_mass_linearity_constant_functional():
    f = make_linear([2.5])
    report = check_mass_linearity(f, _estimate(f, HALF_HALF_SAMPLE, 0), 0)
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
    sample = make_sample([-0.5, 0.25, 1.0], [0.25, 0.5, 0.25])
    est = _estimate(f, sample, 2)
    report = check_mass_linearity(f, est, 1)
    assert report.status == "pass"
    assert report.details["fit_residual_relative"] <= 1e-6
    # The atom derivative is the grid's, which probing the atom on its own
    # reproduces bit for bit.
    g, err = lions_derivative_at_atom(f, est.law, 1, est.schedule)
    assert report.details["atom_derivative"] == est.g_values[1] == g
    assert report.details["atom_derivative_error"] == est.error_estimates[1] == err


@pytest.mark.parametrize("i", [2, -1])
def test_mass_linearity_rejects_an_atom_index_out_of_range(i):
    # 2 used to reach numpy's IndexError before any check
    with pytest.raises(EstimatorError, match=f"atom index {i} out of range"):
        check_mass_linearity(VARIANCE, _estimate(VARIANCE, HALF_HALF_SAMPLE, 0), i)


def test_mass_linearity_fails_with_nan_when_a_probe_fails():
    est = _estimate(VARIANCE, make_sample([1e308, -1e308, 1e308]), 0)
    report = check_mass_linearity(VARIANCE, est, 1)
    assert report.status == "fail" and math.isnan(report.discrepancy)
    assert math.isnan(report.details["atom_derivative"])
    assert all(math.isnan(case["value"]) for case in report.cases)


def test_mass_linearity_fails_with_nan_when_the_squared_masses_underflow():
    # the moved masses square to 0, which used to raise ZeroDivisionError;
    # the level-55 grid holds 0.1 and 0.7
    est = _estimate(VARIANCE, make_sample([0.1, 0.7]), 55)
    report = check_mass_linearity(VARIANCE, est, 0, fractions=(1e-170,))
    assert report.status == "fail" and math.isnan(report.discrepancy)
    assert math.isnan(report.details["fitted_slope"])


def test_mass_linearity_fails_with_nan_at_an_atom_the_floor_flags():
    # At 1e6 the step floor raises level 20's steps to 1e-3 .. 8e-3, past
    # the gap 2^-20 to the neighbour, so the grid flags both atoms.  The
    # moved-mass probes know no such rule and give finite values; the
    # flagged atom derivative still fails the check.
    est = lions_derivative_grid(VARIANCE, make_sample([1e6, 1e6 + 2.0 ** -20]), 20)
    assert est.failed_atoms == (0, 1)
    report = check_mass_linearity(VARIANCE, est, 0)
    assert all(math.isfinite(case["value"]) for case in report.cases)
    assert report.status == "fail" and math.isnan(report.discrepancy)
    assert math.isnan(report.details["atom_derivative"])
    assert math.isnan(report.details["atom_derivative_error"])
    assert math.isnan(report.details["slope_tolerance"])


def test_mass_linearity_fails_under_abusive_schedule():
    # coarse one-sided 2-step schedule on a quartic kernel: the nonlinear
    # moved-mass terms survive extrapolation and break the 1e-6 fit residual
    f = make_interaction([0.0, 0.0, 0.0, 0.0, 1.0])
    sched = StepSchedule(eps0=8.0, count=2, mode="one_sided")
    report = check_mass_linearity(f, _estimate(f, HALF_HALF_SAMPLE, 0, sched), 1)
    assert report.status == "fail"
    assert report.details["schedule"] == dataclasses.asdict(sched)


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

def test_oracle_variance_random_sample():
    rng = np.random.default_rng(12)
    sample = random_sample(rng, size=256)
    report = check_against_oracle(VARIANCE, lions_derivative_grid(VARIANCE, sample, 4))
    assert report.status == "pass"
    assert report.details["sup_error"] <= 1e-8


def test_oracle_cubic_taylor_bound():
    f = make_linear([0.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(14)
    sample = random_sample(rng, size=64, lo=-1.0, hi=1.0)
    sched = StepSchedule.for_level(3)
    report = check_against_oracle(f, lions_derivative_grid(f, sample, 3, sched))
    assert report.status == "pass"
    eps_min = sched.steps(at=1.0)[-1]
    assert report.tolerance <= 1.5 * eps_min ** 2 * 1.2  # phi''' = 6, bound ~ eps^2
    assert report.details["sup_error"] <= report.tolerance


def test_oracle_mean_square_constant_g():
    rng = np.random.default_rng(15)
    sample = random_sample(rng, size=128)
    f = make_mean_square()
    report = check_against_oracle(f, lions_derivative_grid(f, sample, 4))
    assert report.status == "pass"
    estimates = [case["estimated"] for case in report.cases]
    assert max(estimates) - min(estimates) <= 1e-10


def test_oracle_requires_closed_form():
    f = Functional(name="opaque", params={}, evaluate=lambda mu: 0.0)
    sample = make_sample([0.0, 1.0])
    est = lions_derivative_grid(f, sample, 2)
    with pytest.raises(NoClosedFormError):
        check_against_oracle(f, est)


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
# parallel verify: the same reports, and errors, on any number of CPUs
# ---------------------------------------------------------------------------

ONE_SIDED = StepSchedule(eps0=0.125, mode="one_sided")
# One-valued sample at 0.5: a one-sided probe along direction eta moves the
# atom left exactly where eta < 0.  The sign patterns of the first four
# standard normal draws: seed 1 (+ + + -), seed 3 (+ - + -), seed 12 (- + + +).
AT_HALF = make_sample([0.5])


def _left_probe(moved_left):
    """The variance, except ``moved_left(atom)`` where the atom lies left of 0.5."""
    def evaluate(mu):
        atom = mu.atoms[0].item()
        return moved_left(atom) if atom < 0.5 else VARIANCE(mu)
    return Functional(name="left_probe", params={}, evaluate=evaluate)


def _raise_moved_left(atom):
    raise ValueError(f"moved left to {atom!r}")


def _on_cpus(monkeypatch, cpus, run):
    """``run()`` with ``cpus`` usable CPUs (None: this machine's); no child
    process outlives it."""
    try:
        with monkeypatch.context() as m:
            if cpus is not None:
                m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                          raising=False)
            return run()
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _both_reports(f, sample, level, schedule, seed):
    est = lions_derivative_grid(f, sample, level, schedule)
    return [json.dumps(r.to_dict()) for r in (
        check_structure(f, sample, est, directions=7, seed=seed),
        check_law_invariance(f, sample, est, transforms=5, seed=seed),
    )]


CPU_CASES = {
    "variance": (VARIANCE, random_sample(np.random.default_rng(5), size=40), 3, None, 4),
    "interaction": (make_interaction([0.0, 0.0, 0.5]),
                    random_sample(np.random.default_rng(6), size=24), 3, None, 5),
    "failing_probes": (_left_probe(lambda atom: math.nan), AT_HALF, 2, ONE_SIDED, 3),
}


@pytest.mark.parametrize("cpus", [None, 2, 3])
@pytest.mark.parametrize("case", sorted(CPU_CASES))
def test_reports_do_not_depend_on_the_number_of_cpus(monkeypatch, cpus, case):
    f, sample, level, schedule, seed = CPU_CASES[case]
    run = lambda: _both_reports(f, sample, level, schedule, seed)  # noqa: E731
    serial = _on_cpus(monkeypatch, 1, run)
    assert _on_cpus(monkeypatch, cpus, run) == serial
    if case == "failing_probes":
        # NaN rows in this process's share and in a child's
        lhs = [c["lhs_directional"] for c in json.loads(serial[0])["cases"]]
        assert [math.isnan(v) for v in lhs[:4]] == [False, True, False, True]


@pytest.mark.parametrize("cpus", [2, 3])
# Leftward directions: seed 1, 3 only; seed 3, 1 and 3; seed 12, 0 only.
@pytest.mark.parametrize("seed", [1, 3, 12])
def test_an_error_in_any_share_is_the_plain_loops_error(monkeypatch, cpus, seed):
    est = lions_derivative_grid(VARIANCE, AT_HALF, 2, ONE_SIDED)
    f = _left_probe(_raise_moved_left)
    run = lambda: check_structure(f, AT_HALF, est, directions=4, seed=seed)  # noqa: E731
    with pytest.raises(ValueError, match="moved left to") as serial:
        _on_cpus(monkeypatch, 1, run)
    with pytest.raises(ValueError) as forked:
        _on_cpus(monkeypatch, cpus, run)
    assert str(forked.value) == str(serial.value)


def test_a_share_whose_child_dies_or_cannot_start_runs_here(monkeypatch):
    f, sample, level, schedule, seed = CPU_CASES["variance"]
    want = _on_cpus(monkeypatch, 1, lambda: _both_reports(f, sample, level, schedule, seed))
    parent = os.getpid()

    def evaluate(mu):
        if os.getpid() != parent:
            os._exit(3)
        return VARIANCE(mu)

    dies = Functional(name="variance", params={}, evaluate=evaluate)
    assert _on_cpus(monkeypatch, 3, lambda: _both_reports(
        dies, sample, level, schedule, seed)) == want

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _on_cpus(monkeypatch, 3, lambda: _both_reports(
        f, sample, level, schedule, seed)) == want


def test_sigchld_ignored_changes_no_report_and_no_error(monkeypatch):
    # Where SIGCHLD is ignored, the system reaps each child as it exits.
    f, sample, level, schedule, seed = CPU_CASES["variance"]
    run = lambda: _both_reports(f, sample, level, schedule, seed)  # noqa: E731
    want = _on_cpus(monkeypatch, 1, run)
    parent = os.getpid()

    def evaluate(mu):
        if os.getpid() == parent:
            time.sleep(0.2)  # the children finish and are reaped meanwhile
            raise ValueError("failed in the calling process")
        return VARIANCE(mu)

    fails_here = Functional(name="fails_here", params={}, evaluate=evaluate)
    est = lions_derivative_grid(VARIANCE, sample, level)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _on_cpus(monkeypatch, 3, run) == want
        with pytest.raises(ValueError, match="failed in the calling process"):
            _on_cpus(monkeypatch, 3, lambda: check_structure(
                fails_here, sample, est, directions=7, seed=seed))
    finally:
        signal.signal(signal.SIGCHLD, previous)


# ---------------------------------------------------------------------------
# negative controls: each check rejects a wrong derivative
# ---------------------------------------------------------------------------

CONTROL_SAMPLE = random_sample(np.random.default_rng(3), size=16)
BUILTINS = {
    "linear": make_linear([0.0, 0.0, 0.0, 1.0]),
    "mean_square": make_mean_square(),
    "variance": VARIANCE,
    "interaction": make_interaction([0.0, 0.0, 0.5]),
}
MISFITS = {
    "scaled": lambda g: g * (1.0 + 1e-5),
    "shifted": lambda g: g + 1e-4,
    "reversed": lambda g: g[::-1],
}


def _fails_finitely(report):
    assert report.status == "fail"
    assert math.isfinite(report.discrepancy)
    assert report.discrepancy > report.tolerance


# mean_square's g is constant, so reversing it leaves it right.
@pytest.mark.parametrize("name, misfit", [
    (name, misfit) for name in sorted(BUILTINS) for misfit in sorted(MISFITS)
    if (name, misfit) != ("mean_square", "reversed")])
def test_structure_rejects_a_wrong_derivative(name, misfit):
    f = BUILTINS[name]
    est = lions_derivative_grid(f, CONTROL_SAMPLE, 5)
    assert check_structure(f, CONTROL_SAMPLE, est, directions=16).status == "pass"
    wrong = dataclasses.replace(est, g_values=MISFITS[misfit](est.g_values))
    _fails_finitely(check_structure(f, CONTROL_SAMPLE, wrong, directions=16))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_oracle_rejects_a_wrong_closed_form(name):
    f = BUILTINS[name]
    est = lions_derivative_grid(f, CONTROL_SAMPLE, 5)
    assert check_against_oracle(f, est).status == "pass"
    true_g = f.analytic_derivative
    wrong = dataclasses.replace(
        f, analytic_derivative=lambda mu, xs: true_g(mu, xs) * (1.0 + 1e-4))
    _fails_finitely(check_against_oracle(wrong, est))


def _left_to_right_merge(atoms, weights):
    """make_measure, except that equal atoms add their weights one by one in
    the order given: the merged weights then depend on the sample order."""
    order = np.argsort(np.asarray(atoms, dtype=float), kind="stable")
    merged: dict[float, float] = {}
    for x, p in zip(np.asarray(atoms, dtype=float)[order].tolist(),
                    np.asarray(weights, dtype=float)[order].tolist()):
        merged[x] = merged.get(x, 0.0) + p
    masses = list(merged.values())
    return DiscreteMeasure(np.array(list(merged)), np.array(masses) / math.fsum(masses))


def test_law_invariance_rejects_an_order_dependent_merge(monkeypatch):
    sample = random_sample(np.random.default_rng(3), size=200, weighted=True)
    est = lions_derivative_grid(VARIANCE, sample, 3)
    assert check_law_invariance(VARIANCE, sample, est, transforms=4).status == "pass"
    monkeypatch.setattr(measure, "make_measure", _left_to_right_merge)
    est = lions_derivative_grid(VARIANCE, sample, 3)
    _fails_finitely(check_law_invariance(VARIANCE, sample, est, transforms=4))


# ---------------------------------------------------------------------------
# report contract
# ---------------------------------------------------------------------------

def test_reports_serialize_to_json():
    sample = balanced_binary_sample(32)
    est = lions_derivative_grid(VARIANCE, sample, 2)
    for report in (
        check_structure(VARIANCE, sample, est, directions=2, seed=0),
        check_law_invariance(VARIANCE, sample, est, transforms=2, seed=0),
        check_mass_linearity(VARIANCE, _estimate(VARIANCE, HALF_HALF_SAMPLE, 0), 1),
        check_against_oracle(VARIANCE, est),
    ):
        payload = json.dumps(report.to_dict())
        back = json.loads(payload)
        assert back["name"] == report.name
        assert (back["discrepancy"] <= back["tolerance"]) == (report.status == "pass")
