"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here, derived from the scheme's error model, never
calibrated after the fact.
"""

import math
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

from lionsderiv import (
    StepSchedule,
    atom_shift_quotients,
    check_law_invariance,
    check_mass_linearity,
    check_structure,
    convergence_study,
    dyadic_quantize,
    law_of,
    lions_derivative_at_atom,
    lions_derivative_grid,
    make_interaction,
    make_linear,
    make_measure,
    make_mean_square,
    make_sample,
    make_variance,
    refine_until_converged,
    wasserstein2,
)
from lionsderiv.cli import main

from conftest import random_measure, random_sample

DATA = Path(__file__).parent / "data"

VARIANCE = make_variance()
MEAN_SQUARE = make_mean_square()
CUBIC = make_linear([0.0, 0.0, 0.0, 1.0])
INTERACTION_SQ = make_interaction([0.0, 0.0, 0.5])

LEVEL = 6  # quantization level used by the oracle-equivalence criteria


def _line(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _measure_family(count=50, seed=910):
    rng = np.random.default_rng(seed)
    return [random_measure(rng, max_atoms=16, lo=-2.0, hi=2.0) for _ in range(count)]


def _sup_oracle_error(f, mu):
    sample = make_sample(mu.atoms, mu.weights)
    est = lions_derivative_grid(f, sample, LEVEL)
    mu_n = law_of(dyadic_quantize(sample, LEVEL))
    gaps = [abs(float(g) - f.analytic_g(mu_n, float(x)))
            for x, g in zip(est.grid_atoms, est.g_values)]
    return max(gaps)


def test_criterion_01_oracle_equivalence_quadratics():
    worst = 0.0
    for mu in _measure_family():
        for f in (VARIANCE, MEAN_SQUARE):
            worst = max(worst, _sup_oracle_error(f, mu))
    _line(1, "oracle equivalence, quadratic family", worst <= 1e-8,
          f"sup error {worst:.3e} <= 1e-08 over 50 measures x 2 functionals")


def test_criterion_02_oracle_equivalence_cubic():
    # default level-coupled schedule; phi''' = 6 so the Taylor budget is
    # 1.5 * eps_min^2 * 6/6
    eps_min = StepSchedule.for_level(LEVEL).steps(at=2.0)[-1]
    budget = 1.5 * eps_min ** 2
    worst = max(_sup_oracle_error(CUBIC, mu) for mu in _measure_family())
    _line(2, "oracle equivalence, cubic potential", worst <= budget,
          f"sup error {worst:.3e} <= {budget:.3e}")


def test_criterion_03_structural_identity():
    rng = np.random.default_rng(301)
    sample = random_sample(rng, size=48)
    worst = ("", 0.0, 0.0)
    ok = True
    for f in (VARIANCE, INTERACTION_SQ, CUBIC):
        est = lions_derivative_grid(f, sample, 3)
        report = check_structure(f, sample, est, directions=32, seed=303)
        ok &= report.status == "pass"
        if report.discrepancy >= worst[1]:
            worst = (f.name, report.discrepancy, report.tolerance)
    _line(3, "structural identity over 32 directions", ok,
          f"worst {worst[0]} discrepancy {worst[1]:.3e} <= max(1e-6, 4x err) = {worst[2]:.3e}")


def _level_holding(values) -> int:
    """The least level whose dyadic grid holds every value."""
    return max(Fraction(float(v)).denominator.bit_length() - 1 for v in values)


def test_criterion_04_mass_linearity_all_builtins():
    rng = np.random.default_rng(404)
    builtins = (VARIANCE, MEAN_SQUARE, CUBIC, INTERACTION_SQ)
    ok = True
    worst_residual = 0.0
    for f in builtins:
        for mu in (make_measure([-0.5, 0.25, 1.0], [0.25, 0.5, 0.25]),
                   random_measure(rng, max_atoms=8),
                   random_measure(rng, max_atoms=8)):
            sample = make_sample(mu.atoms, mu.weights)
            est = lions_derivative_grid(f, sample, _level_holding(mu.atoms), StepSchedule())
            assert np.array_equal(est.grid_atoms, mu.atoms)
            i = int(np.argmax(est.law.weights))
            report = check_mass_linearity(f, est, i)
            ok &= report.status == "pass"
            worst_residual = max(worst_residual,
                                 report.details["fit_residual_relative"])
    _line(4, "mass linearity (all built-ins)", ok,
          f"worst fit residual {worst_residual:.3e} <= 1e-06, slopes within error estimates")


def test_criterion_05_law_invariance_bitwise():
    rng = np.random.default_rng(505)
    sample = random_sample(rng, size=256, weighted=True)
    est = lions_derivative_grid(VARIANCE, sample, 4)
    report = check_law_invariance(VARIANCE, sample, est, transforms=20, seed=506)
    n_perm = sum(1 for c in report.cases if c["kind"] == "permutation")
    n_split = sum(1 for c in report.cases if c["kind"] == "weight_split")
    ok = (report.status == "pass" and report.discrepancy == 0.0
          and n_perm == 20 and n_split == 20)
    _line(5, "law invariance, bitwise", ok,
          f"max difference {report.discrepancy!r} over {n_perm} permutations "
          f"+ {n_split} weight splits of a 256-point sample")


def test_criterion_06_quantization_bound_and_floor_semantics():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        sample = random_sample(rng, size=int(rng.integers(4, 33)),
                               lo=-4.0, hi=4.0, weighted=bool(rng.integers(2)))
        base = law_of(sample)
        for n in range(0, 13):
            q = dyadic_quantize(sample, n)
            d = wasserstein2(base, law_of(q))
            worst = max(worst, d * 2.0 ** n)  # normalized: must stay <= 1
            for v, w in zip(sample.values, q.values):
                exact = Fraction(math.floor(Fraction(float(v)) * (1 << n)), 1 << n)
                assert Fraction(float(w)) == exact
    _line(6, "quantization W2 bound + exact floor semantics", worst <= 1.0,
          f"max W2 * 2^n = {worst:.6f} <= 1 over 50 samples, n in 0..12")


def test_criterion_07_convergence_rate():
    rng = np.random.default_rng(2026)
    sample = make_sample(rng.uniform(0.0, 1.0, size=512))
    rows = convergence_study(VARIANCE, sample, range(2, 9))
    diffs = [row.successive_difference for row in rows[1:]]
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    est, report = refine_until_converged(VARIANCE, sample, tol=1e-5,
                                         n_min=2, n_max=24)
    ok = all(r >= 1.8 for r in ratios) and report.converged
    _line(7, "convergence rate", ok,
          f"successive-difference ratios {['%.2f' % r for r in ratios]} all >= 1.8; "
          f"converged at level {est.level.n} with tol 1e-05")


def test_criterion_08_cross_functional_identity():
    rng = np.random.default_rng(808)
    ok = True
    worst_value_gap = 0.0
    worst_deriv_gap = 0.0
    for _ in range(100):
        mu = random_measure(rng, max_atoms=12, lo=-2.0, hi=2.0)
        a, b = INTERACTION_SQ(mu), VARIANCE(mu)
        value_gap = abs(a - b) / max(abs(b), 1e-30)
        worst_value_gap = max(worst_value_gap, value_gap)
        ok &= value_gap <= 1e-12
        i = int(np.argmax(mu.weights))
        gi, ei = lions_derivative_at_atom(INTERACTION_SQ, mu, i)
        gv, ev = lions_derivative_at_atom(VARIANCE, mu, i)
        gap = abs(gi - gv)
        tol = max(1e-6, 4.0 * (ei + ev))
        worst_deriv_gap = max(worst_deriv_gap, gap)
        ok &= gap <= tol
    _line(8, "cross-functional identity (interaction u^2/2 = variance)", ok,
          f"worst value gap {worst_value_gap:.3e} rel <= 1e-12, "
          f"worst derivative gap {worst_deriv_gap:.3e} within error estimates")


def test_criterion_09_one_sided_fidelity():
    mu = make_measure([0.0, 1.0], [0.5, 0.5])
    sched = StepSchedule(mode="one_sided")
    quots = atom_shift_quotients(VARIANCE, mu, 1, sched)
    steps = sched.steps(at=1.0)
    quot_ok = all(abs(q - (2.0 + eps) / 2.0) <= 1e-12
                  for q, eps in zip(quots, steps))
    value, _ = lions_derivative_at_atom(VARIANCE, mu, 1, sched)
    limit_ok = abs(value - 1.0) <= 1e-9
    _line(9, "one-sided fidelity mode", quot_ok and limit_ok,
          f"raw quotients match (2+eps)/2 to 1e-12, extrapolate to {value!r}")


def test_criterion_10_cli_determinism_and_contracts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("golden_sample.csv", "golden_estimate_config.json",
                 "golden_study_config.json"):
        shutil.copy(DATA / name, tmp_path / name)

    ok = True
    notes = []

    code = main(["estimate", "--config", "golden_estimate_config.json",
                 "--input", "golden_sample.csv"])
    ok &= code == 0
    for produced in ("golden_grid.csv", "golden_grid.report.json"):
        match = (tmp_path / produced).read_bytes() == (DATA / produced).read_bytes()
        ok &= match
        notes.append(f"{produced} {'==' if match else '!='} golden")

    code = main(["study", "--config", "golden_study_config.json",
                 "--input", "golden_sample.csv"])
    ok &= code == 0
    match = (tmp_path / "golden_study.csv").read_bytes() == \
        (DATA / "golden_study.csv").read_bytes()
    ok &= match
    notes.append(f"golden_study.csv {'==' if match else '!='} golden")

    # second run is bitwise identical
    (tmp_path / "golden_grid.csv").unlink()
    code = main(["estimate", "--config", "golden_estimate_config.json",
                 "--input", "golden_sample.csv"])
    ok &= code == 0
    ok &= (tmp_path / "golden_grid.csv").read_bytes() == \
        (DATA / "golden_grid.csv").read_bytes()

    # exit-code partition
    (tmp_path / "bad.csv").write_text("0.5\nnot-a-number\n")
    ok &= main(["estimate", "--input", "bad.csv",
                "--functional", '{"name":"variance"}']) == 1
    ok &= main(["estimate", "--input", "golden_sample.csv",
                "--functional", '{"name":"variance"}', "--tol", "-1"]) == 2
    ok &= main(["estimate", "--input", "golden_sample.csv",
                "--functional", '{"name":"variance"}',
                "--levels", "2..3", "--tol", "1e-30"]) == 3
    notes.append("exit codes 1/2/3 verified")

    _line(10, "CLI determinism and contracts", ok, "; ".join(notes))
