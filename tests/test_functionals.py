"""Built-in functionals, closed forms, and the registry.

Oracle checklist:
- Closed-form derivatives validated against a plain central difference of
  the evaluation map, written here and independent of the estimator module.
- Cross-functional identity: interaction with kernel u^2/2 equals variance.
"""

import math

import numpy as np
import pytest

from lionsderiv import (
    DiscreteMeasure,
    FunctionalConfigError,
    FunctionalRegistry,
    NoClosedFormError,
    PotentialSpec,
    REGISTRY,
    functional_from_config,
    law_of,
    lookup,
    make_interaction,
    make_linear,
    make_measure,
    make_mean_square,
    make_sample,
    make_variance,
)

import lionsderiv.functionals as functionals_module
from conftest import random_measure

HALF_HALF = make_measure([0.0, 1.0], [0.5, 0.5])


def central_difference_g(f, mu, i, eps=1e-6):
    """Independent oracle: one plain central difference, no extrapolation."""
    up = np.array(mu.atoms)
    up[i] += eps
    down = np.array(mu.atoms)
    down[i] -= eps
    p = float(mu.weights[i])
    return (f(make_measure(up, mu.weights)) - f(make_measure(down, mu.weights))) / (2 * eps * p)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_linear_square_potential():
    f = make_linear([0.0, 0.0, 1.0])
    assert f(HALF_HALF) == 0.5


def test_variance_value():
    assert make_variance()(HALF_HALF) == 0.25


def test_mean_square_value():
    assert make_mean_square()(HALF_HALF) == 0.25


def test_interaction_value_matches_variance_by_hand():
    f = make_interaction([0.0, 0.0, 0.5])
    assert f(HALF_HALF) == pytest.approx(0.25, rel=1e-14)


def test_eval_is_law_level():
    f = make_variance()
    s = make_sample([0.1, 0.9, 0.1, 0.9])
    perm = make_sample([0.9, 0.1, 0.9, 0.1])
    assert f(law_of(s)) == f(law_of(perm))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_variance_analytic_g():
    f = make_variance()
    assert f.analytic_g(HALF_HALF, 1.0) == 1.0
    assert f.analytic_g(HALF_HALF, 0.0) == -1.0


def test_mean_square_analytic_g_constant():
    f = make_mean_square()
    assert f.analytic_g(HALF_HALF, 0.0) == 1.0
    assert f.analytic_g(HALF_HALF, 1.0) == 1.0


def test_linear_analytic_g():
    f = make_linear([0.0, 0.0, 1.0])
    assert f.analytic_g(HALF_HALF, 3.0) == 6.0


def test_no_closed_form_signals():
    from lionsderiv import Functional
    f = Functional(name="custom", params={}, evaluate=lambda mu: 0.0)
    assert not f.has_closed_form
    with pytest.raises(NoClosedFormError):
        f.analytic_g(HALF_HALF, 0.0)


@pytest.mark.parametrize("builder", [
    lambda: make_linear([0.5, -1.0, 2.0, 0.25]),
    make_mean_square,
    make_variance,
    lambda: make_interaction([0.0, 0.3, 0.5, -0.1]),
])
def test_analytic_g_matches_independent_finite_difference(builder):
    f = builder()
    rng = np.random.default_rng(2024)
    for _ in range(25):
        mu = random_measure(rng, max_atoms=8)
        for i in (0, mu.n_atoms - 1, mu.n_atoms // 2):
            fd = central_difference_g(f, mu, i)
            exact = f.analytic_g(mu, float(mu.atoms[i]))
            assert fd == pytest.approx(exact, abs=1e-6, rel=1e-6)


def test_opposite_infinite_terms_sum_to_nan():
    # Terms +inf and -inf have no exact sum; math.fsum raises on them.
    mu = make_measure([-10.0, 10.0], [0.5, 0.5])
    assert math.isnan(make_linear([0.0, 1e308])(mu))
    assert math.isnan(make_interaction([0.0, 1e308])(mu))
    assert math.isnan(make_interaction([0.0, 0.0, 1e307]).analytic_g(mu, 0.0))


@pytest.mark.parametrize("config", [
    {"name": "linear", "phi": [0, 0, 1e308]},
    {"name": "interaction", "w": [0, 0, 1e308]},
])
def test_overflowing_derivative_leaves_the_closed_form_out(config):
    f = functional_from_config(config)
    assert math.isfinite(f(HALF_HALF))
    assert not f.has_closed_form
    with pytest.raises(NoClosedFormError):
        f.analytic_g(HALF_HALF, 0.0)


def test_interaction_square_kernel_equals_variance_everywhere():
    inter = make_interaction([0.0, 0.0, 0.5])
    var = make_variance()
    rng = np.random.default_rng(5)
    for _ in range(100):
        mu = random_measure(rng)
        a, b = inter(mu), var(mu)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [[0.0, 0.0, 0.5], [0.0, 1.0, 0.0, -0.5], [0.3, -0.2, 0.5]])
def test_interaction_probes_of_several_atoms_on_one_base_are_full_evaluations(
        kernel, monkeypatch):
    # One call serves probes that move different atoms, in any order, and
    # the same atom again after another, in one chunk of probes or in many.
    f = make_interaction(kernel)
    mu = random_measure(np.random.default_rng(11), max_atoms=9)
    atoms = mu.atoms
    indices, positions, want = [], [], []
    for i in (0, 1, 1, mu.n_atoms - 1, 0, mu.n_atoms // 2, 1):
        lo = atoms[i - 1] if i > 0 else atoms[i] - 1.0
        hi = atoms[i + 1] if i + 1 < mu.n_atoms else atoms[i] + 1.0
        for y in (0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi):
            moved = np.array(atoms)
            moved[i] = y
            indices.append(i)
            positions.append(y)
            want.append(f(DiscreteMeasure(moved, mu.weights)))
    for block in (functionals_module._PAIR_BLOCK, 3 * mu.n_atoms):
        monkeypatch.setattr(functionals_module, "_PAIR_BLOCK", block)
        got = f.shift_evaluator(mu, np.array(indices), np.array(positions))
        assert got.tobytes() == np.array(want).tobytes()


def test_potential_evaluation_and_derivative():
    phi = PotentialSpec((1.0, 2.0, 3.0))  # 1 + 2x + 3x^2
    assert phi.values(2.0) == 1.0 + 4.0 + 12.0
    dphi = phi.derivative()
    assert dphi.coefficients == (2.0, 6.0)
    assert PotentialSpec((4.0,)).derivative().coefficients == (0.0,)
    assert PotentialSpec((0.0, 0.0, 1e308)).derivative() is None  # 2e308 overflows


def test_potential_degree_cap():
    with pytest.raises(FunctionalConfigError):
        PotentialSpec(tuple(float(i) for i in range(12)))
    with pytest.raises(FunctionalConfigError):
        PotentialSpec((math.inf,))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_round_trip():
    f = lookup("linear", phi=(0.0, 0.0, 1.0))
    again = lookup("linear", phi=(0.0, 0.0, 1.0))
    assert f == again
    assert f == make_linear([0.0, 0.0, 1.0])


def test_registry_unknown_name():
    with pytest.raises(FunctionalConfigError):
        lookup("nonexistent")


def test_registry_builtin_set():
    assert REGISTRY.names() == ("interaction", "linear", "mean_square", "variance")


def test_registry_rejects_duplicates():
    reg = FunctionalRegistry()
    reg.register("custom", make_variance)
    with pytest.raises(FunctionalConfigError):
        reg.register("custom", make_variance)


# ---------------------------------------------------------------------------
# config form
# ---------------------------------------------------------------------------

def test_functional_from_config_variants():
    assert functional_from_config({"name": "variance"}).name == "variance"
    f = functional_from_config({"name": "linear", "phi": [0, 0, 1]})
    assert f.params["phi"] == (0.0, 0.0, 1.0)
    g = functional_from_config({"name": "interaction", "w": [0, 0, 0.5]})
    assert g.params["w"] == (0.0, 0.0, 0.5)


@pytest.mark.parametrize("bad", [
    {},
    {"name": "nope"},
    {"name": "variance", "phi": [1]},
    {"name": "linear"},
    {"name": "linear", "phi": []},
    {"name": "linear", "phi": ["x"]},
    {"name": "interaction", "w": [0, 1], "extra": 2},
    {"name": ["variance"]},
])
def test_functional_from_config_rejects(bad):
    with pytest.raises(FunctionalConfigError):
        functional_from_config(bad)
