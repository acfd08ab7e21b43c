"""Built-in functionals, closed forms, and the name -> factory table.

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
    Functional,
    FunctionalConfigError,
    NoClosedFormError,
    PotentialSpec,
    functional_from_config,
    law_of,
    make_interaction,
    make_linear,
    make_measure,
    make_mean_square,
    make_sample,
    make_variance,
    register,
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
# registry: register and functional_from_config
# ---------------------------------------------------------------------------

@pytest.fixture
def factories(monkeypatch):
    """A private copy of the name -> factory table, so that no test leaves
    a name registered."""
    monkeypatch.setattr(functionals_module, "_FACTORIES", dict(functionals_module._FACTORIES))


def test_registry_round_trip():
    f = functional_from_config({"name": "linear", "phi": [0.0, 0.0, 1.0]})
    again = functional_from_config({"name": "linear", "phi": [0.0, 0.0, 1.0]})
    assert f == again
    assert f == make_linear([0.0, 0.0, 1.0])


def test_registry_unknown_name():
    with pytest.raises(FunctionalConfigError):
        functional_from_config({"name": "nonexistent"})


def test_registry_builtin_set():
    with pytest.raises(FunctionalConfigError, match=r"\(known: interaction, linear, "
                                                    r"mean_square, variance\)$"):
        functional_from_config({"name": "nonexistent"})


def test_registry_rejects_duplicates(factories):
    assert register("custom", make_variance) == "custom"
    with pytest.raises(FunctionalConfigError, match="'custom' already registered"):
        register("custom", make_variance)


def shifted_variance(offset, scale=(1.0,)):
    """A user family: variance plus a constant, with one required and one
    optional parameter."""
    base = make_variance()
    return Functional(name="shifted_variance", params={"offset": offset, "scale": scale},
                      evaluate=lambda mu: scale[0] * base(mu) + offset[0])


def test_a_registered_family_is_built_from_its_config(factories):
    assert register("shifted_variance", shifted_variance) == "shifted_variance"
    f = functional_from_config({"name": "shifted_variance", "offset": [2]})
    assert f == shifted_variance((2.0,))
    assert f.params == {"offset": (2.0,), "scale": (1.0,)}
    assert f(HALF_HALF) == 2.25
    g = functional_from_config({"name": "shifted_variance", "offset": [0], "scale": [4]})
    assert g(HALF_HALF) == 1.0
    with pytest.raises(FunctionalConfigError, match=r"known: .*, shifted_variance,"):
        functional_from_config({"name": "nope"})


def test_register_rejects_a_second_family_and_a_built_in_name(factories):
    register("shifted_variance", shifted_variance)
    with pytest.raises(FunctionalConfigError,
                       match=r"^functional 'shifted_variance' already registered$"):
        register("shifted_variance", make_variance)
    for name in ("linear", "mean_square", "variance", "interaction"):
        with pytest.raises(FunctionalConfigError,
                           match=rf"^functional '{name}' already registered$"):
            register(name, shifted_variance)
    assert functional_from_config({"name": "variance"}) == make_variance()
    assert functional_from_config({"name": "shifted_variance", "offset": [1]}).params[
        "offset"] == (1.0,)


def test_a_registered_family_checks_its_config_keys(factories):
    register("shifted_variance", shifted_variance)
    with pytest.raises(FunctionalConfigError,
                       match=r"^functional 'shifted_variance' requires keys: \['offset'\]$"):
        functional_from_config({"name": "shifted_variance", "scale": [2]})
    with pytest.raises(FunctionalConfigError,
                       match=r"^unknown keys for functional 'shifted_variance': \['w'\]$"):
        functional_from_config({"name": "shifted_variance", "offset": [1], "w": [1]})


def test_a_factorys_star_parameters_are_no_config_keys(factories):
    # **kw used to count as a required key named "kw".
    register("scaled", lambda **kw: make_variance())
    assert functional_from_config({"name": "scaled"}) == make_variance()
    with pytest.raises(FunctionalConfigError,
                       match=r"^unknown keys for functional 'scaled': \['kw'\]$"):
        functional_from_config({"name": "scaled", "kw": [1]})
    register("gathered", lambda *args, offset=(0.0,): shifted_variance(offset))
    assert functional_from_config({"name": "gathered", "offset": [2]}).params == {
        "offset": (2.0,), "scale": (1.0,)}
    with pytest.raises(FunctionalConfigError,
                       match=r"^unknown keys for functional 'gathered': \['args'\]$"):
        functional_from_config({"name": "gathered", "args": [1]})


def test_register_takes_only_a_string_name(factories):
    # A name of another type would break the sorted list of known names.
    with pytest.raises(FunctionalConfigError, match=r"^functional name must be a string, got 5$"):
        register(5, make_variance)
    with pytest.raises(FunctionalConfigError, match=r"^unknown functional 'nope' \(known: "):
        functional_from_config({"name": "nope"})


def test_the_table_is_restored_after_a_registering_test():
    with pytest.raises(FunctionalConfigError, match="unknown functional 'custom'"):
        functional_from_config({"name": "custom"})
    with pytest.raises(FunctionalConfigError, match="unknown functional 'shifted_variance'"):
        functional_from_config({"name": "shifted_variance", "offset": [1]})


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
