"""Any library call ends in a value or a documented error.

The public entry points of ``measure``, ``estimator`` and ``verify`` are
called on extreme values, weights, levels, schedules, fractions, indices and
directions, as the CLI's fuzz property calls the commands: each call must
return, or raise one of the errors its documentation names.  A numpy
warning that escapes an errstate block fails the property too.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lionsderiv import (
    Direction,
    DiscreteMeasure,
    EmpiricalSample,
    EstimatorError,
    Functional,
    MeasureError,
    NoClosedFormError,
    ProbeFailureError,
    SampleFormatError,
    StepSchedule,
    atom_shift_quotients,
    check_against_oracle,
    check_law_invariance,
    check_mass_linearity,
    check_structure,
    convergence_study,
    directional_derivative,
    dyadic_quantize,
    functional_from_config,
    g_tilde_values,
    law_of,
    lions_derivative_at_atom,
    lions_derivative_grid,
    make_measure,
    make_sample,
    mean,
    partial_mass_perturbation,
    read_sample_file,
    refine_until_converged,
    register,
    wasserstein2,
)
from lionsderiv import functionals

from conftest import examples

extreme_values = st.one_of(
    st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
    st.integers(-64, 64).map(float),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e300, 1e16, 1e163,
                     5e-324, -0.0, 1e6, 1e6 + 1]),
)
extreme_weights = st.one_of(
    st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300, 1e-30, 0.5, 1.0, 1e300]),
    st.floats(1e-320, 1.0, allow_nan=False, allow_infinity=False),
)
# Any float, or an int: where a schedule field, fraction or tolerance is
# out of its range, the call names the error it raises.
any_number = st.one_of(st.floats(), st.integers(-4, 4),
                       st.sampled_from([0.125, 0.5, 1.0, 1e-160, 1e-9, 1e300]))
schedules = st.fixed_dictionaries({
    "eps0": any_number, "ratio": any_number, "count": st.integers(0, 6),
    "mode": st.sampled_from(["central", "one_sided", "backward"])})


def make_sin_sum():
    """A user functional: the exact sum of w * sin(x) over the atoms.  It
    has no shift evaluator and no closed form, so every probe of it is a
    whole moved measure (``_mass_moved`` and ``make_measure``)."""
    return Functional(name="sin_sum", params={},
                      evaluate=lambda mu: math.fsum(mu.weights * np.sin(mu.atoms)))


@pytest.fixture(scope="module", autouse=True)
def _sin_sum_registered():
    """``sin_sum`` registered as a user registers a family, on a copy of the
    name -> factory table that is restored after this module."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(functionals, "_FACTORIES", dict(functionals._FACTORIES))
        register("sin_sum", make_sin_sum)
        yield


FUNCTIONALS = (
    {"name": "variance"},
    {"name": "mean_square"},
    {"name": "linear", "phi": [0, 1, 0, 1]},
    {"name": "linear", "phi": [1e308, 1e308]},
    {"name": "interaction", "w": [0, 0, 0.5]},
    {"name": "interaction", "w": [0, 1, 0, -0.25]},
    {"name": "interaction", "w": [1e300, -1e300, 1e300]},
    {"name": "sin_sum"},
)


def _outcome(errors, call, *args, **kwargs):
    """``call(*args, **kwargs)``, or None where it raises one of ``errors``;
    any other exception fails the property."""
    try:
        return call(*args, **kwargs)
    except errors:
        return None


def _weights(values, weights, weighted):
    """``weights`` repeated to one per value, and their normalized copy
    where the sample is ``weighted`` (else None)."""
    weights = (weights * len(values))[:len(values)]
    total = math.fsum(weights)
    return weights, ([w / total for w in weights] if weighted else None)


@given(values=st.lists(extreme_values, min_size=1, max_size=6),
       weights=st.lists(extreme_weights, min_size=1, max_size=6),
       weighted=st.booleans(),
       config=st.sampled_from(FUNCTIONALS),
       level=st.integers(-2, 1025), schedule=schedules,
       fraction=any_number, index=st.integers(-2, 7),
       direction=st.lists(st.one_of(extreme_values, st.just(math.inf)), min_size=1,
                          max_size=7),
       points=st.lists(st.one_of(extreme_values, st.floats()), max_size=4),
       tol=any_number, seed=st.integers(0, 2 ** 32 - 1))
@example(values=[1e300, 1e16, 1.0], weights=[1.0], weighted=False,
         config={"name": "linear", "phi": [0, 1, 0, 1]}, level=2,
         schedule={"eps0": 0.125, "ratio": 0.5, "count": 4, "mode": "central"},
         fraction=0.5, index=0, direction=[1.0], points=[], tol=1e-6, seed=0)
@settings(max_examples=examples(100), deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_library_call_returns_or_raises_a_documented_error(
        values, weights, weighted, config, level, schedule, fraction, index, direction,
        points, tol, seed):
    f = functional_from_config(config)
    weights, raw = _weights(values, weights, weighted)

    # measure
    _outcome(MeasureError, make_measure, values, weights)
    _outcome(MeasureError, DiscreteMeasure, values, weights)
    _outcome(MeasureError, EmpiricalSample, values, weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w") as fh:
            fh.writelines(f"{v!r},{w!r}\n" if weighted else f"{v!r}\n"
                          for v, w in zip(values, weights))
        _outcome(SampleFormatError, read_sample_file, path)
    sample = _outcome(MeasureError, make_sample, values, raw)
    if sample is None:
        return
    law = law_of(sample)
    mean(law)
    quantized = _outcome(MeasureError, dyadic_quantize, sample, level)
    if quantized is not None:
        wasserstein2(law, law_of(quantized))

    # estimator
    steps = _outcome(EstimatorError, StepSchedule, **schedule)
    _outcome((EstimatorError, ProbeFailureError), atom_shift_quotients, f, law, index, steps)
    _outcome((EstimatorError, ProbeFailureError), lions_derivative_at_atom, f, law, index,
             steps)
    _outcome((EstimatorError, ProbeFailureError), partial_mass_perturbation, f, law, index,
             fraction, steps)
    eta = _outcome(EstimatorError, Direction, direction)
    if eta is not None:
        _outcome((EstimatorError, ProbeFailureError), directional_derivative, f, sample, eta,
                 steps)
    fields = schedule if steps is not None else {}
    _outcome((EstimatorError, MeasureError), refine_until_converged, f, sample, tol,
             level, level + 1, **fields)
    est = _outcome(MeasureError, lions_derivative_grid, f, sample, level, steps)
    if est is None:
        return
    g_tilde_values(est, points)

    # verify
    check_structure(f, sample, est, directions=1, seed=seed)
    check_law_invariance(f, sample, est, transforms=1, seed=seed)
    _outcome(EstimatorError, check_mass_linearity, f, est, index, (fraction, 1.0))
    _outcome(NoClosedFormError, check_against_oracle, f, est)
    _outcome(MeasureError, convergence_study, f, sample, (level, level + 1), **fields)


def _on_cpus(cpus, run):
    """``run()`` with ``cpus`` usable CPUs; no child process outlives it."""
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            return run()
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@given(values=st.lists(extreme_values, min_size=1, max_size=6),
       weights=st.lists(extreme_weights, min_size=1, max_size=6),
       weighted=st.booleans(), config=st.sampled_from(FUNCTIONALS),
       level=st.integers(0, 1023), schedule=schedules,
       directions=st.integers(2, 5), transforms=st.integers(2, 4),
       cpus=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=examples(100), deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_checks_on_several_cpus_write_the_one_cpu_reports(
        values, weights, weighted, config, level, schedule, directions, transforms, cpus,
        seed):
    # check_structure and check_law_invariance split their cases into
    # shares that forked children run; the reports must not show it.
    f = functional_from_config(config)
    sample = _outcome(MeasureError, make_sample, values,
                      _weights(values, weights, weighted)[1])
    if sample is None:
        return
    steps = _outcome(EstimatorError, StepSchedule, **schedule)
    est = _outcome(MeasureError, lions_derivative_grid, f, sample, level, steps)
    if est is None:
        return

    def reports():
        return [json.dumps(r.to_dict()) for r in (
            check_structure(f, sample, est, directions=directions, seed=seed),
            check_law_invariance(f, sample, est, transforms=transforms, seed=seed))]

    assert _on_cpus(cpus, reports) == _on_cpus(1, reports)
