"""Derivatives of functionals on probability measures over the real line.

The library computes, for a law-invariant functional f of a square-integrable
measure, the deterministic function g with D F = g(.) for the lifted map F:
dyadic quantization reduces any weighted sample to a discrete law, a
Dirac-shift finite difference recovers g atom by atom, and level refinement
with an L2 Cauchy criterion drives the piecewise-constant extension toward
the limit.  The verify module turns the construction's structural guarantees
(directional-derivative pairing, law invariance, linearity in moved mass)
into executable checks.
"""

from .measure import (
    DiscreteMeasure,
    EmpiricalSample,
    MeasureError,
    QuantizationLevel,
    SampleFormatError,
    dyadic_quantize,
    law_of,
    make_measure,
    make_sample,
    mean,
    read_sample_file,
    wasserstein2,
)
from .functionals import (
    Functional,
    FunctionalConfigError,
    NoClosedFormError,
    PotentialSpec,
    functional_from_config,
    make_interaction,
    make_linear,
    make_mean_square,
    make_variance,
    register,
)
from .estimator import (
    ConvergenceReport,
    DerivativeEstimate,
    Direction,
    EstimatorError,
    ProbeFailureError,
    StepSchedule,
    atom_shift_quotients,
    directional_derivative,
    g_tilde_values,
    lions_derivative_at_atom,
    lions_derivative_grid,
    partial_mass_perturbation,
    refine_until_converged,
)
from .verify import (
    StudyRow,
    VerificationReport,
    check_against_oracle,
    check_law_invariance,
    check_mass_linearity,
    check_structure,
    convergence_study,
)

__version__ = "0.1.0"
