"""Shared generators for randomized test cases.

Weights are kept bounded away from zero so difference quotients never lose
digits to a vanishing p_i; atom positions stay in a modest box so polynomial
functionals keep O(1) values.
"""

import numpy as np
from hypothesis import settings

from lionsderiv import law_of, make_measure, make_sample

# Tier-1 runs Hypothesis's default profile, 100 examples where a property
# names none.  ``--hypothesis-profile=tenfold`` runs ten times as many, also
# for the properties that ask for their count through ``examples``.
settings.register_profile("tenfold", max_examples=1000)


def examples(n):
    """``n`` examples under the default profile, scaled with the loaded
    profile's ``max_examples``."""
    return n * settings.default.max_examples // 100


def random_measure(rng, max_atoms=16, lo=-2.0, hi=2.0, min_sep=1e-3):
    """Random canonical measure with well-separated atoms and fat weights."""
    n = int(rng.integers(2, max_atoms + 1))
    atoms = np.sort(rng.uniform(lo, hi, size=n))
    while np.any(np.diff(atoms) < min_sep):
        atoms = np.sort(rng.uniform(lo, hi, size=n))
    raw = rng.uniform(0.2, 1.0, size=n)
    return make_measure(atoms, raw / raw.sum())


def random_sample(rng, size=64, lo=0.0, hi=1.0, weighted=False):
    values = rng.uniform(lo, hi, size=size)
    if not weighted:
        return make_sample(values)
    raw = rng.uniform(0.2, 1.0, size=size)
    return make_sample(values, raw / raw.sum())


def recorded_law():
    """The law of a sample that a property run once drew: renormalizing its
    canonical weights again changes the bits of all four."""
    return law_of(make_sample(
        [-3.6125202763957054, 1e-300, -2.5118746374153664, 0.0, -2.5118746374153664],
        [0.26982862786261597, 0.10247867870538772, 0.28504644620228475,
         0.139263633252574, 0.20338261397713767]))


# Distinct, increasing values whose weights, once make_sample has normalized
# them, sum to 0.9999999999999999: dividing by that sum again moves bits.
SORTED_RENORMALIZABLE = (
    [0.0, 0.25, 0.5, 0.75, 1.0],
    [0.11216350947158527, 0.16251246261216354, 0.1041874376869392,
     0.14556331006979065, 0.4755732801595215])
