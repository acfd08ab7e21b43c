"""Measure and sample layer: canonical form, quantization, W2, file formats.

Oracle checklist:
- W2 on hand cases: quantile integral computed by hand.
- W2 on random pairs: brute-force optimal coupling via linear programming
  (scipy HiGHS), fully independent of the quantile-merge implementation.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from lionsderiv import (
    DiscreteMeasure,
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

from conftest import random_measure, random_sample


def w2_by_linear_program(mu, nu):
    """Independent oracle: solve the transport LP over the coupling polytope."""
    m, n = mu.n_atoms, nu.n_atoms
    cost = np.array([
        (float(x) - float(y)) ** 2 for x in mu.atoms for y in nu.atoms
    ])
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return math.sqrt(max(res.fun, 0.0))


# ---------------------------------------------------------------------------
# make_measure / canonical form
# ---------------------------------------------------------------------------

def test_make_measure_merges_and_sorts():
    mu = make_measure([1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    assert mu.atoms.tolist() == [0.0, 1.0]
    assert mu.weights.tolist() == [0.5, 0.5]


def test_make_measure_single_atom():
    mu = make_measure([3.0], [1.0])
    assert mu.atoms.tolist() == [3.0]
    assert mu.weights.tolist() == [1.0]


def test_make_measure_renormalizes_within_band():
    # sum differs from 1 by ~1e-10: inside the 1e-9 band, renormalized exactly
    mu = make_measure([0.0, 1.0], [0.25, 0.75 + 1e-10])
    assert math.fsum(mu.weights.tolist()) == pytest.approx(1.0, abs=1e-15)
    assert mu.weights[0] == pytest.approx(0.25, rel=1e-9)


def test_make_measure_rejects_badly_scaled_weights():
    # sum 0.9 is far outside the renormalization band: rejected, not rescaled
    with pytest.raises(MeasureError, match="rescale"):
        make_measure([0.0, 1.0], [0.3, 0.6])


def test_make_measure_drops_zero_weights():
    mu = make_measure([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
    assert mu.atoms.tolist() == [0.0, 2.0]


def test_make_measure_rejections():
    with pytest.raises(MeasureError):
        make_measure([0.0, 1.0], [1.0])
    with pytest.raises(MeasureError):
        make_measure([0.0, 1.0], [1.5, -0.5])
    with pytest.raises(MeasureError):
        make_measure([0.0], [0.0])
    with pytest.raises(MeasureError):
        make_measure([math.inf], [1.0])
    with pytest.raises(MeasureError):
        make_measure([0.0], [math.nan])


def test_direct_construction_validates():
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.7, 0.31]))


def test_measure_is_immutable():
    mu = make_measure([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        mu.atoms[0] = 5.0


# ---------------------------------------------------------------------------
# samples and law_of
# ---------------------------------------------------------------------------

def test_law_of_groups_values():
    s = make_sample([0.3, 0.7, 0.3])
    mu = law_of(s)
    assert mu.atoms.tolist() == [0.3, 0.7]
    assert mu.weights[0] == pytest.approx(2 / 3, rel=1e-12)
    assert mu.weights[1] == pytest.approx(1 / 3, rel=1e-12)


def test_law_of_single_value():
    mu = law_of(make_sample([5.0], [1.0]))
    assert mu.atoms.tolist() == [5.0]
    assert mu.weights.tolist() == [1.0]


def test_law_of_permutation_invariant_bitwise():
    a = law_of(make_sample([1.0, 2.0], [0.5, 0.5]))
    b = law_of(make_sample([2.0, 1.0], [0.5, 0.5]))
    assert np.array_equal(a.atoms, b.atoms)
    assert np.array_equal(a.weights, b.weights)


def test_sample_validation():
    with pytest.raises(MeasureError):
        make_sample([])
    with pytest.raises(MeasureError):
        make_sample([0.0, 1.0], [0.5, 0.0 - 0.5])
    with pytest.raises(MeasureError):
        make_sample([0.0], [2.0])


# ---------------------------------------------------------------------------
# dyadic quantization
# ---------------------------------------------------------------------------

def test_quantize_examples():
    s = make_sample([0.3, 0.7, 0.3])
    q = dyadic_quantize(s, 1)
    assert q.values.tolist() == [0.0, 0.5, 0.0]
    assert np.array_equal(q.weights, s.weights)

    q2 = dyadic_quantize(make_sample([-0.3]), 2)
    assert q2.values.tolist() == [-0.5]


def test_quantize_fixed_point_on_grid():
    s = make_sample([0.0, 0.25, -1.75, 3.0])
    q = dyadic_quantize(s, 2)
    assert np.array_equal(q.values, s.values)


def test_quantize_level_validation():
    with pytest.raises(MeasureError):
        QuantizationLevel(-1)
    with pytest.raises(MeasureError):
        QuantizationLevel(1.5)
    assert QuantizationLevel(3).cell_width == 0.125


def test_quantize_level_range_ends_where_two_to_the_n_overflows():
    assert QuantizationLevel(1023).cell_width == 2.0 ** -1023
    assert dyadic_quantize(make_sample([0.75]), 1023).values.tolist() == [0.75]
    with pytest.raises(MeasureError, match="0..1023"):
        QuantizationLevel(1024)
    with pytest.raises(MeasureError):
        dyadic_quantize(make_sample([0.75]), 1030)


def test_quantize_moves_down_less_than_cell():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_sample(rng, size=32, lo=-4.0, hi=4.0)
        for n in (0, 1, 5, 12):
            q = dyadic_quantize(s, n)
            moves = s.values - q.values
            assert np.all(moves >= 0.0)
            assert np.all(moves < 2.0 ** -n)


# ---------------------------------------------------------------------------
# wasserstein2
# ---------------------------------------------------------------------------

def test_w2_single_atoms():
    assert wasserstein2(make_measure([0.0], [1.0]), make_measure([1.0], [1.0])) == 1.0


def test_w2_identity():
    mu = make_measure([0.0, 0.5, 2.0], [0.25, 0.25, 0.5])
    assert wasserstein2(mu, mu) == 0.0


def test_w2_hand_case():
    # quantile functions differ only on (1/2, 1], where they are 1 vs 2
    mu = make_measure([0.0, 1.0], [0.5, 0.5])
    nu = make_measure([0.0, 2.0], [0.5, 0.5])
    assert wasserstein2(mu, nu) == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_w2_against_linear_program():
    rng = np.random.default_rng(42)
    for _ in range(12):
        mu = random_measure(rng, max_atoms=5)
        nu = random_measure(rng, max_atoms=5)
        ours = wasserstein2(mu, nu)
        lp = w2_by_linear_program(mu, nu)
        assert ours == pytest.approx(lp, abs=1e-7)


def test_w2_symmetric():
    rng = np.random.default_rng(3)
    mu = random_measure(rng)
    nu = random_measure(rng)
    assert wasserstein2(mu, nu) == pytest.approx(wasserstein2(nu, mu), rel=1e-14)


# ---------------------------------------------------------------------------
# mean
# ---------------------------------------------------------------------------

def test_mean_helper():
    assert mean(make_measure([0.0, 1.0], [0.25, 0.75])) == 0.75


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_read_unweighted_sample(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("# a comment\n0.25\n0.75\n\n0.25\n")
    s = read_sample_file(str(p))
    assert s.values.tolist() == [0.25, 0.75, 0.25]
    assert np.allclose(s.weights, 1 / 3)


def test_read_weighted_sample(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0.0,0.25\n1.0,0.75\n")
    s = read_sample_file(str(p))
    assert s.weights.tolist() == [0.25, 0.75]


def test_read_sample_mixed_records_rejected(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0.0,0.5\n1.0\n")
    with pytest.raises(SampleFormatError, match=r"s\.csv:2"):
        read_sample_file(str(p))


def test_read_sample_bad_number_names_line(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0.5\nabc\n")
    with pytest.raises(SampleFormatError, match=r"s\.csv:2.*abc"):
        read_sample_file(str(p))


def test_read_sample_empty_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("# only comments\n")
    with pytest.raises(SampleFormatError, match="no records"):
        read_sample_file(str(p))
