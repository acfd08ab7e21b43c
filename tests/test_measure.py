"""Measure and sample layer: canonical form, quantization, W2, file formats.

Oracle checklist:
- W2 on hand cases: quantile integral computed by hand.
- W2 on random pairs: brute-force optimal coupling via linear programming
  (scipy HiGHS), fully independent of the quantile-merge implementation.
- W2 and the cumulative partition on drawn laws: bit for bit the scalar
  loops below, one weight and one merged segment at a time.
"""

import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from lionsderiv import (
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

from lionsderiv.measure import _cumulative, _weighted_l2

from conftest import SORTED_RENORMALIZABLE, random_measure, random_sample, recorded_law


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


@pytest.mark.parametrize("build", [make_measure, make_sample])
def test_weights_whose_sum_overflows_are_rejected_as_badly_scaled(build):
    # fsum over these weights raises OverflowError; the sum is reported as inf
    with pytest.raises(MeasureError, match="sum to inf"):
        build([0.0, 1.0], [1e308, 1e308])


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


def test_canonicalizing_a_canonical_law_changes_no_bit():
    # A law a tier-1 run of test_law_of_is_canonical_and_idempotent reached.
    mu = recorded_law()
    again = make_measure(mu.atoms, mu.weights)
    assert mu.atoms.tobytes() == again.atoms.tobytes()
    assert mu.weights.tobytes() == again.weights.tobytes()


def test_law_of_ignores_order_and_halvings_of_a_sorted_sample():
    # Its values are distinct and increasing, so the pairs as given already
    # meet DiscreteMeasure's invariants; reordered or split, they do not.
    sample = make_sample(*SORTED_RENORMALIZABLE)
    reversed_sample = EmpiricalSample(sample.values[::-1], sample.weights[::-1])
    halved = np.append(sample.weights, sample.weights[1] * 0.5)
    halved[1] *= 0.5
    split = EmpiricalSample(np.append(sample.values, sample.values[1]), halved)
    base = law_of(sample)
    assert base.weights.tobytes() == sample.weights.tobytes()
    for other in (reversed_sample, split):
        law = law_of(other)
        assert law.atoms.tobytes() == base.atoms.tobytes()
        assert law.weights.tobytes() == base.weights.tobytes()


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


def reference_cumulative(weights):
    """Running weight partition with Neumaier compensation, one weight at a
    time; last entry is 1."""
    out = np.empty(weights.size)
    s = 0.0
    c = 0.0
    for k in range(weights.size):
        w = float(weights[k])
        t = s + w
        if abs(s) >= abs(w):
            c += (s - t) + w
        else:
            c += (w - t) + s
        s = t
        out[k] = min(s + c, 1.0)
    out[-1] = 1.0
    return out


def reference_wasserstein2(mu, nu):
    """W2 by walking the two cumulative partitions in step, one merged
    segment at a time."""
    cmu = reference_cumulative(mu.weights)
    cnu = reference_cumulative(nu.weights)
    xs, ys = mu.atoms, nu.atoms
    segments, gaps = [], []
    i = j = 0
    prev = 0.0
    while i < cmu.size and j < cnu.size:
        upper = min(cmu[i], cnu[j])
        seg = upper - prev
        if seg > 0.0:
            segments.append(seg)
            gaps.append(xs[i] - ys[j])
        prev = upper
        if cmu[i] == upper:
            i += 1
        if cnu[j] == upper:
            j += 1
    return _weighted_l2(np.array(segments), np.array(gaps))


# Weights from fat to subnormal; "tail" puts many tiny weights after one
# large one, each far below one ulp of the running sum.
fat_weights = st.floats(1e-3, 1.0)
tiny_weights = st.floats(5e-324, 1e-280)
any_weights = st.one_of(fat_weights, st.floats(1e-300, 1e-3), tiny_weights)


@st.composite
def laws_on(draw, pool):
    atoms = sorted(set(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=200))))
    if len(atoms) > 1 and draw(st.booleans()):
        start = draw(st.integers(0, len(atoms) - 2))
        raw = ([draw(any_weights) for _ in range(start)] + [1.0]
               + draw(st.lists(tiny_weights, min_size=len(atoms) - start - 1,
                               max_size=len(atoms) - start - 1)))
    else:
        raw = draw(st.lists(any_weights, min_size=len(atoms), max_size=len(atoms)))
    total = math.fsum(raw)
    return make_measure(atoms, [r / total for r in raw])


@st.composite
def law_pairs(draw):
    """Two laws on atoms from one pool, so they share atoms; 1..200 atoms,
    one-atom laws included, on a lattice or not, at scales 1e-3..1e3."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        pool = [k * scale / 8 for k in range(-100, 101)]
    else:
        pool = draw(st.lists(st.floats(-scale, scale), min_size=1, max_size=200,
                             unique=True))
    if draw(st.booleans()):
        return draw(laws_on(pool)), make_measure([draw(st.sampled_from(pool))], [1.0])
    return draw(laws_on(pool)), draw(laws_on(pool))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


@given(law_pairs())
@settings(max_examples=200, deadline=None)
def test_w2_and_cumulative_match_the_scalar_loops_bit_for_bit(pair):
    for law in pair:
        cumulative = _cumulative(law.weights)
        assert _bits(cumulative) == _bits(reference_cumulative(law.weights))
        assert np.all(np.diff(cumulative) >= 0.0)  # searchsorted needs this
    for a, b in (pair, pair[::-1]):
        assert _bits(wasserstein2(a, b)) == _bits(reference_wasserstein2(a, b))


def test_w2_symmetric():
    rng = np.random.default_rng(3)
    mu = random_measure(rng)
    nu = random_measure(rng)
    assert wasserstein2(mu, nu) == pytest.approx(wasserstein2(nu, mu), rel=1e-14)


def test_w2_survives_a_gap_past_the_float_range():
    # the gap 2e308 used to overflow, with a numpy warning, and give inf
    mu = make_measure([-1e308, 1e308], [0.5, 0.5])
    nu = make_measure([1e308], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((mu, nu), (nu, mu)):
            assert wasserstein2(a, b) == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)


def test_w2_survives_a_squared_gap_past_the_float_range():
    # 1e200 squared used to overflow and give inf
    assert wasserstein2(make_measure([0.0], [1.0]), make_measure([1e200], [1.0])) == 1e200


def test_w2_past_the_float_range_is_inf():
    # the true distance, 2e308, is not a float
    assert wasserstein2(make_measure([-1e308], [1.0]), make_measure([1e308], [1.0])) == math.inf


@pytest.mark.parametrize("seed", range(8))
def test_w2_of_laws_scaled_past_the_float_range_scales_exactly(seed):
    # 2^j times the atoms: the squares overflow, and the distance is 2^j
    # times the unscaled one, bit for bit
    rng = np.random.default_rng(seed)
    mu, nu = random_measure(rng), random_measure(rng)
    j = 1020
    big_mu, big_nu = (make_measure(np.ldexp(m.atoms, j), m.weights) for m in (mu, nu))
    assert _bits(wasserstein2(big_mu, big_nu)) == _bits(math.ldexp(wasserstein2(mu, nu), j))


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


def test_read_sample_not_utf8_names_the_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_bytes(b"0.5\n\xff\xfe0.25\n")
    with pytest.raises(SampleFormatError, match=r"s\.csv: cannot read sample file"):
        read_sample_file(str(p))


def test_read_sample_empty_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("# only comments\n")
    with pytest.raises(SampleFormatError, match="no records"):
        read_sample_file(str(p))


# Edge files of the sample format, each with the sample it reads as
# (values, weights) or the exact error text after "<path>".
READER_EDGE_FILES = [
    ("crlf", b"0.25\r\n0.75\r\n", ([0.25, 0.75], [0.5, 0.5])),
    ("crlf_weighted", b"0.25,0.5\r\n0.75,0.5\r\n", ([0.25, 0.75], [0.5, 0.5])),
    ("tab_vt_nbsp", "\t0.25\x0b,\xa00.5\xa0\n0.75 ,\t0.5\n".encode(),
     ([0.25, 0.75], [0.5, 0.5])),
    ("blank_and_indented_comment", b"0.5\n \t \n   # note\n1.5\n", ([0.5, 1.5], [0.5, 0.5])),
    ("mid_line_hash", b"0.5\n1.0 # x\n", ":2: not a number: '1.0 # x'"),
    ("trailing_comma", b"1.0,\n0.5,0.5\n", ":1: not a number: ''"),
    ("trailing_comma_after_values", b"0.5\n1.0,\n",
     ":2: mixing weighted and unweighted records"),
    ("underscore", b"1_0\n2\n", ([10.0, 2.0], [0.5, 0.5])),
    ("arabic_indic_digit", "١\n2\n".encode(), ([1.0, 2.0], [0.5, 0.5])),
    ("inf_value", b"0.5\ninf\n", ":2: value must be finite, got 'inf'"),
    ("huge_value", b"0.5\n1e400\n", ":2: value must be finite, got '1e400'"),
    ("nan_value", b"0.5\nnan\n", ":2: value must be finite, got 'nan'"),
    ("huge_weight", b"0.5,0.5\n1.0,1e400\n",
     ":2: weight must be finite and positive, got '1e400'"),
    ("zero_weight", b"0.5,0.5\n1.0,0\n", ":2: weight must be finite and positive, got '0'"),
    ("negative_weight", b"0.5,0.5\n1.0,-0.5\n",
     ":2: weight must be finite and positive, got '-0.5'"),
    ("mixed", b"0.5,0.5\n1.0\n", ":2: mixing weighted and unweighted records"),
    ("three_fields", b"1,2,3\n", ":1: expected `value` or `value,weight`, got '1,2,3'"),
    ("only_comments", b"# one\n  # two\n", ":1: no records found"),
    ("utf8_bom", b"\xef\xbb\xbf0.5\n1.5\n", ":1: not a number: '\\ufeff0.5'"),
    ("bad_utf8_after_bad_number", b"abc\n0.5\n\xff\n",
     ": cannot read sample file: 'utf-8' codec can't decode byte 0xff in position 8: "
     "invalid start byte"),
    ("weights_off_one", b"0.5,0.5\n1.0,0.25\n",
     ": weights sum to 0.75, farther than 1e-09 from 1; rescale the input explicitly"),
]


# Files longer than one 8 KiB read, with a leading comment: read whole, and
# with a bad last line.
_LONG_VALUES = [k / 1024 for k in range(4000)]
_LONG_TEXT = "# header\n" + "".join(f"{v!r}\n" for v in _LONG_VALUES)
READER_LONG_FILES = [
    ("long_with_header", _LONG_TEXT.encode(),
     (_LONG_VALUES, [1 / len(_LONG_VALUES)] * len(_LONG_VALUES))),
    ("long_with_header_and_bad_line", (_LONG_TEXT + "abc\n").encode(),
     f":{len(_LONG_VALUES) + 2}: not a number: 'abc'"),
]
READER_FILES = READER_EDGE_FILES + READER_LONG_FILES


@pytest.mark.parametrize("data, expected", [case[1:] for case in READER_FILES],
                         ids=[case[0] for case in READER_FILES])
def test_reader_edge_file(tmp_path, data, expected):
    p = tmp_path / "s.csv"
    p.write_bytes(data)
    _assert_reads_as(lambda: read_sample_file(str(p)), p, expected)


def _assert_reads_as(read, path, expected):
    """``read()`` gives the sample ``expected`` or raises its error text."""
    if isinstance(expected, str):
        with pytest.raises(SampleFormatError) as info:
            read()
        assert str(info.value) == f"{path}{expected}"
    else:
        s = read()
        assert (s.values.tolist(), s.weights.tolist()) == expected


def _read_through_fifo(fifo, data):
    """read_sample_file on a named pipe that another thread fills with data
    once.  A second open of the pipe reads it empty rather than hang."""
    done = threading.Event()

    def fill():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at a byte that is not UTF-8
            pass
        while not done.wait(0.05):
            try:  # opens only while a reader has the pipe open, and writes nothing
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass

    os.mkfifo(fifo)
    writer = threading.Thread(target=fill, daemon=True)
    writer.start()
    try:
        return read_sample_file(str(fifo))
    finally:
        done.set()
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("data, expected", [case[1:] for case in READER_FILES],
                         ids=[case[0] for case in READER_FILES])
def test_reader_reads_a_pipe_once(tmp_path, data, expected):
    """A pipe cannot be read twice; it gives what a regular file with the
    same bytes gives."""
    p = tmp_path / "s.fifo"
    _assert_reads_as(lambda: _read_through_fifo(p, data), p, expected)
