"""CLI contracts: exit-code partition, config precedence, determinism,
round-trips of the emitted files."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lionsderiv import (
    EstimatorError,
    Functional,
    StepSchedule,
    convergence_study,
    make_sample,
    refine_until_converged,
    make_variance,
)
from lionsderiv.cli import main

from conftest import SORTED_RENORMALIZABLE

BALANCED = "".join(["0.0\n", "1.0\n"] * 8)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path.name)


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def run_cli(*args):
    """The CLI as a process of its own, so its stderr is what a user sees,
    numpy warnings included."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "lionsderiv", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_balanced_binary(workdir, capsys):
    inp = write(workdir / "sample.csv", BALANCED)
    code = main(["estimate", "--input", inp, "--functional",
                 '{"name":"variance"}', "--tol", "1e-6", "--out", "grid.csv"])
    assert code == 0
    lines = (workdir / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "x,g_hat,err_est"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0.0", "1.0"]
    assert float(rows[0][1]) == pytest.approx(-1.0, abs=1e-8)
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-8)
    report = json.loads((workdir / "grid.report.json").read_text())
    assert report["converged"] is True
    assert report["distances"][-1] < 1e-6


def test_estimate_csv_round_trips_exactly(workdir):
    rng = np.random.default_rng(33)
    values = rng.uniform(0.0, 1.0, size=32)
    inp = write(workdir / "s.csv", "".join(f"{float(v)!r}\n" for v in values))
    code = main(["estimate", "--input", inp, "--functional",
                 '{"name":"variance"}', "--levels", "2..12", "--tol", "1e-2"])
    assert code == 0
    est, _ = refine_until_converged(
        make_variance(), make_sample(values), tol=1e-2, n_min=2, n_max=12,
    )
    lines = (workdir / "estimate.csv").read_text().strip().splitlines()[1:]
    parsed = [tuple(map(float, line.split(","))) for line in lines]
    assert [p[0] for p in parsed] == est.grid_atoms.tolist()
    assert [p[1] for p in parsed] == est.g_values.tolist()
    assert [p[2] for p in parsed] == est.error_estimates.tolist()


def test_estimate_non_convergence_exits_3_but_writes(workdir):
    rng = np.random.default_rng(5)
    inp = write(workdir / "s.csv",
                "".join(f"{float(v)!r}\n" for v in rng.uniform(0, 1, 16)))
    code = main(["estimate", "--input", inp, "--functional",
                 '{"name":"variance"}', "--levels", "2..3", "--tol", "1e-30"])
    assert code == 3
    assert (workdir / "estimate.csv").exists()
    report = json.loads((workdir / "estimate.report.json").read_text())
    assert report["converged"] is False
    assert report["levels"] == [2, 3]


def test_estimate_single_level_reports_nonconverged(workdir):
    inp = write(workdir / "s.csv", BALANCED)
    code = main(["estimate", "--input", inp, "--functional",
                 '{"name":"variance"}', "--level", "3"])
    assert code == 3
    report = json.loads((workdir / "estimate.report.json").read_text())
    assert report["levels"] == [3]
    assert report["distances"] == []


def test_estimate_deterministic_outputs(workdir):
    rng = np.random.default_rng(101)
    inp = write(workdir / "s.csv",
                "".join(f"{float(v)!r}\n" for v in rng.uniform(0, 1, 24)))
    args = ["estimate", "--input", inp, "--functional",
            '{"name":"interaction","w":[0,0,0.5]}', "--levels", "2..5",
            "--tol", "1e-4", "--seed", "9", "--out", "a.csv"]
    assert main(args) in (0, 3)
    first_csv = (workdir / "a.csv").read_bytes()
    first_json = (workdir / "a.report.json").read_bytes()
    args[-1] = "b.csv"
    assert main(args) in (0, 3)
    assert (workdir / "b.csv").read_bytes() == first_csv
    assert (workdir / "b.report.json").read_bytes().replace(b"b.csv", b"a.csv") \
        == first_json.replace(b"b.csv", b"a.csv")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_variance_defaults_pass(workdir):
    inp = write(workdir / "s.csv", BALANCED)
    code = main(["verify", "--input", inp, "--functional", '{"name":"variance"}'])
    assert code == 0
    report = json.loads((workdir / "verify_report.json").read_text())
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["structure_identity", "law_invariance",
                     "mass_linearity", "oracle_comparison"]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_passes_on_a_sorted_sample_with_renormalizable_weights(workdir):
    # The file's pairs are canonical as they stand; its permuted and
    # weight-halved copies must still give the same law, bit for bit.
    inp = write(workdir / "s.csv", "".join(
        f"{v!r},{w!r}\n" for v, w in zip(*SORTED_RENORMALIZABLE)))
    code = main(["verify", "--input", inp, "--functional", '{"name":"variance"}'])
    report = json.loads((workdir / "verify_report.json").read_text())
    assert [c["status"] for c in report["checks"]] == ["pass"] * 4
    assert code == 0


def test_verify_skips_oracle_without_closed_form(workdir, monkeypatch):
    inp = write(workdir / "s.csv", BALANCED)
    opaque = Functional(name="opaque", params={}, evaluate=lambda mu: 0.0)
    monkeypatch.setattr("lionsderiv.cli.functional_from_config", lambda spec: opaque)
    code = main(["verify", "--input", inp, "--functional", '{"name":"variance"}'])
    assert code == 0
    report = json.loads((workdir / "verify_report.json").read_text())
    oracle = report["checks"][-1]
    assert oracle["name"] == "oracle_comparison"
    assert oracle["status"] == "skipped"
    assert report["all_passed"] is True


def test_verify_failure_exits_4_and_writes(workdir):
    # quartic kernel + coarse one-sided 2-step schedule: mass-linearity fit breaks
    inp = write(workdir / "s.csv", BALANCED)
    cfg = write(workdir / "cfg.json", json.dumps({
        "functional": {"name": "interaction", "w": [0, 0, 0, 0, 1]},
        "eps0": 8.0, "count": 2, "mode": "one_sided",
    }))
    code = main(["verify", "--config", cfg, "--input", inp])
    assert code == 4
    report = json.loads((workdir / "verify_report.json").read_text())
    assert report["all_passed"] is False
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["mass_linearity"] == "fail"


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def test_study_table(workdir):
    rng = np.random.default_rng(44)
    values = rng.uniform(0.0, 1.0, size=64)
    inp = write(workdir / "s.csv", "".join(f"{float(v)!r}\n" for v in values))
    code = main(["study", "--input", inp, "--functional",
                 '{"name":"variance"}', "--levels", "2..6", "--out", "study.csv"])
    assert code == 0
    lines = (workdir / "study.csv").read_text().strip().splitlines()
    assert lines[0] == "n,w2_quant,succ_diff,oracle_err"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [2, 3, 4, 5, 6]
    for r in rows:
        assert float(r[1]) <= 2.0 ** -int(r[0])
    assert rows[0][2] == ""  # no predecessor level
    # round trip against the library values
    study = convergence_study(make_variance(), make_sample(values), range(2, 7))
    for r, row in zip(rows, study):
        assert float(r[1]) == row.w2_quantization
        if r[2]:
            assert float(r[2]) == row.successive_difference
        assert float(r[3]) == row.oracle_error


def test_study_reversed_levels_exit_2(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    code = main(["study", "--input", inp, "--functional",
                 '{"name":"variance"}', "--levels", "8..2"])
    assert code == 2
    assert "levels" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# work per command: the estimate carries the law it was computed at
# ---------------------------------------------------------------------------

GOLDEN_SAMPLE = str(Path(__file__).resolve().parent / "data" / "golden_sample.csv")


def _count_calls(monkeypatch, home, name):
    """A list that grows by one at each call of ``home.name``, from
    whichever module of the package makes it."""
    import lionsderiv
    from lionsderiv import cli, estimator, measure, verify

    calls = []
    original = getattr(home, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (lionsderiv, measure, estimator, verify, cli):
        if module.__dict__.get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_default_verify_quantizes_once_per_grid_and_once_for_the_structure(
        workdir, monkeypatch):
    from lionsderiv import estimator, measure

    # one CPU: calls made in forked children would not be counted here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    quantized = _count_calls(monkeypatch, measure, "dyadic_quantize")
    grids = _count_calls(monkeypatch, estimator, "lions_derivative_grid")
    code = main(["verify", "--input", GOLDEN_SAMPLE, "--functional", '{"name":"variance"}'])
    assert code == 0
    # the grid, 20 permuted and 20 weight-halved copies, and check_structure
    assert (len(quantized), len(grids)) == (42, 41)


def test_default_study_quantizes_once_per_level(workdir, monkeypatch):
    from lionsderiv import measure

    quantized = _count_calls(monkeypatch, measure, "dyadic_quantize")
    code = main(["study", "--input", GOLDEN_SAMPLE, "--functional", '{"name":"variance"}'])
    assert code == 0
    assert len(quantized) == 7


# ---------------------------------------------------------------------------
# exit-code partition: input and config errors
# ---------------------------------------------------------------------------

def test_empty_input_exits_1_naming_file(workdir, capsys):
    inp = write(workdir / "empty.csv", "# nothing\n")
    code = main(["estimate", "--input", inp, "--functional", '{"name":"variance"}'])
    assert code == 1
    err = capsys.readouterr().err
    assert "empty.csv" in err


def test_corrupt_line_exits_1_with_line_number(workdir, capsys):
    inp = write(workdir / "bad.csv", "0.5\nabc\n")
    code = main(["verify", "--input", inp, "--functional", '{"name":"variance"}'])
    assert code == 1
    assert "bad.csv:2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "study"])
def test_a_value_that_overflows_is_named_first_in_input_order(workdir, capsys, command):
    # The refinement and the study sort the sample; the message still names
    # the first value of the file that overflows, as a Python float.
    inp = write(workdir / "s.csv", "1e308\n-1e308\n")
    code = main([command, "--input", inp, "--functional", '{"name":"variance"}'])
    assert code == 1
    assert capsys.readouterr().err == (
        "lionsderiv: input error: value 1e+308 overflows at quantization level 2\n")


def test_missing_input_file_exits_1(workdir, capsys):
    code = main(["estimate", "--input", "nope.csv", "--functional",
                 '{"name":"variance"}'])
    assert code == 1


def test_input_that_is_not_utf8_exits_1_with_one_line(workdir):
    (workdir / "s.csv").write_bytes(b"0.5\n\xff\xfe0.25\n")
    proc = run_cli("estimate", "--input", "s.csv", "--functional", '{"name":"variance"}')
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert line.startswith("lionsderiv: input error: s.csv: cannot read sample file")


@pytest.mark.parametrize("out", ["missing/out.csv", "a_directory"])
@pytest.mark.parametrize("command", ["estimate", "verify", "study"])
def test_an_output_that_cannot_be_written_exits_2_with_one_line(workdir, command, out):
    inp = write(workdir / "s.csv", BALANCED)
    (workdir / "a_directory").mkdir()
    proc = run_cli(command, "--input", inp, "--functional", '{"name":"variance"}',
                   "--out", out)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"lionsderiv: config error: cannot write {out}: ")


def test_negative_tol_exits_2(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    code = main(["estimate", "--input", inp, "--functional",
                 '{"name":"variance"}', "--tol", "-1"])
    assert code == 2


def test_bad_functional_json_exits_2(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    assert main(["estimate", "--input", inp, "--functional", "{not json"]) == 2
    assert main(["estimate", "--input", inp, "--functional",
                 '{"name":"nope"}']) == 2


def test_non_string_functional_name_exits_2(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    assert main(["estimate", "--input", inp, "--functional",
                 '{"name":["variance"]}']) == 2
    err = capsys.readouterr().err
    assert "unknown functional" in err and len(err.strip().splitlines()) == 1


def test_unknown_config_key_exits_2(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    cfg = write(workdir / "cfg.json",
                json.dumps({"functional": {"name": "variance"}, "bogus": 1}))
    assert main(["estimate", "--config", cfg, "--input", inp]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_command_mismatch_exits_2(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    cfg = write(workdir / "cfg.json", json.dumps(
        {"command": "study", "functional": {"name": "variance"}}))
    assert main(["estimate", "--config", cfg, "--input", inp]) == 2


def test_missing_functional_exits_2(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    assert main(["estimate", "--input", inp]) == 2


def test_seed_out_of_range_exits_2(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    assert main(["verify", "--input", inp, "--functional",
                 '{"name":"variance"}', "--seed", str(2 ** 64)]) == 2


def test_estimate_rejects_level_and_levels_together(workdir, capsys):
    inp = write(workdir / "s.csv", BALANCED)
    assert main(["estimate", "--input", inp, "--functional",
                 '{"name":"variance"}', "--level", "3", "--levels", "2..5"]) == 2


@pytest.mark.parametrize("command, flags, config", [
    ("study", ["--level", "3"], None),
    ("study", [], '{"level": 3}'),
    ("verify", ["--levels", "2..3"], None),
    ("verify", [], '{"levels": [2, 3]}'),
])
def test_a_level_setting_the_command_does_not_read_exits_2(workdir, capsys, command,
                                                             flags, config):
    # study reads only `levels` and verify only `level`: the other one would
    # be silently dropped, and the run would use its default levels.
    inp = write(workdir / "s.csv", "0.0\n0.5\n1.0\n")
    argv = [command, "--input", inp, "--functional", '{"name":"variance"}',
            "--out", "out", *flags]
    if config is not None:
        argv += ["--config", write(workdir / "cfg.json", config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("lionsderiv: config error: ") and err.count("\n") == 1
    assert not (workdir / "out").exists()  # refused before any work


@pytest.mark.parametrize("levels", [["--level", "1030"], ["--level", "1080"],
                                    ["--levels", "2..1080"]])
def test_level_beyond_float_range_exits_2(workdir, capsys, levels):
    inp = write(workdir / "s.csv", BALANCED)
    assert main(["estimate", "--input", inp, "--functional",
                 '{"name":"variance"}', *levels]) == 2
    err = capsys.readouterr().err
    assert "1023" in err and len(err.strip().splitlines()) == 1


HUGE = "1" + "0" * 400      # an integer beyond the float range


def _short_id(value):
    text = " ".join(value) if isinstance(value, list) else str(value)
    return text if len(text) <= 40 else f"{text[:16]}...({len(text)} chars)"


@pytest.mark.parametrize("flags, config", [
    (["--level", "-1"], None),
    ([], '{"level": "3"}'),
    ([], '{"level": true}'),
    ([], '{"level": 2.0}'),
    (["--levels", "5..2"], None),
    (["--levels=-1..3"], None),
    (["--levels", "2-5"], None),
    ([], '{"levels": [2, "5"]}'),
    ([], '{"levels": [true, 3]}'),
    (["--eps0", "0"], None),
    (["--eps0", "-1"], None),
    (["--eps0", "inf"], None),
    (["--eps0", "nan"], None),
    ([], '{"eps0": "0.1"}'),
    ([], '{"eps0": true}'),
    ([], '{"eps0": %s}' % HUGE),
    ([], '{"ratio": 1.0}'),
    ([], '{"ratio": 0}'),
    ([], '{"ratio": "0.5"}'),
    ([], '{"ratio": false}'),
    ([], '{"ratio": 1e-200}'),      # ratio ** (count - 1) underflows
    ([], '{"count": 1}'),
    ([], '{"count": 2.5}'),
    ([], '{"count": "4"}'),
    ([], '{"count": true}'),
    ([], '{"count": 1100}'),        # ratio ** (count - 1) underflows
    ([], '{"count": %s}' % HUGE),
    ([], '{"count": 1%s}' % ("0" * 5000)),  # past the JSON integer limit
    ([], '{"mode": "sideways"}'),
    ([], '{"mode": 1}'),
    ([], '{"mode": ["central"]}'),
], ids=_short_id)
def test_bad_run_setting_exits_2_with_one_line(workdir, capsys, flags, config):
    inp = write(workdir / "s.csv", BALANCED)
    argv = ["estimate", "--input", inp, "--functional", '{"name":"variance"}', *flags]
    if config is not None:
        argv += ["--config", write(workdir / "cfg.json", config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("lionsderiv: config error: ") and err.count("\n") == 1


# Each schedule field: null, in range, at an edge of its range, out of
# range, or of a wrong JSON type.
SCHEDULE_FIELDS = {
    "eps0": st.one_of(st.none(), st.floats(5e-324, 1.7976931348623157e308), st.sampled_from(
        [5e-324, 1.7976931348623157e308, 0.0, -0.0, -1.0, math.inf, math.nan,
         int(HUGE), 1, True, False, "0.1", [0.1]])),
    "ratio": st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       st.sampled_from([5e-324, 0.9999999999999999, 0.0, 1.0, -0.5, 2.0,
                                        math.nan, 1e-200, True, False, "0.5", [0.5]])),
    "count": st.one_of(st.none(), st.integers(2, 12), st.sampled_from(
        [2, 1, 0, -3, 1100, int(HUGE), 4.0, 2.5, "4", True, [4]])),
    "mode": st.one_of(st.none(), st.sampled_from(
        ["central", "one_sided", "sideways", "", 1, True, ["central"], {"mode": "central"}])),
}


@given(st.fixed_dictionaries(SCHEDULE_FIELDS))
@settings(max_examples=150, deadline=None)
def test_the_cli_takes_exactly_the_schedules_the_library_takes(fields):
    try:
        StepSchedule.for_level(0, **fields)
        rejected = False
    except EstimatorError:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "s.csv").write_text(BALANCED)
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps({
            "functional": {"name": "variance"}, "input": str(Path(tmp) / "s.csv"),
            "out": str(Path(tmp) / "out.csv"), "level": 0, **fields}))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["estimate", "--config", str(config)])
    # A single level cannot show convergence, so a run that starts exits 3.
    assert code == (2 if rejected else 3)
    lines = err.getvalue().splitlines()
    if rejected:
        assert len(lines) == 1 and lines[0].startswith("lionsderiv: config error: ")
    else:
        assert lines == []


def test_weights_whose_sum_overflows_exit_1_with_one_line(workdir, capsys):
    inp = write(workdir / "s.csv", "0.0,1e308\n1.0,1e308\n")
    code = main(["estimate", "--input", inp, "--functional", '{"name":"variance"}',
                 "--level", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "weights sum to inf" in err and err.count("\n") == 1


def test_verify_with_failing_probes_exits_4_with_strict_json(workdir):
    # at level 0 every directional and moved-mass probe overflows
    inp = write(workdir / "s.csv", "1e308\n-1e308\n1e308\n")
    proc = run_cli("verify", "--input", inp, "--functional", '{"name":"variance"}',
                   "--level", "0", "--out", "v.json")
    assert proc.stderr == ""
    assert proc.returncode == 4
    report = json.loads((workdir / "v.json").read_text(), parse_constant=_reject_constant)
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("structure_identity", "mass_linearity"):
        assert checks[name]["status"] == "fail"
        assert checks[name]["discrepancy"] is None


def test_verify_report_is_strict_json_for_non_finite_results(workdir):
    inp = write(workdir / "s.csv", "1e30\n-2e30\n3e30\n")
    code = main(["verify", "--input", inp, "--functional",
                 '{"name":"linear","phi":[0,0,0,0,0,0,0,0,0,0,1]}', "--level", "2",
                 "--out", "v.json"])
    assert code == 4
    report = json.loads((workdir / "v.json").read_text(), parse_constant=_reject_constant)
    oracle = next(c for c in report["checks"] if c["name"] == "oracle_comparison")
    assert oracle["status"] == "fail"
    assert oracle["details"]["l2_law_error"] is None


def test_estimate_flags_non_finite_extrapolation(workdir):
    inp = write(workdir / "s.csv", "0.0\n0.5\n")
    code = main(["estimate", "--input", inp, "--functional",
                 '{"name":"linear","phi":[1e308,1e308]}', "--level", "2"])
    assert code == 3
    report = json.loads((workdir / "estimate.report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["failed_atoms"] == list(range(report["n_atoms"])) == [0, 1]


@pytest.mark.parametrize("values, phi", [
    ("-10.0\n10.0\n", "[0,1e308]"),     # per-atom terms +inf and -inf
    ("0.0\n1.0\n", "[1e308,1e308]"),    # overflow inside Horner's rule
])
def test_estimate_overflow_flags_atoms_with_a_clean_stderr(workdir, values, phi):
    inp = write(workdir / "s.csv", values)
    proc = run_cli("estimate", "--input", inp, "--functional",
                   f'{{"name":"linear","phi":{phi}}}', "--level", "2")
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert proc.returncode == 3
    report = json.loads((workdir / "estimate.report.json").read_text())
    assert report["failed_atoms"] == [0, 1]


def test_estimate_flags_an_atom_whose_step_times_weight_underflows(workdir):
    # weight 1e-320 times every level-20 step underflows to 0
    inp = write(workdir / "s.csv", "0.0,1e-320\n1.0,1.0\n")
    proc = run_cli("estimate", "--input", inp, "--functional", '{"name":"variance"}',
                   "--level", "20")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3
    report = json.loads((workdir / "estimate.report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["failed_atoms"] == [0]


def test_verify_with_an_overflowing_g_norm_exits_cleanly(workdir):
    # g = 2x - 2 mean is about +-1.4e154 and the weighted sum of g^2 overflows
    inp = write(workdir / "s.csv", "-7e153\n7e153\n")
    proc = run_cli("verify", "--input", inp, "--functional", '{"name":"variance"}',
                   "--level", "2", "--out", "v.json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 4)
    report = json.loads((workdir / "v.json").read_text(), parse_constant=_reject_constant)
    assert report["all_passed"] is (proc.returncode == 0)


@pytest.mark.parametrize("spec", [
    '{"name":"linear","phi":[0,0,1e308]}',     # the derivative 2e308 x overflows
    '{"name":"interaction","w":[0,0,1e308]}',
])
def test_verify_skips_oracle_when_the_derivative_overflows(workdir, spec):
    inp = write(workdir / "s.csv", BALANCED)
    assert main(["verify", "--input", inp, "--functional", spec]) in (0, 4)
    report = json.loads((workdir / "verify_report.json").read_text())
    oracle = report["checks"][-1]
    assert oracle["name"] == "oracle_comparison"
    assert oracle["status"] == "skipped"
    assert "no closed form" in oracle["reason"]


def test_estimate_flags_a_richardson_factor_past_the_float_range(workdir):
    # (1 / 1e-160)^2 overflows: the atom is flagged, as for any extrapolation
    # that is not finite, instead of ending in a traceback.
    inp = write(workdir / "s.csv", "0.0\n")
    cfg = write(workdir / "cfg.json", json.dumps({"ratio": 1e-160, "count": 2}))
    code = main(["estimate", "--config", cfg, "--input", inp, "--functional",
                 '{"name":"variance"}', "--level", "1", "--out", "grid.csv"])
    assert code == 3
    report = json.loads((workdir / "grid.report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["failed_atoms"] == [0]


def test_estimate_flags_a_probe_that_moves_an_atom_past_the_float_range(workdir):
    # the largest float plus the level-0 step is inf: that probe fails, so
    # the atom is flagged and the run writes its outputs and exits 3, with
    # no warning on stderr
    inp = write(workdir / "s.csv", "1.7976931348623157e308\n")
    proc = run_cli("estimate", "--input", inp, "--functional", '{"name":"variance"}',
                   "--level", "0", "--out", "grid.csv")
    assert (proc.returncode, proc.stderr) == (3, "")
    report = json.loads((workdir / "grid.report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["failed_atoms"] == [0]
    assert (workdir / "grid.csv").read_text().count("\n") == 2


def test_verify_fails_probes_that_move_a_value_past_the_float_range(workdir):
    inp = write(workdir / "s.csv", "1.7976931348623157e308\n")
    proc = run_cli("verify", "--input", inp, "--functional", '{"name":"variance"}',
                   "--level", "0", "--out", "v.json")
    assert (proc.returncode, proc.stderr) == (4, "")
    report = json.loads((workdir / "v.json").read_text(), parse_constant=_reject_constant)
    assert report["checks"][0]["status"] == "fail"


def test_verify_oracle_whose_taylor_bound_overflows_exits_4_with_strict_json(workdir):
    # A cubic phi in central mode with an atom beyond about 1.3e163: the
    # smallest step squared is past the float range, so the bound is inf.
    inp = write(workdir / "s.csv", "1e300\n1e16\n1.0\n")
    proc = run_cli("verify", "--input", inp, "--functional",
                   '{"name":"linear","phi":[0,1,0,1]}', "--level", "2", "--out", "v.json")
    assert (proc.returncode, proc.stderr) == (4, "")
    report = json.loads((workdir / "v.json").read_text(), parse_constant=_reject_constant)
    oracle = report["checks"][-1]
    assert oracle["name"] == "oracle_comparison"
    assert (oracle["status"], oracle["tolerance"]) == ("fail", None)


def test_verify_law_invariance_on_the_smallest_weight(workdir):
    # 2^-1074 has no split into two positive floats: the weight-split
    # transform leaves it whole instead of failing as an input error.
    inp = write(workdir / "s.csv", "0.0,1.0\n0.5,5e-324\n")
    proc = run_cli("verify", "--input", inp, "--functional", '{"name":"variance"}',
                   "--level", "2", "--out", "v.json")
    assert proc.stderr == "" and proc.returncode in (0, 4)
    report = json.loads((workdir / "v.json").read_text(), parse_constant=_reject_constant)
    invariance = next(c for c in report["checks"] if c["name"] == "law_invariance")
    assert (invariance["status"], invariance["discrepancy"]) == ("pass", 0.0)


def test_verify_oracle_without_a_finite_third_derivative(workdir):
    # phi = 1e306 x^10 has a finite derivative, but the Taylor bound needs
    # the third one, 720e306 x^7, which overflows: the generic rule applies.
    inp = write(workdir / "s.csv", BALANCED)
    spec = '{"name":"linear","phi":[0,0,0,0,0,0,0,0,0,0,1e306]}'
    assert main(["verify", "--input", inp, "--functional", spec]) in (0, 4)
    report = json.loads((workdir / "verify_report.json").read_text())
    oracle = report["checks"][-1]
    assert oracle["details"]["tolerance_rule"].startswith("generic")


def test_flags_override_config(workdir):
    rng = np.random.default_rng(3)
    inp = write(workdir / "s.csv",
                "".join(f"{float(v)!r}\n" for v in rng.uniform(0, 1, 16)))
    cfg = write(workdir / "cfg.json", json.dumps({
        "functional": {"name": "variance"},
        "tol": 1e-30,
        "levels": "2..3",
    }))
    # config alone cannot converge on a non-grid sample; the overrides can
    assert main(["estimate", "--config", cfg, "--input", inp]) == 3
    assert main(["estimate", "--config", cfg, "--input", inp,
                 "--tol", "1e-2", "--levels", "2..12"]) == 0


# ---------------------------------------------------------------------------
# robustness: any input ends in an exit code, never in a traceback
# ---------------------------------------------------------------------------

extreme_values = st.one_of(
    st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False),
    st.integers(-64, 64).map(float),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, 1e6, 1e6 + 1]),
)
extreme_weights = st.one_of(
    st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300, 1e-30, 0.5, 1.0, 1e300]),
    st.floats(1e-320, 1.0, allow_nan=False, allow_infinity=False),
)
FUZZ_FUNCTIONALS = (
    '{"name":"variance"}',
    '{"name":"mean_square"}',
    '{"name":"linear","phi":[0,1,0.5]}',
    '{"name":"interaction","w":[0,0,0.5]}',
)


@given(command=st.sampled_from(["estimate", "verify", "study"]),
       functional=st.sampled_from(FUZZ_FUNCTIONALS),
       records=st.lists(st.tuples(extreme_values, extreme_weights), min_size=1, max_size=6),
       weighted=st.booleans(), level=st.integers(0, 1023),
       mode=st.sampled_from(["central", "one_sided"]))
@settings(max_examples=60, deadline=None)
def test_any_sample_ends_in_an_exit_code_and_strict_json(
        command, functional, records, weighted, level, mode):
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "s.csv"
        inp.write_text("".join(f"{v!r},{w!r}\n" if weighted else f"{v!r}\n"
                               for v, w in records))
        out = Path(tmp) / ("out.json" if command == "verify" else "out.csv")
        levels = ["--level", str(level)] if command != "study" else [
            "--levels", f"{level}..{min(level + 1, 1023)}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--input", str(inp), "--functional", functional,
                         "--mode", mode, "--out", str(out), *levels])
        assert code in (0, 1, 2, 3, 4)
        assert "np." not in err.getvalue()  # numbers print as Python floats
        reports = {"estimate": Path(tmp) / "out.report.json", "verify": out}
        if code not in (1, 2) and command in reports:
            json.loads(reports[command].read_text(), parse_constant=_reject_constant)
