"""CLI contracts: exit-code partition, config precedence, determinism,
round-trips of the emitted files."""

import json

import numpy as np
import pytest

from lionsderiv import (
    Functional,
    SchedulePolicy,
    convergence_study,
    make_sample,
    refine_until_converged,
    make_variance,
)
from lionsderiv.cli import main

BALANCED = "".join(["0.0\n", "1.0\n"] * 8)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path.name)


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
        schedule_policy=SchedulePolicy(),
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
    study = convergence_study(make_variance(), make_sample(values), range(2, 7),
                              schedule_policy=SchedulePolicy())
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


def test_missing_input_file_exits_1(workdir, capsys):
    code = main(["estimate", "--input", "nope.csv", "--functional",
                 '{"name":"variance"}'])
    assert code == 1


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


@pytest.mark.parametrize("levels", [["--level", "1030"], ["--level", "1080"],
                                    ["--levels", "2..1080"]])
def test_level_beyond_float_range_exits_2(workdir, capsys, levels):
    inp = write(workdir / "s.csv", BALANCED)
    assert main(["estimate", "--input", inp, "--functional",
                 '{"name":"variance"}', *levels]) == 2
    err = capsys.readouterr().err
    assert "1023" in err and len(err.strip().splitlines()) == 1


def test_verify_report_is_strict_json_for_non_finite_results(workdir):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    inp = write(workdir / "s.csv", "1e30\n-2e30\n3e30\n")
    code = main(["verify", "--input", inp, "--functional",
                 '{"name":"linear","phi":[0,0,0,0,0,0,0,0,0,0,1]}', "--level", "2",
                 "--out", "v.json"])
    assert code == 4
    report = json.loads((workdir / "v.json").read_text(), parse_constant=reject)
    oracle = next(c for c in report["checks"] if c["name"] == "oracle_comparison")
    assert oracle["status"] == "fail"
    assert oracle["details"]["l2_law_error"] is None


def test_estimate_flags_non_finite_extrapolation(workdir):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    inp = write(workdir / "s.csv", "0.0\n0.5\n")
    code = main(["estimate", "--input", inp, "--functional",
                 '{"name":"linear","phi":[1e308,1e308]}', "--level", "2"])
    assert code == 3
    report = json.loads((workdir / "estimate.report.json").read_text(),
                        parse_constant=reject)
    assert report["failed_atoms"] == list(range(report["n_atoms"])) == [0, 1]


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
