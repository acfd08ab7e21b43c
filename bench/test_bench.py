"""Tests of the benchmark itself: span arithmetic, tracer hygiene, inputs and
the agreement of BENCHMARK.json with the code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END, _call_in, import_package, traced_job  # noqa: E402
from tracer import (  # noqa: E402
    LAYER_METRICS,
    Span,
    Tracer,
    busy_by_name,
    layer_metrics,
    self_shares,
    self_times,
    snapshot,
)
from workloads import (  # noqa: E402
    SAMPLE,
    WORKLOADS,
    Workload,
    _check_variance_grid,
    _normal_weighted_records,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _tree(*rows):
    """Spans from (name, start, end, parent, overhead) rows, ids in order."""
    return [Span(i, name, start, end, parent, 0, overhead, {})
            for i, (name, start, end, parent, overhead) in enumerate(rows)]


def test_self_time_subtracts_children_and_tracer_overhead():
    spans = _tree(
        ("cli.main", 0.0, 10.0, None, 0.0),
        ("a", 1.0, 4.0, 0, 0.5),   # busy 2.5, one child covering 1.0
        ("b", 2.0, 3.0, 1, 0.0),
        ("c", 5.0, 9.0, 0, 0.0),
    )
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 4.0, 1.5, 1.0, 4.0])
    shares = self_shares(spans)
    assert list(shares)[0] == "c"
    # the tracer's own 0.5 s is nobody's self time
    assert math.fsum(shares.values()) == pytest.approx(9.5 / 10.0)


def test_busy_counts_a_span_nested_in_its_own_name_once():
    spans = _tree(
        ("x", 0.0, 10.0, None, 0.0),
        ("x", 2.0, 5.0, 0, 0.0),
        ("y", 6.0, 7.0, 0, 0.0),
        ("x", 7.5, 8.0, 2, 0.0),
    )
    assert busy_by_name(spans) == pytest.approx({"x": 10.0, "y": 1.0})


def test_estimator_self_times_from_a_synthetic_probe():
    spans = _tree(
        ("cli.main", 0.0, 12.0, None, 0.0),
        ("estimator.lions_derivative_at_atom", 1.0, 11.0, 0, 0.0),
        ("estimator.atom_shift_quotients", 2.0, 10.0, 1, 0.0),
        ("measure.make_measure", 3.0, 4.0, 2, 0.25),
        ("functionals.evaluate", 5.0, 7.0, 2, 0.0),
    )
    spans[3].attrs = {"noop": True}
    spans[4].attrs = {"atoms": 7}
    m = layer_metrics(spans)
    assert m["estimator.extrapolate_s"] == pytest.approx(10.0 - 8.0)
    assert m["estimator.probe_self_s"] == pytest.approx(8.0 - 1.0 - 2.0)
    assert m["measure.make_measure.busy_s"] == pytest.approx(0.75)
    assert m["measure.make_measure.noop_ratio"] == 1.0
    assert m["functionals.evaluate.atom_sum"] == 7
    assert m["cli.self_s"] == pytest.approx(12.0 - 10.0)
    assert m["measure.wasserstein2.calls"] == 0


SMALL = Workload(
    name="small-estimate",
    why="",
    write_input=lambda seed: "".join(f"{(k * 0.6180339887) % 1.0!r}\n" for k in range(48)),
    args=("estimate", "--functional", '{"name":"variance"}', "--levels", "2..6",
          "--tol", "1e-3"),
    outputs=("grid.csv", "grid.report.json"),
)


def test_traced_job_restores_names_and_writes_the_same_bytes(tmp_path):
    package = import_package()
    before = snapshot(package)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    for d in (plain, traced):
        SMALL.prepare(d, seed=0)
    argv = SMALL.argv(0)
    _, code_plain = _call_in(plain, package.cli.main, argv)
    _, code_traced, tracer = traced_job(package, traced, argv, job=0)
    assert snapshot(package) == before
    assert package.cli.lions_derivative_grid is package.estimator.lions_derivative_grid
    assert code_plain == code_traced
    assert SMALL.digests_of(plain) == SMALL.digests_of(traced)
    m = layer_metrics(tracer.spans)
    assert m["measure.read_sample_file.calls"] == 1
    assert m["measure.make_measure.calls"] > 0
    assert m["functionals.evaluate.calls"] > 0
    assert m["estimator.lions_derivative_grid.calls"] == m["estimator.levels_visited"]
    assert all(s.job == 0 for s in tracer.spans)


def test_patches_are_undone_when_the_job_raises():
    package = import_package()
    before = snapshot(package)
    with pytest.raises(RuntimeError):
        with Tracer().installed(package):
            assert snapshot(package) != before
            raise RuntimeError("job failed")
    assert snapshot(package) == before


def test_inputs_depend_only_on_the_seed(tmp_path):
    for w in WORKLOADS.values():
        w.prepare(tmp_path / "a", seed=5)
        w.prepare(tmp_path / "b", seed=5)
        w.prepare(tmp_path / "c", seed=6)
        first = (tmp_path / "a" / SAMPLE).read_bytes()
        assert first == (tmp_path / "b" / SAMPLE).read_bytes()
        assert first != (tmp_path / "c" / SAMPLE).read_bytes()


def test_weighted_records_pass_the_weight_sum_check():
    lines = _normal_weighted_records(3, 10_000).splitlines()
    weights = [float(line.split(",")[1]) for line in lines]
    assert len(weights) == 10_000
    assert abs(math.fsum(weights) - 1.0) < 1e-12


def _variance_grid(job_dir: Path, offset: float, err: float) -> None:
    """A level-3 refine job's files whose grid misses 2x - 2*mean by ``offset``."""
    job_dir.mkdir()
    values = [0.125, 0.25, 0.625]
    (job_dir / SAMPLE).write_text("".join(f"{v!r}\n" for v in values))
    (job_dir / "grid.report.json").write_text(json.dumps({"converged": True, "final_level": 3}))
    mean = math.fsum(values) / len(values)
    (job_dir / "grid.csv").write_text("x,g_hat,err_est\n" + "".join(
        f"{x!r},{2.0 * x - 2.0 * mean + offset!r},{err!r}\n" for x in values))


def test_refine_gate_allows_quotient_roundoff_and_no_more(tmp_path):
    # 1.43e-7 is the offset the level-17 grids carry on some input seeds.
    _variance_grid(tmp_path / "roundoff", 1.43e-7, 3e-9)
    assert _check_variance_grid(tmp_path / "roundoff") == []
    _variance_grid(tmp_path / "wrong", 2e-6, 3e-9)
    assert _check_variance_grid(tmp_path / "wrong")
    _variance_grid(tmp_path / "estimated", 2e-6, 1e-6)
    assert _check_variance_grid(tmp_path / "estimated") == []


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        LAYER_METRICS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
