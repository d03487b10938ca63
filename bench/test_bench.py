"""Self-tests of the benchmark on a tiny shape.

    python -m pytest bench -q
"""
from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from spans import END, PARENT, START

TINY = run.Shape(n=60, d=6, k=3, hidden=2, datasets=2, single_rows=40, check_rows=3)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((run.HERE / "layers.json").read_text())


def tiny_run(workload: str, trace: bool, seed: int = 0) -> dict:
    return run.run_workload(workload, seed=seed, seconds=0.05, trace=trace, shape=TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    result = tiny_run(workload, trace)
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(declared)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in result["metrics"].values())
    assert result["failures"] == []
    # training and prediction per data set, plus its checked rows: not a count of calls
    assert result["attempted"] == TINY.datasets * (2 + TINY.check_rows)


def test_benchmark_json_and_layer_map_agree():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    for kind in ("end_to_end", "per_layer"):
        assert sorted(LAYERS[kind]) == sorted(m["name"] for m in SPEC[kind])
    names = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in LAYERS["moves"]:
        assert set(entry["metrics"]) <= set(LAYERS["per_layer"])
        for target in entry["moves"]:
            assert target["metric"] in names
            assert set(target["workloads"]) <= workloads


def test_spans_nest_and_self_times_are_nonnegative():
    tracer = tiny_run("pairwise-perceptron", trace=True)["tracer"]
    spans = tracer.spans
    assert spans
    for s, self_s in zip(spans, tracer.self_times()):
        assert self_s >= -1e-9
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            assert parent[START] <= s[START] <= s[END] <= parent[END]


def test_solver_paths_per_workload():
    pairwise = tiny_run("pairwise-gfy", trace=True)["metrics"]
    assert pairwise["conjugate.solves"] > 0
    assert pairwise["conjugate.coord_ascent.solves"] == pairwise["conjugate.solves"]
    assert pairwise["conjugate.pga.solves"] == 0
    unary = tiny_run("unary-gfy", trace=True)["metrics"]
    assert unary["conjugate.closed_form.solves"] == unary["conjugate.solves"] > 0
    perceptron = tiny_run("pairwise-perceptron", trace=True)["metrics"]
    assert perceptron["conjugate.pga.solves"] > 0 and perceptron["conjugate.coord_ascent.solves"] > 0


def test_tracer_restores_the_library():
    training = importlib.import_module("efy.training")
    before = training.predict_marginals
    tiny_run("unary-gfy", trace=True)
    assert training.predict_marginals is before
    assert not hasattr(training.train, "__wrapped__")


def test_clock_probes_inside_a_call_and_restores_the_library():
    lib, _ = run.load_efy()
    before = lib.data.coordinate_ascent_box_quadratic
    clock = run.Clock()

    def set_up():
        assert lib.data.coordinate_ascent_box_quadratic is not before
        return lib.data.planted_pairwise(20, 4, 3, seed=1)

    ds, wall_s, ref_s = clock.measure(set_up, (lib.data, "coordinate_ascent_box_quadratic"))
    assert ds.n == 20 and wall_s > 0.0 and ref_s > 0.0
    assert lib.data.coordinate_ascent_box_quadratic is before
    _, wall_s, ref_s = clock.measure(lambda: None, (lib.data, "no_such_function"))
    assert wall_s > 0.0 and ref_s > 0.0


def test_corrupted_prediction_is_counted(monkeypatch):
    training = importlib.import_module("efy.training")
    original = training.predict_marginals

    def corrupted(model, params, reg, X, solver=None):
        out = original(model, params, reg, X, solver)
        if X.shape[0] > 1:
            out[0] = 1.0 - out[0]  # still inside the box, but not the argmax
        return out

    monkeypatch.setattr(training, "predict_marginals", corrupted)
    result = tiny_run("pairwise-gfy", trace=False)
    assert result["failures"]
    assert result["metrics"]["ok_frac"] < 1.0 - 0.01  # past ok_frac's bound


def test_check_row_rejects_a_wrong_argmax():
    lib, _ = run.load_efy()
    ds_full = lib.data.planted_pairwise(20, 4, 3, seed=1)
    model = lib.models.make_model("pairwise", 4, 3, hidden=2)
    reg = lib.regularizers.GiniBinary(0.5, 3)
    ds = run.DataSet(ds_full, ds_full, model, reg, cfg=None, params=model.init_params(1))
    x = ds_full.X[0]
    p = lib.training.predict_marginals(model, ds.params, reg, ds_full.X[:1])[0]
    assert run.check_row(lib, ds, x, p) is None
    assert run.check_row(lib, ds, x, 1.0 - p) is not None
    assert run.check_row(lib, ds, x, p + 2.0) is not None


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "unary-gfy", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
