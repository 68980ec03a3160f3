import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import child
import run
from spans import PER_LAYER
from workloads import END_TO_END, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    """The workload with the same depth, optimizer and timed call on a toy input."""
    spec = copy.deepcopy(workload.spec)
    depth = len(spec["architecture"])
    spec["architecture"] = [6] + [5] * (depth - 2) + [3]
    spec["dataset"] = {"kind": "blobs", "classes": 3, "dim": 6, "per_class": 8, "spread": 0.05}
    spec["train"].update(epochs=1, batch_size=8)
    if "compare_steps" in spec:
        spec["compare_steps"] = 2
    return dataclasses.replace(workload, spec=spec, loss_trials=2)


def assert_result_schema(doc, metric_names):
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(doc["correct"], bool)
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int) and 0 <= doc["failed"] <= doc["attempted"]
    assert set(doc["metrics"]) == set(metric_names)
    for metric in doc["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        assert isinstance(metric["unit"], str)
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_end_to_end_on_toy_input(name):
    workload = tiny(WORKLOADS[name])
    untraced = run.run_one(workload, seed=3, seconds=0, trace=False)
    traced = run.run_one(workload, seed=3, seconds=0, trace=True)
    for record in (untraced, traced):
        assert record["correct"], record["errors"]
        assert record["failed"] == 0 and record["warnings"] == []
    assert_result_schema(run.summary([untraced]), END_TO_END)
    assert_result_schema(run.summary([traced]), PER_LAYER)

    m = {k: v["value"] for k, v in traced["metrics"].items()}
    layers = len(workload.spec["architecture"]) - 1
    optimizer = workload.spec["optimizer"]["kind"]
    if workload.kind == "compare":
        assert m["curvature.true_bias_hessian.ms_per_step"] > 0
        assert m["experiments.compare_curvatures.self_ms_per_step"] > 0
    elif optimizer == "sgd":
        assert m["fcnn.criterion_batch.calls_per_step"] == 1
        assert m["linalg.sym_eig.calls_per_step"] == 0
        assert m["linalg.kron_apply.calls_per_step"] == 0
    else:
        assert m["fcnn.criterion_batch.calls_per_step"] == 2
    if optimizer == "ea_cg" and workload.kind == "train":
        assert m["linalg.cg_solve.calls_per_step"] == 2 * layers
        assert 0 <= m["linalg.cg_solve.converged_ratio"] <= 1


def test_output_checks_reject_bad_tables():
    good = "layer,fisher,gauss_newton,pch1,pch2\nlayer-1,1.0,2.0,3.0,4.0\ntotal,1.0,2.0,3.0,4.0\n"
    assert child.check_table(good, 1) == []
    assert child.check_table(good.replace("3.0", "nan", 1), 1)
    assert child.check_table(good.replace("2.0,", ",", 1), 1)
    assert child.check_table(good, 2)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sgd", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
