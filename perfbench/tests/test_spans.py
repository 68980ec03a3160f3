import numpy as np
import pytest

import child
import spans
from spans import PER_LAYER, Tracer, layer_metrics, self_times


def span(name, start, end, parent=None, **extra):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "step": 0, **extra}


def test_self_time_subtracts_direct_children_only():
    nested = [
        span("trainer.train", 0, 100),
        span("solvers.kfi_direction", 10, 40, parent=0),
        span("linalg.sym_eig", 15, 25, parent=1),
        span("fcnn.forward", 50, 90, parent=0),
    ]
    assert self_times(nested) == [30, 20, 10, 40]


def test_self_time_counts_overlapping_children_once():
    nested = [
        span("trainer.train", 0, 100),
        span("fcnn.forward", 10, 40, parent=0),
        span("fcnn.backprop", 30, 60, parent=0),
        span("fcnn.criterion_batch", 90, 120, parent=0),  # clipped at the parent's end
    ]
    assert self_times(nested)[0] == 100 - 50 - 10


def test_layer_metrics_from_hand_built_trial():
    ms = 1_000_000
    trial = {
        "window_ns": [0, 100 * ms],
        "steps": 2,
        "epochs": 1,
        "speed": 1.0,
        "spans": [
            span("data.synth_blobs", -10 * ms, -5 * ms),  # set-up, outside the window
            span("trainer.train", 0, 100 * ms),
            span("linalg.cg_solve", 0, 30 * ms, parent=1, dims=[6], iters=4, converged=True),
            span("linalg.kron_apply", 5 * ms, 15 * ms, parent=2, dims=[2, 3], flop=60),
            span("linalg.cg_solve", 30 * ms, 50 * ms, parent=1, dims=[6], iters=20, converged=False),
            span("linalg.sym_eig", 50 * ms, 60 * ms, parent=1, dims=[4]),
            span("trainer.mean_loss", 80 * ms, 100 * ms, parent=1),
            span("fcnn.forward", 81 * ms, 99 * ms, parent=6),  # evaluation, not a step
        ],
    }
    m = layer_metrics([trial], missing=[])
    assert set(m) == set(PER_LAYER) - {"bench.trace_overhead_ratio"}
    assert m["linalg.cg_solve.ms_per_step"] == pytest.approx((20 + 20) / 2)
    assert m["linalg.cg_solve.calls_per_step"] == 1.0
    assert m["linalg.cg_solve.iters_per_solve"] == 12.0
    assert m["linalg.cg_solve.converged_ratio"] == 0.5
    assert m["linalg.kron_apply.gflop_per_step"] == pytest.approx(60 / 1e9 / 2)
    assert m["linalg.sym_eig.n3_per_step"] == 64 / 2
    assert m["fcnn.forward.ms_per_step"] == 0.0
    assert m["trainer.eval.ms_per_epoch"] == pytest.approx(20.0)
    assert m["trainer.train.self_ms_per_step"] == pytest.approx((100 - 60 - 20) / 2)
    assert m["linalg.self_ms_per_step"] == pytest.approx((40 + 10 + 10) / 2)
    assert m["bench.step_ms"] == pytest.approx(80 / 2)
    assert m["data.synth_blobs.ms"] == pytest.approx(5.0)

    slow = layer_metrics([{**trial, "speed": 0.5}], missing=[])
    assert slow["bench.step_ms"] == pytest.approx(m["bench.step_ms"] / 2)
    assert slow["linalg.cg_solve.calls_per_step"] == m["linalg.cg_solve.calls_per_step"]


def test_missing_names_drop_only_their_metrics():
    trial = {"window_ns": [0, 10], "steps": 1, "epochs": 1, "speed": 1.0, "spans": []}
    m = layer_metrics([trial], missing=["linalg.kron_apply"])
    assert not any(k.startswith("linalg.kron_apply.") for k in m)
    assert "linalg.self_ms_per_step" not in m
    assert m["linalg.cg_solve.calls_per_step"] == 0.0


def test_tracer_wraps_every_lookup_name_and_restores_them():
    child.import_package()
    import blocknewton
    import blocknewton.linalg as linalg
    import blocknewton.solvers as solvers

    original = linalg.sym_eig
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    with Tracer() as tracer:
        for holder in (linalg, solvers, blocknewton):
            assert holder.sym_eig is not original
        out = linalg.pos_eig(a, -1.0)
    assert linalg.sym_eig is solvers.sym_eig is blocknewton.sym_eig is original
    np.testing.assert_array_equal(out, linalg.pos_eig(a, -1.0))
    names = [s["name"] for s in tracer.spans]
    assert names == ["linalg.pos_eig", "linalg.sym_eig"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[1]["dims"] == [2]
    assert tracer.missing == []


def test_tracer_reports_names_the_package_lacks(monkeypatch):
    child.import_package()
    monkeypatch.setitem(spans.TRACED, "linalg", ("sym_eig", "no_such_function"))
    monkeypatch.setitem(spans.TRACED, "no_such_module", ("f",))
    with Tracer() as tracer:
        pass
    assert tracer.missing == ["linalg.no_such_function", "no_such_module.f"]
    assert len(tracer.warnings) == 2
