import json
import math
import sys

import numpy as np
import pytest

from blocknewton import curvature, fcnn
from blocknewton.curvature import CurvatureKind
from blocknewton.errors import ConfigError
from blocknewton.experiments import (
    ExperimentSpec,
    atomic_write_text,
    compare_curvatures,
    metrics_jsonl,
    run_bound_check,
    run_training,
    spec_from_json,
    summary_csv,
)
from blocknewton.fcnn import Activation, CrossEntropySoftmax, SigmoidGate
from blocknewton.trainer import (
    SecondOrderSpec,
    SolverChoice,
    TrainConfig,
    accuracy,
    mean_loss,
    train,
)
from helpers import count_calls


def small_spec(**overrides):
    base = dict(
        architecture=[4, 6, 5, 3],
        activation=Activation.SIGMOID,
        criterion=CrossEntropySoftmax(),
        train_cfg=TrainConfig(learning_rate=0.1, epochs=2, batch_size=8, seed=0),
        dataset={"kind": "blobs", "classes": 3, "dim": 4, "per_class": 15, "spread": 0.05},
        compare_steps=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecJson:
    def test_defaults(self):
        spec = spec_from_json({})
        assert spec.architecture == [64, 32, 16, 16, 8, 8, 8, 10]
        assert isinstance(spec.criterion, CrossEntropySoftmax)
        assert spec.train_cfg.second_order is None

    def test_full_document(self):
        doc = {
            "architecture": [4, 8, 3],
            "activation": "relu",
            "criterion": {"kind": "sigmoid_gate", "delta": 4.0, "epsilon": 0.3},
            "train": {"learning_rate": 0.05, "epochs": 7, "batch_size": 16, "seed": 3},
            "optimizer": {
                "kind": "ea_cg",
                "curvature": "pch",
                "gamma": 0.0,
                "solver_cfg": {"alpha": 0.05, "max_cg": 10, "eps_cg": 1e-4},
            },
            "dataset": {"kind": "blobs", "classes": 3, "dim": 4, "per_class": 10},
        }
        spec = spec_from_json(doc)
        assert spec.activation is Activation.RELU
        assert isinstance(spec.criterion, SigmoidGate)
        assert spec.criterion.delta == 4.0
        so = spec.train_cfg.second_order
        assert so.kind is CurvatureKind.PCH and so.gamma == 0.0
        assert so.solver is SolverChoice.EA_CG
        assert so.solver_cfg.alpha == 0.05

    def test_grid_points_are_parsed_specs(self):
        doc = {
            "optimizer": {"kind": "ea_cg", "solver_cfg": {"max_cg": 7}},
            "grid": {"learning_rate": [0.3], "alpha": [0.01, 0.05]},
        }
        spec = spec_from_json(doc)
        assert [params for params, _ in spec.grid] == [
            {"alpha": 0.01, "learning_rate": 0.3},
            {"alpha": 0.05, "learning_rate": 0.3},
        ]
        cfgs = [point.train_cfg for _, point in spec.grid]
        assert [cfg.learning_rate for cfg in cfgs] == [0.3, 0.3]
        solver_cfgs = [cfg.second_order.solver_cfg for cfg in cfgs]
        assert [s.alpha for s in solver_cfgs] == [0.01, 0.05]
        assert spec.train_cfg.learning_rate == 0.1
        assert doc["optimizer"]["solver_cfg"] == {"max_cg": 7}  # the document is not edited

    def test_unknown_criterion(self):
        with pytest.raises(ConfigError):
            spec_from_json({"criterion": {"kind": "hinge"}})

    def test_bad_architecture(self):
        with pytest.raises(ConfigError):
            spec_from_json({"architecture": [4]})


class TestOutputs:
    def test_metrics_jsonl_shape(self):
        report = run_training(small_spec(), record_time=False)
        lines = metrics_jsonl(report).strip().split("\n")
        assert len(lines) == 2
        for i, line in enumerate(lines):
            doc = json.loads(line)
            assert set(doc) == {"epoch", "loss", "test_acc", "wall_s"}
            assert doc["epoch"] == i
            assert doc["wall_s"] == 0.0

    def test_summary_csv_round_trips_floats(self):
        report = run_training(small_spec(), record_time=False)
        lines = summary_csv(report).strip().split("\n")
        assert lines[0] == "epoch,loss,test_acc,wall_s"
        cells = lines[1].split(",")
        assert float(cells[1]) == report.epochs[0].loss

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "sub" / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert list(target.parent.iterdir()) == [target]  # no temp left behind


class TestCompareCurvatures:
    def test_table_layout_and_total(self):
        table = compare_curvatures(small_spec(), seed=0)
        k = 3
        assert table.num_layers == k
        for name in ("fisher", "gauss_newton", "pch1", "pch2"):
            col = table.columns[name]
            assert col is not None and len(col) == k + 1
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "layer,fisher,gauss_newton,pch1,pch2"
        assert len(lines) == k + 2
        assert lines[-1].startswith("total,")

    def test_total_column_is_single_step_consistent(self):
        # with one step, total must equal the joint norm of the layer rows
        table = compare_curvatures(small_spec(compare_steps=1), seed=0)
        for col in table.columns.values():
            if col is None:
                continue
            assert abs(col[-1] ** 2 - sum(v**2 for v in col[:-1])) <= 1e-9 * max(
                1.0, col[-1] ** 2
            )

    def test_gauss_newton_suppressed_for_nonconvex(self):
        spec = small_spec(criterion=SigmoidGate())
        table = compare_curvatures(spec, seed=0)
        assert table.columns["gauss_newton"] is None
        csv_text = table.to_csv()
        row = csv_text.strip().split("\n")[1].split(",")
        assert row[2] == ""  # empty gauss_newton cell

    def test_pch_beats_fisher_on_small_net(self):
        spec = small_spec(compare_steps=5)
        table = compare_curvatures(spec, seed=0)
        assert table.columns["pch1"][-1] < table.columns["fisher"][-1]


PCH1 = SecondOrderSpec(kind=CurvatureKind.PCH, gamma=-1.0)


def spec_with(second_order, **overrides):
    cfg = TrainConfig(
        learning_rate=0.1, momentum=0.9, epochs=1, batch_size=8, seed=0,
        second_order=second_order,
    )
    return small_spec(train_cfg=cfg, **overrides)


@pytest.fixture
def pass_calls(monkeypatch):
    """Count criterion_batch and backprop_bias_gradients calls, wrapped at
    every blocknewton module name they are looked up under."""
    counts = {}
    for name in ("criterion_batch", "backprop_bias_gradients"):
        original = getattr(fcnn, name)
        counts[name] = 0

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "blocknewton" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


class TestOnePassPerStep:
    @pytest.mark.parametrize(
        "second_order",
        [
            None,
            PCH1,
            SecondOrderSpec(kind=CurvatureKind.FISHER, solver=SolverChoice.KFI),
        ],
        ids=["sgd", "ea_cg-pch1", "kfi-fisher"],
    )
    def test_train(self, pass_calls, second_order):
        spec = spec_with(second_order)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        cfg = spec.train_cfg
        train(spec.build_model(0), spec.criterion, x_train, y_train, cfg)
        steps = cfg.epochs * math.ceil(x_train.shape[0] / cfg.batch_size)
        # the per-epoch loss evaluation adds one criterion call and no backprop
        assert pass_calls == {
            "criterion_batch": steps + cfg.epochs,
            "backprop_bias_gradients": steps,
        }

    @pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd", "ea_cg-pch1"])
    def test_compare_curvatures(self, pass_calls, second_order):
        spec = spec_with(second_order, compare_steps=4)
        compare_curvatures(spec)
        assert pass_calls == {"criterion_batch": 4, "backprop_bias_gradients": 4}


class TestCurvaturePerPass:
    @pytest.mark.parametrize(
        "second_order",
        [
            None,
            PCH1,
            SecondOrderSpec(kind=CurvatureKind.PCH, gamma=0.0),
            SecondOrderSpec(kind=CurvatureKind.FISHER, solver=SolverChoice.KFI),
        ],
        ids=["sgd", "ea_cg-pch1", "ea_cg-pch2", "kfi-fisher"],
    )
    def test_compare_curvatures_steps_on_its_column(self, monkeypatch, second_order):
        # the step reuses its kind's column: one ea_curvature call per column
        # (the convex criterion has all four) and one set of moments per step
        spec = spec_with(second_order, compare_steps=3)
        calls = count_calls(monkeypatch, curvature, "ea_curvature")
        moments = count_calls(monkeypatch, fcnn, "batch_moments")
        compare_curvatures(spec)
        assert len(calls) == 4 * spec.compare_steps
        assert len(moments) == spec.compare_steps

    @pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd", "ea_cg-pch1"])
    def test_train_computes_moments_once_per_pass(self, monkeypatch, second_order):
        spec = spec_with(second_order)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        cfg = spec.train_cfg
        moments = count_calls(monkeypatch, fcnn, "batch_moments")
        train(spec.build_model(0), spec.criterion, x_train, y_train, cfg)
        steps = cfg.epochs * math.ceil(x_train.shape[0] / cfg.batch_size)
        assert len(moments) == (0 if second_order is None else steps)

    @pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd", "ea_cg-pch1"])
    def test_derivatives_computed_only_where_consumed(self, monkeypatch, second_order):
        # backprop reads sigma' and only the curvature reads sigma''; the
        # per-epoch evaluation reads neither
        spec = spec_with(second_order)
        x_train, y_train, x_test, y_test = spec.load_dataset(0).split()
        cfg = spec.train_cfg
        model = spec.build_model(0)
        first = count_calls(monkeypatch, fcnn, "_first_derivative")
        second = count_calls(monkeypatch, fcnn, "_second_derivative")
        mean_loss(model, spec.criterion, x_train, y_train)
        accuracy(model, x_test, np.argmax(y_test, axis=1))
        assert (len(first), len(second)) == (0, 0)
        train(model, spec.criterion, x_train, y_train, cfg, x_test, y_test)
        hidden = model.num_layers - 1
        once_per_batch = hidden * cfg.epochs * math.ceil(x_train.shape[0] / cfg.batch_size)
        assert len(first) == once_per_batch
        assert len(second) == (0 if second_order is None else once_per_batch)


@pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd-momentum", "ea_cg-pch1"])
def test_compare_curvature_takes_the_steps_of_train(second_order):
    spec = spec_with(second_order)
    x_train, y_train, _, _ = spec.load_dataset(0).split()
    spec.compare_steps = math.ceil(x_train.shape[0] / spec.train_cfg.batch_size)
    built = []
    build = spec.build_model

    def build_and_keep(seed):
        built.append(build(seed))
        return built[-1]

    spec.build_model = build_and_keep
    compare_curvatures(spec)
    trained = build(0)
    train(trained, spec.criterion, x_train, y_train, spec.train_cfg)
    assert len(built) == 1
    assert np.array_equal(built[0].flat_parameters(), trained.flat_parameters())


class TestBoundCheck:
    def test_all_layers_hold(self):
        results = run_bound_check(small_spec(), seed=0, batch=8)
        assert [r.layer for r in results] == [2, 3]
        assert all(r.holds for r in results)

    def test_relu_configuration(self):
        spec = small_spec(activation=Activation.RELU)
        results = run_bound_check(spec, seed=1, batch=8)
        assert all(r.holds for r in results)
