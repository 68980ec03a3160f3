import json
import math
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from blocknewton import curvature, experiments, fcnn, trainer
from blocknewton.curvature import CurvatureKind, covariance_bound_check, ea_curvature
from blocknewton.errors import ConfigError
from blocknewton.experiments import (
    APPROXIMATIONS,
    ExperimentSpec,
    atomic_write_text,
    compare_curvatures,
    metrics_jsonl,
    run_bound_check,
    run_training,
    spec_from_json,
    summary_csv,
)
from blocknewton.fcnn import Activation, CrossEntropySoftmax, FcnnModel, SigmoidGate, batch_pass
from blocknewton.trainer import (
    Optimizer,
    SecondOrderSpec,
    SolverChoice,
    TrainConfig,
    accuracy,
    mean_loss,
    train,
)
from helpers import count_calls, flat_parameters


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

    def test_omitted_keys_take_the_dataclass_defaults(self):
        spec, default = spec_from_json({}), ExperimentSpec()
        assert spec.train_cfg == TrainConfig()
        for name in ("activation", "criterion", "dataset", "compare_steps"):
            assert getattr(spec, name) == getattr(default, name)
        assert spec_from_json({"criterion": {"kind": "sigmoid_gate"}}).criterion == SigmoidGate()

    @pytest.mark.parametrize("kind", ["ea_cg", "kfi"])
    def test_omitted_optimizer_keys_take_the_dataclass_defaults(self, kind):
        second = spec_from_json({"optimizer": {"kind": kind}}).train_cfg.second_order
        assert second == SecondOrderSpec(solver=SolverChoice(kind))

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
        cfgs = [cfg for _, cfg in spec.grid]
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
    def test_train(self, monkeypatch, pass_calls, second_order):
        spec = spec_with(second_order)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        cfg = spec.train_cfg
        hessians = count_calls(monkeypatch, CrossEntropySoftmax, "hessians")
        train(spec.build_model(0), spec.criterion, x_train, y_train, cfg)
        steps = cfg.epochs * math.ceil(x_train.shape[0] / cfg.batch_size)
        # the per-epoch loss evaluation computes losses only, outside
        # criterion_batch; only the PCH and Gauss-Newton curvature reads the
        # output Hessians
        assert pass_calls == {"criterion_batch": steps, "backprop_bias_gradients": steps}
        reads_hessians = second_order is not None and second_order.kind is not CurvatureKind.FISHER
        assert len(hessians) == (steps if reads_hessians else 0)

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
        # the step reuses its kind's column: one ea_curvatures call per step,
        # for the table's four columns alone (the convex criterion has all four)
        spec = spec_with(second_order, compare_steps=3)
        calls = count_calls(monkeypatch, curvature, "ea_curvatures")
        compare_curvatures(spec)
        assert len(calls) == spec.compare_steps
        assert all(args[2] == list(APPROXIMATIONS.values()) for args, _, _ in calls)

    @pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd", "ea_cg-pch1"])
    def test_train_builds_curvature_once_per_pass(self, monkeypatch, second_order):
        spec = spec_with(second_order)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        cfg = spec.train_cfg
        calls = count_calls(monkeypatch, curvature, "ea_curvature")
        train(spec.build_model(0), spec.criterion, x_train, y_train, cfg)
        steps = cfg.epochs * math.ceil(x_train.shape[0] / cfg.batch_size)
        assert len(calls) == (0 if second_order is None else steps)

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


@pytest.mark.parametrize(
    "second_order",
    [None, PCH1, SecondOrderSpec(kind=CurvatureKind.PCH, solver=SolverChoice.KFI)],
    ids=["sgd", "ea_cg-pch1", "kfi-pch1"],
)
def test_weight_gradients_multiplied_out_only_for_sgd(monkeypatch, second_order):
    # at paper width the Newton solvers read each weight gradient as its
    # factors G^T h / r (the layers no wider than the batch, 3 and 4,
    # multiply theirs out inside the solve); SGD multiplies out every
    # layer's once per step, one layer at a time
    rng = np.random.default_rng(5)
    model = FcnnModel.xavier([784, 256, 128, 64, 10], Activation.SIGMOID, rng=rng)
    x = rng.uniform(0.0, 1.0, (128, 784))
    y = np.eye(10)[rng.integers(0, 10, 128)]
    cfg = TrainConfig(learning_rate=0.1, momentum=0.9, batch_size=128, second_order=second_order)
    built = count_calls(monkeypatch, fcnn, "weight_gradient")
    optimizer = Optimizer(model, cfg)  # outside a with-block: no lane, no split
    for step in range(1, 3):
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        hbs = None if second_order is None else ea_curvature(model, bp, second_order.kind, second_order.gamma)
        optimizer.step(bp.grads, hbs)
        assert len(built) == step * (model.num_layers if second_order is None else 2)


def test_sgd_step_holds_one_weight_gradient_at_a_time(monkeypatch):
    # one SGD step at paper width allocates little more than the widest
    # layer's weight gradient (784 x 256 doubles, 1.53 MiB) beyond what it
    # keeps; a second array of that size on top, such as a scaled copy of
    # the gradient, breaks the bound.  On the lane, layer 1's two halves of
    # 128 rows may be alive at once, on the two threads, which tracemalloc
    # both traces: together they are one weight gradient
    monkeypatch.setattr(trainer, "_blas_threads", lambda: 1)
    rng = np.random.default_rng(5)
    model = FcnnModel.xavier([784, 256, 128, 64, 10], Activation.SIGMOID, rng=rng)
    x = rng.uniform(0.0, 1.0, (128, 784))
    y = np.eye(10)[rng.integers(0, 10, 128)]
    cfg = TrainConfig(learning_rate=0.1, momentum=0.9, batch_size=128)
    bp = batch_pass(model, CrossEntropySoftmax(), x, y)
    widest = max(w.nbytes for w in model.weights)
    for cpus in (1, 2):  # inline, then on the lane
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: cpus)
        with Optimizer(model, cfg, scores=True) as optimizer:
            assert (optimizer.lane is not None) == (cpus == 2)
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                optimizer.step(bp.grads, None)
                peak = tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()
        assert peak < 1.25 * widest, (cpus, peak / widest)


@pytest.fixture
def released_passes(monkeypatch):
    """Wrap batch_pass where trainer and experiments look it up: each call
    first asserts that the pass the previous call returned is gone, then
    keeps a weak reference to the new one.  check() asserts the same
    between calls (before an evaluation, after a run)."""
    last = []
    original = fcnn.batch_pass

    def check():
        assert not last or last[-1]() is None, "the previous batch's pass is still referenced"

    def recorded(*args, **kwargs):
        check()
        bp = original(*args, **kwargs)
        last.append(weakref.ref(bp))
        return bp

    for mod in (trainer, experiments):
        monkeypatch.setattr(mod, "batch_pass", recorded)
    return check, last


@pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd-momentum", "ea_cg-pch1"])
def test_train_releases_each_pass(monkeypatch, released_passes, second_order):
    check, passes = released_passes
    scored = []

    def mean_loss_after_release(*args):
        check()
        scored.append(True)
        return mean_loss(*args)

    monkeypatch.setattr(trainer, "mean_loss", mean_loss_after_release)
    spec = spec_with(second_order)
    spec.train_cfg = replace(spec.train_cfg, epochs=2)
    x_train, y_train, x_test, y_test = spec.load_dataset(0).split()
    train(spec.build_model(0), spec.criterion, x_train, y_train, spec.train_cfg, x_test, y_test)
    assert len(passes) == 2 * math.ceil(x_train.shape[0] / spec.train_cfg.batch_size)
    assert len(scored) == 2


@pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd-momentum", "ea_cg-pch1"])
def test_compare_curvatures_releases_each_pass(released_passes, second_order):
    check, passes = released_passes
    compare_curvatures(spec_with(second_order, compare_steps=4))
    check()
    assert len(passes) == 4


@pytest.mark.parametrize(
    "driver,reader",
    [("train", (trainer, "ea_curvature")), ("compare", (experiments, "true_bias_hessian"))],
)
@pytest.mark.parametrize(
    "second_order",
    [PCH1, SecondOrderSpec(kind=CurvatureKind.PCH, solver=SolverChoice.KFI)],
    ids=["ea_cg-pch1", "kfi-pch1"],
)
def test_pass_is_freed_before_the_newton_solve(monkeypatch, driver, reader, second_order):
    # sigma', sigma'', backprop's products W^T g and the output Hessians of a
    # step's pass feed its curvature alone: the solver, which reads the
    # gradients and the blocks, starts after all of them are gone
    module, name = reader
    original = getattr(module, name)
    refs, live_at_solve = [], []

    def read_and_watch(model, bp, *args):
        blocks = original(model, bp, *args)
        trace = bp.trace
        arrays = [*trace.hprime[1:-1], *trace.hdprime[1:-1], *bp.grad_h[1:], bp.hess_out]
        refs[:] = [weakref.ref(bp), weakref.ref(trace)] + [weakref.ref(a) for a in arrays]
        return blocks

    def watched(solve):
        def solve_after_release(hbs, grads, cfg, *lane_and_grams):
            live_at_solve.append(sum(ref() is not None for ref in refs))
            return solve(hbs, grads, cfg, *lane_and_grams)

        return solve_after_release

    monkeypatch.setattr(module, name, read_and_watch)
    for solve in ("ea_cg_direction", "kfi_direction"):
        monkeypatch.setattr(trainer, solve, watched(getattr(trainer, solve)))
    spec = spec_with(second_order, compare_steps=3)
    if driver == "train":
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        train(spec.build_model(0), spec.criterion, x_train, y_train, spec.train_cfg)
        steps = math.ceil(x_train.shape[0] / spec.train_cfg.batch_size)
    else:
        compare_curvatures(spec)
        steps = spec.compare_steps
    assert live_at_solve == [0] * steps


@pytest.mark.parametrize("driver", ["train", "compare"])
@pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd-momentum", "ea_cg-pch1"])
def test_one_optimizer_per_run_steps_on_every_batch(monkeypatch, driver, second_order):
    # a run builds one Optimizer, whose state lives from its first step to
    # its last, and each batch's pass feeds one step of that optimizer
    built, steps = [], []

    class Recorded(Optimizer):
        def __init__(self, model, cfg, *scores):
            super().__init__(model, cfg, *scores)
            built.append(self)

        def step(self, grads, hbs, *grams):
            steps.append((self, grads))
            super().step(grads, hbs, *grams)

    for module in (trainer, experiments):
        monkeypatch.setattr(module, "Optimizer", Recorded)
    passes = count_calls(monkeypatch, fcnn, "batch_pass")
    spec = spec_with(second_order, compare_steps=7)
    spec.train_cfg = replace(spec.train_cfg, epochs=2)
    if driver == "train":
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        train(spec.build_model(0), spec.criterion, x_train, y_train, spec.train_cfg)
        batches = 2 * math.ceil(x_train.shape[0] / spec.train_cfg.batch_size)
    else:
        compare_curvatures(spec)
        batches = spec.compare_steps
    assert len(built) == 1 and all(opt is built[0] for opt, _ in steps)
    assert [id(grads) for _, grads in steps] == [id(bp.grads) for _, _, bp in passes]
    assert len(steps) == batches


def test_newton_optimizer_holds_no_momentum_buffers():
    model = FcnnModel.xavier([4, 6, 3], Activation.SIGMOID, seed=0)
    sgd = Optimizer(model, TrainConfig())
    assert [v.shape for v in sgd.velocity_w + sgd.velocity_b] == [
        a.shape for a in model.weights + model.biases
    ]
    assert not any(v.any() for v in sgd.velocity_w + sgd.velocity_b)
    for solver in SolverChoice:
        newton = Optimizer(model, TrainConfig(second_order=SecondOrderSpec(solver=solver)))
        assert (newton.velocity_w, newton.velocity_b) == ([], [])


@pytest.mark.parametrize("second_order", [None, PCH1], ids=["sgd-momentum", "ea_cg-pch1"])
def test_compare_curvature_takes_the_steps_of_train(second_order):
    # one epoch, and two whole epochs: 36 rows in batches of 8 leave a short
    # fifth batch, so the second epoch starts on its own shuffle's first batch
    for epochs in (1, 2):
        spec = spec_with(second_order)
        spec.train_cfg = replace(spec.train_cfg, epochs=epochs)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        spec.compare_steps = epochs * math.ceil(x_train.shape[0] / spec.train_cfg.batch_size)
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
        assert np.array_equal(flat_parameters(built[0]), flat_parameters(trained)), epochs


class TestBoundCheck:
    def test_all_layers_hold(self):
        results = run_bound_check(small_spec(), seed=0, batch=8)
        assert [r.layer for r in results] == [2, 3]
        assert all(r.holds for r in results)

    def test_relu_configuration(self):
        spec = small_spec(activation=Activation.RELU)
        results = run_bound_check(spec, seed=1, batch=8)
        assert all(r.holds for r in results)

    def test_runs_the_exact_recursion_once(self, monkeypatch):
        # every layer's check reads the same per-instance Hessians
        calls = count_calls(monkeypatch, curvature, "exact_bias_hessian_instances")
        results = run_bound_check(ExperimentSpec(), seed=0, batch=16)
        assert [r.layer for r in results] == list(range(2, 8))
        assert len(calls) == 1

    def test_matches_each_layer_checked_alone(self):
        spec = ExperimentSpec()
        _, model, (x_train, y_train, _, _) = spec.setup(0)
        bp = batch_pass(model, spec.criterion, x_train[:16], y_train[:16])
        alone = [
            covariance_bound_check(model, bp, t, model.activation.lipschitz)
            for t in range(2, model.num_layers + 1)
        ]
        assert [(r.lhs, r.rhs) for r in run_bound_check(spec, seed=0, batch=16)] == alone
