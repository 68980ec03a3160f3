import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from blocknewton import experiments, fcnn, solvers, trainer
from blocknewton.curvature import CurvatureKind
from blocknewton.data import synth_blobs
from blocknewton.errors import ConfigError, NumericalBreakdownError, TrainingDivergedError
from blocknewton.fcnn import (
    CrossEntropySoftmax,
    FcnnModel,
    backprop,
    batch_pass,
    criterion_batch,
    criterion_losses,
    forward,
    softmax,
)
from blocknewton.experiments import ExperimentSpec, compare_curvatures
from blocknewton.solvers import HvpMode, PiPolicy, SolverConfig
from blocknewton.trainer import (
    EVAL_ROWS,
    Optimizer,
    SecondOrderSpec,
    SolverChoice,
    TrainConfig,
    accuracy,
    mean_loss,
    shuffled_indices,
    splitmix64,
    train,
)

from helpers import (
    count_calls,
    flat_direction,
    flat_gradient,
    flat_parameters,
    set_flat_parameters,
    weight_gradients,
)


def small_problem(seed=0, classes=3, per_class=20):
    ds = synth_blobs(classes=classes, dim=4, per_class=per_class, spread=0.05, seed=seed)
    x_train, y_train, x_test, y_test = ds.split()
    model = FcnnModel.xavier([4, 8, classes], seed=seed)
    return model, x_train, y_train, x_test, y_test


class TestShuffle:
    def test_splitmix_known_fixed_point_free(self):
        # distinct inputs map to distinct 64-bit outputs on a small range
        outs = {splitmix64(i) for i in range(1000)}
        assert len(outs) == 1000
        assert all(0 <= o < 2**64 for o in outs)

    def test_permutation_properties(self):
        idx = shuffled_indices(100, seed=7, epoch=3)
        assert sorted(idx) == list(range(100))

    def test_deterministic_and_epoch_dependent(self):
        a = shuffled_indices(50, seed=1, epoch=0)
        b = shuffled_indices(50, seed=1, epoch=0)
        c = shuffled_indices(50, seed=1, epoch=1)
        d = shuffled_indices(50, seed=2, epoch=0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


def reference_shuffle(n, seed, epoch):
    """The Fisher-Yates loop shuffled_indices was first written as: one
    splitmix64 call per swap on a numpy index array."""
    state = splitmix64((seed & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(epoch))
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        state = splitmix64(state)
        j = state % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("n", [0, 1, 2, 7, 320, 1024])
@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 5])
def test_shuffle_matches_reference_loop(n, seed):
    for epoch in (0, 1, 9):
        order = shuffled_indices(n, seed, epoch)
        assert order.dtype == np.int64
        assert np.array_equal(order, reference_shuffle(n, seed, epoch))


class TestSgd:
    def test_zero_learning_rate_leaves_model_unchanged(self):
        model, x_train, y_train, x_test, y_test = small_problem()
        before = flat_parameters(model).copy()
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=0)
        train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert np.array_equal(flat_parameters(model), before)

    def test_zero_momentum_is_vanilla_gradient_descent(self):
        model, x_train, y_train, _, _ = small_problem(seed=3)
        criterion = CrossEntropySoftmax()
        reference = model.copy()
        lr = 0.05
        # replay one epoch by hand with plain theta -= lr * g
        order = shuffled_indices(x_train.shape[0], seed=3, epoch=0)
        for lo in range(0, x_train.shape[0], 16):
            batch = order[lo : lo + 16]
            trace = forward(reference, x_train[batch])
            go, _ = criterion_batch(criterion, trace.h[-1], y_train[batch])
            grads = backprop(reference, trace, go)
            for t, gw in enumerate(weight_gradients(grads)):
                reference.weights[t] = reference.weights[t] - lr * gw
                reference.biases[t] = reference.biases[t] - lr * grads.grad_bias[t]

        cfg = TrainConfig(learning_rate=lr, momentum=0.0, epochs=1, batch_size=16, seed=3)
        train(model, criterion, x_train, y_train, cfg)
        assert np.array_equal(flat_parameters(model), flat_parameters(reference))

    def test_seed_determinism_bit_identical(self):
        reports = []
        for _ in range(2):
            model, x_train, y_train, x_test, y_test = small_problem(seed=5)
            cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=8, seed=11)
            r = train(
                model,
                CrossEntropySoftmax(),
                x_train,
                y_train,
                cfg,
                x_test,
                y_test,
                record_time=False,
            )
            reports.append(r)
        assert np.array_equal(
            flat_parameters(reports[0].model), flat_parameters(reports[1].model)
        )
        for e0, e1 in zip(reports[0].epochs, reports[1].epochs):
            assert (e0.loss, e0.test_accuracy, e0.wall_seconds) == (
                e1.loss,
                e1.test_accuracy,
                e1.wall_seconds,
            )

    def test_loss_decreases_on_separable_blobs(self):
        model, x_train, y_train, x_test, y_test = small_problem(seed=1)
        cfg = TrainConfig(learning_rate=0.2, epochs=15, batch_size=8, seed=0)
        r = train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert r.final_loss < r.epochs[0].loss
        assert r.final_accuracy >= 0.9

    def test_step_after_set_flat_parameters_leaves_theta_alone(self):
        model, x_train, y_train, _, _ = small_problem(seed=6)
        theta = flat_parameters(FcnnModel.xavier([4, 8, 3], seed=7))
        theta_before = theta.copy()
        set_flat_parameters(model, theta)
        bp = batch_pass(model, CrossEntropySoftmax(), x_train[:8], y_train[:8])
        Optimizer(model, TrainConfig()).step(bp.grads, None)
        assert np.array_equal(theta, theta_before)
        assert not np.array_equal(flat_parameters(model), theta_before)

    def test_rejects_negative_learning_rate(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-0.1)


class TestSecondOrder:
    @pytest.mark.parametrize(
        "spec",
        [
            SecondOrderSpec(kind=CurvatureKind.PCH, gamma=-1.0),
            SecondOrderSpec(kind=CurvatureKind.PCH, gamma=0.0),
            SecondOrderSpec(kind=CurvatureKind.GAUSS_NEWTON),
            SecondOrderSpec(kind=CurvatureKind.FISHER, solver=SolverChoice.KFI),
        ],
        ids=["pch1", "pch2", "gn", "kfi-fisher"],
    )
    def test_reduces_loss(self, spec):
        model, x_train, y_train, x_test, y_test = small_problem(seed=2)
        cfg = TrainConfig(
            learning_rate=0.3, epochs=5, batch_size=16, seed=0, second_order=spec
        )
        r = train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert r.final_loss < r.epochs[0].loss or r.final_loss < 0.1

    def test_heavy_damping_approaches_scaled_gradient(self):
        # alpha -> 1 makes the damped system nearly d = -g
        model, x_train, y_train, _, _ = small_problem(seed=4)
        criterion = CrossEntropySoftmax()
        bp = batch_pass(model, criterion, x_train, y_train)
        grads = bp.grads

        from blocknewton.curvature import ea_curvature
        from blocknewton.solvers import ea_cg_direction

        curv = ea_curvature(model, bp, CurvatureKind.PCH)
        cfg = SolverConfig(alpha=0.999)
        d = ea_cg_direction(curv, grads, cfg)
        g = flat_gradient(grads)
        rel = np.linalg.norm(flat_direction(d) + g) / np.linalg.norm(g)
        assert rel <= 1e-2


def wide_problem(train_fraction=0.8):
    """A net whose widest layer is solvers._OVERLAP_MIN_WIDTH wide, on 240
    training rows (one full EVAL_ROWS block and one partial) and 60 test rows."""
    ds = synth_blobs(
        classes=3, dim=8, per_class=100, spread=0.05, seed=3, train_fraction=train_fraction
    )
    model = FcnnModel.xavier([8, solvers._OVERLAP_MIN_WIDTH, 3], seed=3)
    return (model, *ds.split())


OPTIMIZERS = {
    "sgd": None,
    "ea_cg": SecondOrderSpec(kind=CurvatureKind.PCH),
}
PATHS = {"inline": 1, "threaded": 2}  # usable CPUs seen by the overlap gate


def force_path(monkeypatch, name):
    """Score inline or on the helper thread, by the CPU count the gate reads,
    with its evaluation-cost threshold lowered to admit wide_problem."""
    monkeypatch.setattr(trainer, "EVAL_OVERLAP_MIN_MACS", 0)
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: PATHS[name])


@pytest.fixture(params=list(PATHS))
def path(request, monkeypatch):
    force_path(monkeypatch, request.param)
    return request.param


class TestEvaluationOverlap:
    """Scoring epoch e on the run's lane while epoch e+1's steps run, and
    the last epoch on the lane and the calling thread together."""

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_threaded_bit_identical_to_inline(self, monkeypatch, name):
        cfg = TrainConfig(
            learning_rate=0.2, epochs=3, batch_size=32, second_order=OPTIMIZERS[name]
        )
        runs = {}
        for label in PATHS:
            force_path(monkeypatch, label)
            threads = count_calls(monkeypatch, threading, "Thread")
            model, x_train, y_train, x_test, y_test = wide_problem()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
            try:
                report = train(
                    model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test,
                    record_time=False,
                )
            finally:
                sys.setswitchinterval(interval)
            runs[label] = report, len(threads)
            monkeypatch.undo()
        (inline, inline_threads), (threaded, threaded_threads) = runs["inline"], runs["threaded"]
        # one lane per run: it scores every epoch (the last one shared with
        # the calling thread) and, under EA-CG, takes each step's Grams and solves
        assert inline_threads == 0 and threaded_threads == 1
        assert [(r.epoch, r.loss, r.test_accuracy) for r in threaded.epochs] == [
            (r.epoch, r.loss, r.test_accuracy) for r in inline.epochs
        ]
        assert np.array_equal(
            flat_parameters(threaded.model).view(np.uint64),
            flat_parameters(inline.model).view(np.uint64),
        )
        _, x_train, y_train, x_test, y_test = wide_problem()
        last = threaded.epochs[-1]
        assert mean_loss(threaded.model, CrossEntropySoftmax(), x_train, y_train) == last.loss
        y_index = np.argmax(y_test, axis=1)
        assert accuracy(threaded.model, x_test, y_index) == last.test_accuracy

    def test_readme_net_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        threads = count_calls(monkeypatch, threading, "Thread")
        ds = synth_blobs(classes=10, dim=64, per_class=20, spread=0.08, seed=0)
        x_train, y_train, x_test, y_test = ds.split()
        model = FcnnModel.xavier([64, 32, 10], seed=0)
        cfg = TrainConfig(epochs=2, second_order=SecondOrderSpec())
        train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert threads == []

    @pytest.mark.parametrize("threshold, threads", [(None, 0), (0, 1), (1, 0)])
    def test_gate_reads_evaluation_cost(self, monkeypatch, threshold, threads):
        # wide_problem's widest layer is 128, but its evaluation is cheap:
        # None keeps the real threshold, 0 and 1 set it at and just past the cost
        model, x_train, y_train, x_test, y_test = wide_problem()
        cost = (x_train.shape[0] + x_test.shape[0]) * sum(w.size for w in model.weights)
        assert cost < trainer.EVAL_OVERLAP_MIN_MACS
        if threshold is not None:
            monkeypatch.setattr(trainer, "EVAL_OVERLAP_MIN_MACS", cost + threshold)
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        started = count_calls(monkeypatch, threading, "Thread")
        cfg = TrainConfig(epochs=2, batch_size=32)
        train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert len(started) == threads

    # (learning rate, batch size) that make epoch 0's loss non-finite: SGD's
    # steps leave non-finite parameters, which the helper's copy must take;
    # EA-CG's one step leaves finite ones whose loss overflows, and on the
    # threaded path epoch 1's step fails on them before epoch 0's loss is in
    DIVERGING = {"sgd": (1e308, 32), "ea_cg": (1e308, 256)}

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_divergence_names_its_epoch(self, path, name):
        model, x_train, y_train, x_test, y_test = wide_problem()
        lr, batch_size = self.DIVERGING[name]
        cfg = TrainConfig(
            learning_rate=lr, epochs=3, batch_size=batch_size, second_order=OPTIMIZERS[name]
        )
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert type(err.value) is TrainingDivergedError
        optimizer = "sgd" if name == "sgd" else "ea_cg, curvature pch"
        assert str(err.value) == f"loss became non-finite at epoch 0 (optimizer {optimizer})"
        if name == "sgd":
            assert not np.all(np.isfinite(flat_parameters(model)))
        elif path == "threaded":
            # the diverged model's next step failed, and the loss error won
            assert isinstance(err.value.__context__, NumericalBreakdownError)
        if path == "inline":
            assert err.value.__context__ is None

    def test_helper_keeps_callers_error_handling(self):
        with solvers.Lane() as lane:
            with np.errstate(over="raise"):
                raised = lane.submit(np.exp, np.array([1000.0]))
            warned = lane.submit(np.exp, np.array([1000.0]))
            with pytest.raises(FloatingPointError):
                raised.result()
            with pytest.warns(RuntimeWarning, match="overflow"):
                assert warned.result() == np.inf

    def test_snapshot_skips_parameter_checks(self):
        # the evaluation's copy of a diverged model keeps its NaN parameters
        model = FcnnModel.xavier([3, 4, 2], seed=0)
        model.weights[0][0, 0] = np.nan
        snap = model.copy()
        assert snap.activation is model.activation
        for mine, theirs in zip(snap.weights + snap.biases, model.weights + model.biases):
            assert mine is not theirs and np.array_equal(mine, theirs, equal_nan=True)

    @pytest.mark.parametrize("failing_epoch", [0, 2])
    def test_scoring_error_is_raised(self, monkeypatch, path, failing_epoch):
        # epoch 2 is the last, which the calling thread scores on either path
        calls, original = [], trainer.mean_loss

        def fail_once(*args):
            calls.append(threading.current_thread())
            if len(calls) == failing_epoch + 1:
                raise RuntimeError("scoring failed")
            return original(*args)

        monkeypatch.setattr(trainer, "mean_loss", fail_once)
        model, x_train, y_train, x_test, y_test = wide_problem()
        cfg = TrainConfig(epochs=3, batch_size=32)
        with pytest.raises(RuntimeError, match="scoring failed"):
            train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        on_helper = calls[-1] is not threading.main_thread()
        assert on_helper == (path == "threaded" and failing_epoch + 1 < cfg.epochs)


def paper_spec(second_order, epochs=2, batch_size=128):
    """784-256-128-64-10 on 320 blobs rows: 256 training rows (two EVAL_ROWS
    blocks), 64 test rows, so both the solvers' and the evaluation gate pass."""
    cfg = TrainConfig(
        learning_rate=0.1, epochs=epochs, batch_size=batch_size, seed=5, second_order=second_order
    )
    data = {"kind": "blobs", "classes": 10, "dim": 784, "per_class": 32, "spread": 0.08}
    return ExperimentSpec(
        architecture=[784, 256, 128, 64, 10], train_cfg=cfg, dataset=data, compare_steps=3
    )


def run_train(spec):
    x_train, y_train, x_test, y_test = spec.load_dataset(0).split()
    model = spec.build_model(0)
    report = train(
        model, spec.criterion, x_train, y_train, spec.train_cfg, x_test, y_test, record_time=False
    )
    return [(r.epoch, r.loss, r.test_accuracy) for r in report.epochs], flat_parameters(model).tobytes()


def run_compare(spec):
    # a smaller batch keeps the per-instance exact Hessians at paper width small
    spec.train_cfg = replace(spec.train_cfg, batch_size=32)
    return compare_curvatures(spec).to_csv()


DRIVERS = {"train": run_train, "compare": run_compare}
LANE_SOLVES = {
    "ea_cg-exact_kron": SecondOrderSpec(),
    "ea_cg-ea_one_rank": SecondOrderSpec(solver_cfg=SolverConfig(hvp_mode=HvpMode.EA_ONE_RANK)),
    "kfi-trace_norm": SecondOrderSpec(
        kind=CurvatureKind.FISHER,
        solver=SolverChoice.KFI,
        solver_cfg=SolverConfig(pi_policy=PiPolicy.TRACE_NORM),
    ),
}


def new_threads_left(run):
    """Run run(); return the threads it started (a list, one per start)
    and the threads alive after it that were not alive before it."""
    before = set(threading.enumerate())
    with pytest.MonkeyPatch.context() as mp:
        started = count_calls(mp, threading, "Thread")
        run()
    return started, set(threading.enumerate()) - before


class TestRunLane:
    """One helper lane per paper-width run: each Newton step's input Grams
    and its non-widest layers' solves, and the evaluation, run on it."""

    @pytest.mark.parametrize("driver", list(DRIVERS))
    @pytest.mark.parametrize("name", list(LANE_SOLVES))
    def test_bit_identical_to_one_cpu(self, monkeypatch, driver, name):
        outputs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(solvers, "_usable_cpus", lambda: cpus)
            threads = count_calls(monkeypatch, threading, "Thread")
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
            try:
                outputs[cpus] = DRIVERS[driver](paper_spec(LANE_SOLVES[name]))
            finally:
                sys.setswitchinterval(interval)
            assert len(threads) == cpus - 1  # no lane on one CPU, one lane per run on two
            monkeypatch.undo()
        assert outputs[2] == outputs[1]

    def test_each_step_submits_its_grams_around_its_pass(self, monkeypatch):
        # layer 1's Gram as soon as the batch is gathered, layers 2-4's after
        # the pass, then the solves of layers 2-4 behind them; layer 1, the
        # widest, is solved on the calling thread
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        events, submit, original = [], solvers.Lane.submit, trainer.batch_pass

        def recorded_submit(self, fn, *args):
            assert not any(isinstance(arg, fcnn.BatchPass) for arg in args)
            events.append(fn.__name__)
            return submit(self, fn, *args)

        def recorded_pass(*args):
            events.append("batch_pass")
            return original(*args)

        monkeypatch.setattr(solvers.Lane, "submit", recorded_submit)
        monkeypatch.setattr(trainer, "batch_pass", recorded_pass)
        spec = paper_spec(SecondOrderSpec(), epochs=1)
        spec.dataset = dict(spec.dataset, per_class=16)  # 128 training rows: one step
        run_train(spec)
        solves = ["_solve_layer"] * 3
        split = ["losses", "predict"]  # the last epoch's second row blocks, if any
        step = ["_gram_eig", "batch_pass", "_gram_eig", "_gram_eig", "_gram_eig", *solves]
        assert events[: len(step)] == step
        assert all(event in split for event in events[len(step) :])

    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_no_thread_outlives_a_run(self, driver):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_usable_cpus", lambda: 2)
            started, left = new_threads_left(lambda: DRIVERS[driver](paper_spec(SecondOrderSpec())))
        assert len(started) == 1 and left == set()

    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_no_thread_outlives_an_indefinite_block(self, monkeypatch, driver):
        # the widest layer fails on the calling thread while the lane still
        # holds the other layers' solves
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        module = trainer if driver == "train" else experiments
        original = module.ea_curvature
        monkeypatch.setattr(module, "ea_curvature", lambda *a: [-hb for hb in original(*a)])
        spec = paper_spec(SecondOrderSpec())

        def run():
            with pytest.raises(NumericalBreakdownError, match="^layer 1: damped block is not positive"):
                DRIVERS[driver](spec)

        started, left = new_threads_left(run)
        assert len(started) == 1 and left == set()

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_no_thread_outlives_a_diverged_loss_scored_on_the_lane(self, monkeypatch, name):
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
        lr, batch_size = TestEvaluationOverlap.DIVERGING[name]
        spec = paper_spec(OPTIMIZERS[name], epochs=3, batch_size=batch_size)
        spec.train_cfg = replace(spec.train_cfg, learning_rate=lr)
        scored_on, original = [], trainer.mean_loss

        def recorded(*args):
            scored_on.append(threading.current_thread())
            return original(*args)

        monkeypatch.setattr(trainer, "mean_loss", recorded)

        def run():
            with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="at epoch 0 "):
                run_train(spec)

        started, left = new_threads_left(run)
        assert len(started) == 1 and left == set()
        # epoch 0, the one scored, was scored on the lane
        assert len(scored_on) == 1 and scored_on[0] is not threading.current_thread()


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [1, EVAL_ROWS - 1, EVAL_ROWS, EVAL_ROWS + 1, 2 * EVAL_ROWS])
    def test_block_counts_and_values(self, monkeypatch, rows):
        model, x_train, y_train, _, _ = wide_problem(train_fraction=1.0)
        x, y = x_train[:rows], y_train[:rows]
        whole = forward(model, x).h[-1]
        expected_losses = criterion_losses(CrossEntropySoftmax(), whole, y)
        expected_pred = np.argmax(softmax(whole), axis=1)
        y_index = np.argmax(y, axis=1)
        forwards = count_calls(monkeypatch, trainer, "forward")
        joined = count_calls(monkeypatch, np, "concatenate")
        loss = mean_loss(model, CrossEntropySoftmax(), x, y)
        acc = accuracy(model, x, y_index)
        blocks = -(-rows // EVAL_ROWS)
        assert len(forwards) == 2 * blocks
        assert all(len(args[0]) == blocks for args, _, _ in joined)
        losses, pred = (result for _, _, result in joined)
        assert losses.shape == pred.shape == (rows,)
        # a block's GEMM may round differently from the whole batch's
        assert np.allclose(losses, expected_losses, rtol=1e-12, atol=0)
        assert np.array_equal(pred, expected_pred)
        assert loss == float(losses.mean())
        assert acc == float(np.mean(expected_pred == y_index))

    def test_no_rows(self, monkeypatch):
        model, x_train, y_train, _, _ = wide_problem()
        joined = count_calls(monkeypatch, np, "concatenate")
        assert accuracy(model, x_train[:0], np.empty(0, int)) == 0.0
        with np.errstate(all="ignore"), pytest.warns(RuntimeWarning):
            assert np.isnan(mean_loss(model, CrossEntropySoftmax(), x_train[:0], y_train[:0]))
        assert [len(args[0]) for args, _, _ in joined] == [1]

    def test_empty_test_split_records_zero_accuracy(self, path):
        model, x_train, y_train, x_test, y_test = wide_problem(train_fraction=1.0)
        assert x_test.shape[0] == 0
        cfg = TrainConfig(epochs=2, batch_size=32)
        report = train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert [r.test_accuracy for r in report.epochs] == [0.0, 0.0]
