import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

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
    hold_lane,
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

    def test_pinned_orders(self):
        # fixed orders, which the golden table pins only on its own build
        assert shuffled_indices(12, seed=7, epoch=3).tolist() == [
            1, 8, 4, 11, 0, 5, 3, 6, 7, 2, 10, 9
        ]
        assert shuffled_indices(12, seed=2**64 - 1, epoch=0).tolist() == [
            1, 4, 0, 10, 9, 11, 5, 2, 6, 7, 8, 3
        ]

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

    def test_rejects_an_empty_training_set(self):
        model, x_train, y_train, _, _ = small_problem()
        before = flat_parameters(model).copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised up front, before any numpy warning
            with pytest.raises(ConfigError, match="^training set has no rows$"):
                train(model, CrossEntropySoftmax(), x_train[:0], y_train[:0], TrainConfig())
        assert np.array_equal(flat_parameters(model), before)


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

    @pytest.mark.parametrize("kind", [CurvatureKind.GAUSS_NEWTON, CurvatureKind.FISHER])
    @pytest.mark.parametrize("gamma", [7.0, 0.0, np.nan])
    def test_rejects_a_gamma_only_pch_reads(self, kind, gamma):
        # spec_from_json's wording for the optimizer.gamma key
        expected = f"^gamma: unknown key for curvature '{kind.value}'; expected one of \\['kind', "
        with pytest.raises(ConfigError, match=expected):
            SecondOrderSpec(kind=kind, gamma=gamma)
        assert SecondOrderSpec(kind=kind, gamma=-1.0) == SecondOrderSpec(kind=kind)

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
    """A net whose widest layer is trainer._OVERLAP_MIN_WIDTH wide, on 240
    training rows (one full EVAL_ROWS block and one partial) and 60 test rows."""
    ds = synth_blobs(
        classes=3, dim=8, per_class=100, spread=0.05, seed=3, train_fraction=train_fraction
    )
    model = FcnnModel.xavier([8, trainer._OVERLAP_MIN_WIDTH, 3], seed=3)
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
    monkeypatch.setattr(trainer, "_usable_cpus", lambda: PATHS[name])


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
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        threads = count_calls(monkeypatch, threading, "Thread")
        ds = synth_blobs(classes=10, dim=64, per_class=20, spread=0.08, seed=0)
        x_train, y_train, x_test, y_test = ds.split()
        model = FcnnModel.xavier([64, 32, 10], seed=0)
        cfg = TrainConfig(epochs=2, second_order=SecondOrderSpec())
        train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert threads == []

    def test_narrow_newton_run_scores_on_the_lane_and_steps_inline(self, monkeypatch):
        # the README net's evaluation passes the gate on 6000 rows, but no
        # matrix its steps factor is _OVERLAP_MIN_WIDTH wide
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(trainer, "_blas_threads", lambda: 1)
        started, ran_on = count_calls(monkeypatch, threading, "Thread"), []
        for name in ("_gram_eig", "_solve_layer", "_solve_stacked"):
            record_thread(monkeypatch, name, ran_on)
        ds = synth_blobs(classes=10, dim=64, per_class=600, spread=0.08, seed=0)
        x_train, y_train, x_test, y_test = ds.split()
        model = FcnnModel.xavier([64, 32, 16, 16, 8, 8, 8, 10], seed=0)
        cost = (x_train.shape[0] + x_test.shape[0]) * sum(w.size for w in model.weights)
        assert cost >= trainer.EVAL_OVERLAP_MIN_MACS
        cfg = TrainConfig(epochs=2, batch_size=512, second_order=SecondOrderSpec())
        train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert len(started) == 1
        assert ran_on and set(ran_on) == {threading.current_thread()}

    @pytest.mark.parametrize("threshold, threads", [(None, 0), (0, 1), (1, 0)])
    def test_gate_reads_evaluation_cost(self, monkeypatch, threshold, threads):
        # wide_problem's widest layer is 128, but its evaluation is cheap:
        # None keeps the real threshold, 0 and 1 set it at and just past the cost
        model, x_train, y_train, x_test, y_test = wide_problem()
        cost = (x_train.shape[0] + x_test.shape[0]) * sum(w.size for w in model.weights)
        assert cost < trainer.EVAL_OVERLAP_MIN_MACS
        if threshold is not None:
            monkeypatch.setattr(trainer, "EVAL_OVERLAP_MIN_MACS", cost + threshold)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
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
            # a job the lane has not started runs in the asking thread, still
            # under the error state it was submitted under
            release = hold_lane(lane)
            ran_on = []

            def exp(x):
                ran_on.append(threading.current_thread())
                return np.exp(x)

            with np.errstate(over="raise"):
                raised = lane.submit(exp, np.array([1000.0]))
            with pytest.raises(FloatingPointError):
                raised.result()
            assert ran_on == [threading.current_thread()]
            release.set()

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
        scoring = scores_started(monkeypatch)

        def fail_once(*args):
            calls.append(threading.current_thread())
            scoring.release()
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


def scores_started(monkeypatch):
    """A semaphore that the test releases as each epoch's scoring starts,
    and that each epoch after the first takes before it steps.  So a score
    handed to the lane has started there before the calling thread asks for
    it, and the calling thread never takes it over."""
    scoring, original = threading.Semaphore(0), trainer.epoch_batches

    def after_the_last_score(n, batch_size, seed, epoch):
        assert epoch == 0 or scoring.acquire(timeout=30)
        return original(n, batch_size, seed, epoch)

    monkeypatch.setattr(trainer, "epoch_batches", after_the_last_score)
    return scoring


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
# SGD's batch, whose layer-1 product (96 x 256 x 784 multiply-adds) passes the
# SGD split gate; paper_spec's 256 training rows leave a short third batch of
# 64 rows, whose product does not
SGD_BATCH = 96
LANE_SOLVES = {
    "sgd": None,
    "ea_cg-exact_kron": SecondOrderSpec(),
    "ea_cg-ea_one_rank": SecondOrderSpec(solver_cfg=SolverConfig(hvp_mode=HvpMode.EA_ONE_RANK)),
    "kfi-trace_norm": SecondOrderSpec(
        kind=CurvatureKind.FISHER,
        solver=SolverChoice.KFI,
        solver_cfg=SolverConfig(pi_policy=PiPolicy.TRACE_NORM),
    ),
}
# compare_curvatures scores nothing on a lane, so an SGD compare run opens none
LANE_RUNS = [
    (name, driver) for name in LANE_SOLVES for driver in DRIVERS if (name, driver) != ("sgd", "compare")
]


def affinity():
    """The calling thread's CPU affinity mask, or None where it cannot be read."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


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
    and its non-widest layers' solves, the first half of the widest SGD
    layer's update, and the evaluation, run on it."""

    @pytest.mark.parametrize("name,driver", LANE_RUNS, ids=[f"{n}-{d}" for n, d in LANE_RUNS])
    def test_bit_identical_to_one_cpu(self, monkeypatch, name, driver):
        outputs = {}
        spec, run = partial(paper_spec, LANE_SOLVES[name]), DRIVERS[driver]
        if name == "sgd":
            spec = partial(spec, batch_size=SGD_BATCH)
        for cpus in (1, 2):
            monkeypatch.setattr(trainer, "_usable_cpus", lambda: cpus)
            threads = count_calls(monkeypatch, threading, "Thread")
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
            try:
                outputs[cpus] = run(spec())
            finally:
                sys.setswitchinterval(interval)
            assert len(threads) == cpus - 1  # no lane on one CPU, one lane per run on two
            monkeypatch.undo()
        assert outputs[2] == outputs[1]

    def test_each_step_submits_its_grams_around_its_pass(self, monkeypatch):
        # layer 1's Gram as soon as the batch is gathered, layers 2-4's after
        # the pass, then the solves of layers 2-4 behind them; layer 1, the
        # widest, is solved on the calling thread
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
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
        before = affinity()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_usable_cpus", lambda: 2)
            started, left = new_threads_left(lambda: DRIVERS[driver](paper_spec(SecondOrderSpec())))
        assert len(started) == 1 and left == set()
        assert affinity() == before  # the lane's half-mask pin is undone

    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_no_thread_outlives_an_indefinite_block(self, monkeypatch, driver):
        # the widest layer fails on the calling thread while the lane still
        # holds the other layers' solves
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        if driver == "train":
            original = trainer.ea_curvature
            monkeypatch.setattr(trainer, "ea_curvature", lambda *a: [-hb for hb in original(*a)])
        else:  # every column of the one recursion, the step's among them
            columns = experiments.ea_curvatures
            monkeypatch.setattr(
                experiments, "ea_curvatures", lambda *a: [[-hb for hb in c] for c in columns(*a)]
            )
        spec = paper_spec(SecondOrderSpec())

        def run():
            with pytest.raises(NumericalBreakdownError, match="^layer 1: damped block is not positive"):
                DRIVERS[driver](spec)

        started, left = new_threads_left(run)
        assert len(started) == 1 and left == set()

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_no_thread_outlives_a_diverged_loss_scored_on_the_lane(self, monkeypatch, name):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        lr, batch_size = TestEvaluationOverlap.DIVERGING[name]
        spec = paper_spec(OPTIMIZERS[name], epochs=3, batch_size=batch_size)
        spec.train_cfg = replace(spec.train_cfg, learning_rate=lr)
        scored_on, original = [], trainer.mean_loss
        scoring = scores_started(monkeypatch)

        def recorded(*args):
            scored_on.append(threading.current_thread())
            scoring.release()
            return original(*args)

        monkeypatch.setattr(trainer, "mean_loss", recorded)

        def run():
            with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="at epoch 0 "):
                run_train(spec)

        before = affinity()
        started, left = new_threads_left(run)
        assert len(started) == 1 and left == set()
        assert affinity() == before
        # epoch 0, the one scored, was scored on the lane
        assert len(scored_on) == 1 and scored_on[0] is not threading.current_thread()

    def test_step_runs_the_jobs_queued_behind_a_blocked_lane(self, monkeypatch):
        # every Gram and layer solve of the step queues behind a job that
        # holds the lane, so the calling thread runs them all, to the same bytes
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        spec = paper_spec(SecondOrderSpec(), epochs=1)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        batch = np.arange(spec.train_cfg.batch_size)
        params, ran_on = {}, []
        for blocked in (False, True):
            ran_on.clear()
            model = spec.build_model(0)
            with pytest.MonkeyPatch.context() as mp:
                for name in ("_gram_eig", "_solve_layer"):
                    record_thread(mp, name, ran_on)
                with Optimizer(model, spec.train_cfg) as opt:
                    release = hold_lane(opt.lane) if blocked else None
                    opt.run(spec.criterion, x_train, y_train, [batch])
                    if blocked:
                        release.set()
            params[blocked] = flat_parameters(model).tobytes()
            assert len(ran_on) == 8  # four Grams, four layer solves
            if blocked:
                assert ran_on == [threading.current_thread()] * 8
        assert params[True] == params[False]

    def test_sgd_step_runs_its_rows_queued_behind_a_blocked_lane(self, monkeypatch):
        # the first half of layer 1's rows queues behind a job that holds the
        # lane, so the calling thread updates every row itself, to the same bytes
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        spec = paper_spec(None, epochs=1)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        batch = np.arange(spec.train_cfg.batch_size)
        params = {}
        for blocked in (False, True):
            model = spec.build_model(0)
            with pytest.MonkeyPatch.context() as mp:
                products = record_products(mp)
                with Optimizer(model, spec.train_cfg, scores=True) as opt:
                    release = hold_lane(opt.lane) if blocked else None
                    opt.run(spec.criterion, x_train, y_train, [batch])
                    if blocked:
                        release.set()
            params[blocked] = flat_parameters(model).tobytes()
            # layer 1's 256 rows in two products of 128, layers 2-4's whole
            assert sorted(rows for _, rows in products) == [10, 64, 128, 128, 128]
            if blocked:
                assert {thread for thread, _ in products} == {threading.current_thread()}
        assert params[True] == params[False]

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_a_step_outside_the_with_block_starts_no_thread(self, monkeypatch, name):
        # the lane opens on entering the with-block and closes on leaving it,
        # so a bare Optimizer, or one whose block has ended, steps inline
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(trainer, "_blas_threads", lambda: 1)
        spec = paper_spec(OPTIMIZERS[name], epochs=1)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        batch = np.arange(spec.train_cfg.batch_size)
        opt = Optimizer(spec.build_model(0), spec.train_cfg, scores=True)

        def run():
            opt.run(spec.criterion, x_train, y_train, [batch])

        assert new_threads_left(run) == ([], set())
        with opt:
            assert opt.lane is not None
        assert opt.lane is None
        assert new_threads_left(run) == ([], set())


class TestSgdSplit:
    """On a lane the scoring opened, an SGD step hands the first half of the
    rows of each layer whose weight-gradient product passes
    trainer._SGD_SPLIT_MIN_MACS to it, and updates the rest itself."""

    # (widths, blob rows per class, BLAS threads read, split): 64-512-10's
    # layer 1 (4.2M multiply-adds at batch 128) and the README net step
    # inline, although their evaluation puts a lane in the run; the paper
    # net's layer 1 (25.7M) is updated in two halves, but only where
    # numpy's own OpenBLAS was found
    GATE = [
        ([64, 512, 10], 64, 1, False),
        ([64, 32, 16, 16, 8, 8, 8, 10], 600, 1, False),
        ([784, 256, 128, 64, 10], 32, 1, True),
        ([784, 256, 128, 64, 10], 32, None, False),
    ]

    @pytest.mark.parametrize(
        "widths,per_class,blas,split", GATE, ids=["64-512-10", "readme", "paper", "paper-other-blas"]
    )
    def test_gate_reads_the_steps_product(self, monkeypatch, widths, per_class, blas, split):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(trainer, "_blas_threads", lambda: blas)
        started = count_calls(monkeypatch, threading, "Thread")
        products = record_products(monkeypatch)
        ds = synth_blobs(classes=10, dim=widths[0], per_class=per_class, spread=0.08, seed=0)
        x_train, y_train, x_test, y_test = ds.split()
        model = FcnnModel.xavier(widths, seed=0)
        cost = (x_train.shape[0] + x_test.shape[0]) * sum(w.size for w in model.weights)
        assert cost >= trainer.EVAL_OVERLAP_MIN_MACS
        cfg = TrainConfig(epochs=2, batch_size=128)
        train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert len(started) == 1
        rows = [w.shape[0] for w in model.weights]
        if split:
            rows[:1] = [rows[0] // 2, rows[0] - rows[0] // 2]
        steps = cfg.epochs * -(-x_train.shape[0] // cfg.batch_size)
        assert sorted(n for _, n in products) == sorted(rows * steps)
        if not split:
            assert {thread for thread, _ in products} == {threading.current_thread()}

    def test_sgd_steps_open_no_lane(self, monkeypatch):
        # at paper width, an SGD run that scores nothing on a lane, such as
        # compare_curvatures', steps inline
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(trainer, "_blas_threads", lambda: 1)
        spec = paper_spec(None)
        for scores in (False, True):
            with Optimizer(spec.build_model(0), spec.train_cfg, scores) as opt:
                assert (opt.lane is not None) == scores

    # (rows, n_out, n_in, split): the product must pass the threshold (2**24
    # multiply-adds) and each half hold two rows, since OpenBLAS hands a
    # one-row product to GEMV, which rounds 128 x 3 x 65536 differently
    SPLITS = [
        (128, 256, 784, True),
        (64, 256, 784, False),
        (128, 4, 32768, True),
        (128, 3, 65536, False),
    ]

    @pytest.mark.parametrize("rows,n_out,n_in,split", SPLITS)
    def test_split_products_are_bit_identical(self, rows, n_out, n_in, split):
        rng = np.random.default_rng(0)
        g, h = rng.standard_normal((rows, n_out)), rng.uniform(size=(rows, n_in))
        assert trainer._splits(rows, np.empty((n_out, n_in))) == split
        if split:
            half = n_out // 2
            halves = [fcnn.weight_gradient(g[:, part], h) for part in (slice(half), slice(half, None))]
            whole = fcnn.weight_gradient(g, h)
            assert np.array_equal(np.vstack(halves).view(np.uint64), whole.view(np.uint64))

    # layer 1's 256 rows whose per-instance bias gradients are made huge: the
    # lane's half, this thread's half, or both
    HUGE = {"lane-half": slice(128), "own-half": slice(128, None), "both": slice(None)}

    @pytest.mark.parametrize("huge", list(HUGE))
    @pytest.mark.parametrize("path", list(PATHS))
    def test_overflow_raises_on_both_paths(self, monkeypatch, path, huge):
        # under over="raise", lr 1e308 overflows the scaling of a weight
        # gradient entry above 1.8; where this thread's half fails, the step
        # raises only once the lane's half is done
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: PATHS[path])
        monkeypatch.setattr(trainer, "_blas_threads", lambda: 1)
        spec = paper_spec(None, epochs=1)
        x_train, y_train, _, _ = spec.load_dataset(0).split()
        model = spec.build_model(0)
        bp = batch_pass(model, spec.criterion, x_train[:128], y_train[:128])
        bp.grads.bias_per_instance[0][:, self.HUGE[huge]] = 8.0
        opt = Optimizer(model, replace(spec.train_cfg, learning_rate=1e308), scores=True)

        def run():
            with opt, np.errstate(over="raise"):
                with pytest.raises(FloatingPointError, match="overflow"):
                    opt.step(bp.grads, None)

        started, left = new_threads_left(run)
        assert len(started) == PATHS[path] - 1 and left == set()
        lane_half_done = opt.velocity_w[0][:128].any()
        assert lane_half_done == (path == "threaded" and huge == "own-half")


def record_products(monkeypatch):
    """Record (thread, rows) for every weight_gradient call the trainer
    makes, rows being the number of weight rows the product forms."""
    products, original = [], trainer.weight_gradient

    def recorded(g, h):
        products.append((threading.current_thread(), g.shape[1]))
        return original(g, h)

    monkeypatch.setattr(trainer, "weight_gradient", recorded)
    return products


def record_thread(monkeypatch, name, threads):
    """Append the running thread to threads on each call of solvers.name,
    wrapped in solvers and in trainer."""
    original = getattr(solvers, name)

    def recorded(*args):
        threads.append(threading.current_thread())
        return original(*args)

    for module in (solvers, trainer):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recorded)


def test_importing_the_trainer_leaves_out_concurrent_futures():
    src = Path(trainer.__file__).resolve().parents[1]
    code = (
        "import sys, blocknewton.trainer\n"
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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
