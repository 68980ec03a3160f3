import numpy as np
import pytest

from blocknewton.curvature import CurvatureKind
from blocknewton.data import synth_blobs
from blocknewton.errors import ConfigError
from blocknewton.fcnn import (
    CrossEntropySoftmax,
    FcnnModel,
    backprop,
    batch_pass,
    criterion_batch,
    forward,
)
from blocknewton.solvers import SolverConfig
from blocknewton.trainer import (
    SecondOrderSpec,
    SolverChoice,
    TrainConfig,
    optimizer_step,
    shuffled_indices,
    splitmix64,
    train,
    zero_velocity,
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


class TestSgd:
    def test_zero_learning_rate_leaves_model_unchanged(self):
        model, x_train, y_train, x_test, y_test = small_problem()
        before = model.flat_parameters().copy()
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=0)
        train(model, CrossEntropySoftmax(), x_train, y_train, cfg, x_test, y_test)
        assert np.array_equal(model.flat_parameters(), before)

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
            _, go, _ = criterion_batch(criterion, trace.h[-1], y_train[batch])
            grads = backprop(reference, trace, go)
            for t in range(reference.num_layers):
                reference.weights[t] = reference.weights[t] - lr * grads.grad_weight[t]
                reference.biases[t] = reference.biases[t] - lr * grads.grad_bias[t]

        cfg = TrainConfig(learning_rate=lr, momentum=0.0, epochs=1, batch_size=16, seed=3)
        train(model, criterion, x_train, y_train, cfg)
        assert np.array_equal(model.flat_parameters(), reference.flat_parameters())

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
            reports[0].model.flat_parameters(), reports[1].model.flat_parameters()
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
        theta = FcnnModel.xavier([4, 8, 3], seed=7).flat_parameters()
        theta_before = theta.copy()
        model.set_flat_parameters(theta)
        bp = batch_pass(model, CrossEntropySoftmax(), x_train[:8], y_train[:8])
        optimizer_step(model, bp, TrainConfig(), zero_velocity(model))
        assert np.array_equal(theta, theta_before)
        assert not np.array_equal(model.flat_parameters(), theta_before)

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
        cfg = SolverConfig(alpha=0.999, max_cg=200, eps_cg=1e-12)
        d = ea_cg_direction(curv, grads, cfg)
        g = grads.flat()
        rel = np.linalg.norm(d.flat() + g) / np.linalg.norm(g)
        assert rel <= 1e-2
