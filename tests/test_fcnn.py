import numpy as np
import pytest

from blocknewton.errors import ConfigError, DimensionError
from blocknewton.fcnn import (
    Activation,
    CrossEntropySoftmax,
    FcnnModel,
    SigmoidGate,
    _sigmoid,
    backprop,
    batch_pass,
    criterion_batch,
    criterion_losses,
    forward,
    softmax,
    weight_gradient,
)
from helpers import (
    activation_values,
    assert_close_rel,
    both_criteria,
    count_calls,
    criterion_eval,
    fd_gradient,
    fd_loss_gradient,
    flat_gradient,
    flat_parameters,
    random_batch,
    random_model,
    reference_losses,
    set_flat_parameters,
    weight_gradients,
)


class TestForward:
    def test_affine_identity_layer(self):
        model = FcnnModel(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([[0.2, -0.4, 1.5]])
        trace = forward(model, x)
        assert np.allclose(trace.h[1], x)
        assert trace.hprime[1] is None  # output layer is affine

    def test_sigmoid_at_zero(self):
        h, hp, hpp = activation_values(Activation.SIGMOID, np.zeros(4))
        assert np.allclose(h, 0.5)
        assert np.allclose(hp, 0.25)
        assert np.allclose(hpp, 0.0)

    def test_sigmoid_derivative_range(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(1000) * 5
        _, hp, hpp = activation_values(Activation.SIGMOID, z)
        assert np.all(hp > 0) and np.all(hp <= 0.25)
        assert np.max(np.abs(hpp)) <= 0.1  # sup |sigma''| = 1/(6 sqrt 3)

    def test_activation_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        x, _ = random_batch(rng, model)
        trace = forward(model, x)
        eps = 1e-5
        for t in range(1, model.num_layers):
            z = trace.h[t - 1] @ model.weights[t - 1].T + model.biases[t - 1]
            a_p, _, _ = activation_values(model.activation, z + eps)
            a_m, _, _ = activation_values(model.activation, z - eps)
            fd1 = (a_p - a_m) / (2 * eps)
            a_0, _, _ = activation_values(model.activation, z)
            fd2 = (a_p - 2 * a_0 + a_m) / eps**2
            assert np.max(np.abs(fd1 - trace.hprime[t])) < 1e-7
            assert np.max(np.abs(fd2 - trace.hdprime[t])) < 1e-5

    def test_dimension_mismatch(self):
        model = FcnnModel.xavier([3, 2], seed=0)
        with pytest.raises(DimensionError):
            forward(model, np.ones((1, 4)))

    def test_relu_second_derivative_zero(self):
        _, _, hpp = activation_values(Activation.RELU, np.linspace(-2, 2, 9))
        assert np.all(hpp == 0.0)

    @pytest.mark.parametrize("case", ["special", "random"])
    def test_sigmoid_bit_identical_to_masked_reference(self, case):
        if case == "special":
            z = np.array(
                [-np.inf, -1e308, -800.0, -745.0, -1.0, -0.0, 0.0, 1.0, 745.0, 800.0, 1e308,
                 np.inf, np.nan, -np.nan]
            )
        else:
            z = np.random.default_rng(12).standard_normal((128, 256)) * 10
        with np.errstate(under="ignore"):
            got, want = _sigmoid(z), masked_sigmoid(z)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind", list(Activation))
    def test_trace_derivatives_equal_activation_values(self, kind):
        rng = np.random.default_rng(13)
        model = random_model(rng, activation=kind)
        x, _ = random_batch(rng, model, batch=16)
        x -= 0.5  # some ReLU pre-activations negative
        trace = forward(model, x)
        for t in range(1, model.num_layers):
            z = trace.h[t - 1] @ model.weights[t - 1].T + model.biases[t - 1]
            h, hp, hpp = activation_values(kind, z)
            assert np.array_equal(trace.h[t], h)
            assert np.array_equal(trace.hprime[t], hp)
            assert np.array_equal(trace.hdprime[t], hpp)
        assert trace.hprime[0] is trace.hprime[-1] is None
        assert trace.hdprime[0] is trace.hdprime[-1] is None

    @pytest.mark.parametrize("kind", list(Activation))
    def test_activation_values_match_direct_formulas(self, kind):
        z = np.random.default_rng(14).standard_normal((32, 9)) * 4
        if kind is Activation.SIGMOID:
            s = masked_sigmoid(z)
            want = (s, s * (1.0 - s), s * (1.0 - s) * (1.0 - 2.0 * s))
        else:
            want = (np.maximum(z, 0.0), (z > 0).astype(float), np.zeros_like(z))
        z_before = z.copy()
        for got, expect in zip(activation_values(kind, z), want):
            assert np.array_equal(got, expect)
        assert np.array_equal(z, z_before)


def masked_sigmoid(z):
    """Reference logistic function: the two overflow-free branches selected
    by boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestCriteria:
    def test_gate_midpoint(self):
        # probability of the true class exactly at epsilon -> loss 1/2
        gate = SigmoidGate(delta=5.0, epsilon=0.2)
        h = np.zeros(5)  # uniform softmax = 0.2 each
        loss, _, _ = criterion_eval(gate, h, np.eye(5)[2])
        assert abs(loss - 0.5) < 1e-12

    def test_gate_at_full_confidence(self):
        # with y.yhat = 1 the loss is 1/(1+e^4) = 0.0179862...
        expected = 1.0 / (1.0 + np.exp(4.0))
        assert abs(expected - 0.01798620996209156) < 1e-15
        gate = SigmoidGate(delta=5.0, epsilon=0.2)
        h = np.array([60.0, 0.0, 0.0])  # softmax ~ (1, 0, 0) to double precision
        loss, _, _ = criterion_eval(gate, h, np.array([1.0, 0.0, 0.0]))
        assert abs(loss - expected) < 1e-12

    def test_cross_entropy_uniform(self):
        loss, grad, hess = criterion_eval(
            CrossEntropySoftmax(), np.zeros(10), np.eye(10)[4]
        )
        assert abs(loss - np.log(10)) < 1e-12
        assert np.allclose(grad, softmax(np.zeros(10)) - np.eye(10)[4])

    @pytest.mark.parametrize("criterion", both_criteria(), ids=["xent", "gate"])
    def test_grad_hess_match_finite_differences(self, criterion):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            h = rng.standard_normal(n)
            y = np.eye(n)[rng.integers(0, n)]
            _, grad, hess = criterion_eval(criterion, h, y)

            def loss_fn(v):
                l, _, _ = criterion_eval(criterion, v, y)
                return l

            fd_g = fd_gradient(loss_fn, h, step=1e-6)
            assert np.max(np.abs(grad - fd_g)) < 1e-6

            def grad_fn_i(v, i):
                _, g, _ = criterion_eval(criterion, v, y)
                return g[i]

            for i in range(n):
                fd_h = fd_gradient(lambda v: grad_fn_i(v, i), h, step=1e-6)
                assert np.max(np.abs(hess[i] - fd_h)) < 1e-6

    def test_gate_loss_bounded_and_monotone(self):
        gate = SigmoidGate(delta=5.0, epsilon=0.2)
        rng = np.random.default_rng(2)
        prev = None
        for scale in np.linspace(-3, 3, 13):
            h = np.array([scale, 0.0, 0.0])
            loss, _, _ = criterion_eval(gate, h, np.array([1.0, 0.0, 0.0]))
            assert 0.0 < loss < 1.0
            if prev is not None:
                assert loss < prev  # decreasing as true-class prob grows
            prev = loss
        for _ in range(50):
            h = rng.standard_normal(4) * 10
            loss, _, _ = criterion_eval(gate, h, np.eye(4)[0])
            assert 0.0 < loss < 1.0

    def test_cross_entropy_hessian_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            h = rng.standard_normal(n) * 3
            _, _, hess = criterion_eval(CrossEntropySoftmax(), h, np.eye(n)[0])
            assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10

    def test_rejects_non_one_hot(self):
        with pytest.raises(ConfigError):
            criterion_eval(CrossEntropySoftmax(), np.zeros(3), np.array([0.5, 0.5, 0.0]))

    @pytest.mark.parametrize("criterion", both_criteria(), ids=["xent", "gate"])
    def test_losses_and_lazy_hessians_bitwise_equal(self, criterion):
        rng = np.random.default_rng(12)
        hk = rng.standard_normal((40, 6)) * 4
        y = np.eye(6)[rng.integers(0, 6, 40)]
        assert np.array_equal(criterion_losses(criterion, hk, y), reference_losses(criterion, hk, y))
        with pytest.raises(ConfigError):
            criterion_losses(criterion, hk, 0.5 * y)
        with pytest.raises(DimensionError):
            criterion_losses(criterion, hk, y[:, :5])

    def test_batch_pass_builds_output_hessians_once_when_read(self, monkeypatch):
        rng = np.random.default_rng(13)
        model = random_model(rng)
        x, y = random_batch(rng, model)
        built = []
        original = CrossEntropySoftmax.hessians

        def counted(self, hk, labels):
            built.append(hk)
            return original(self, hk, labels)

        monkeypatch.setattr(CrossEntropySoftmax, "hessians", counted)
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        assert built == []
        hess_out = bp.hess_out
        assert bp.hess_out is hess_out and len(built) == 1
        assert np.array_equal(hess_out, criterion_batch(CrossEntropySoftmax(), bp.trace.h[-1], y)[1]())

    def test_training_pass_computes_no_loss(self, monkeypatch):
        rng = np.random.default_rng(14)
        model = random_model(rng)
        x, y = random_batch(rng, model)
        losses = count_calls(monkeypatch, CrossEntropySoftmax, "losses")
        bp = batch_pass(model, CrossEntropySoftmax(), x, y)
        bp.hess_out
        assert losses == []

    def test_gate_validation(self):
        with pytest.raises(ConfigError):
            SigmoidGate(delta=-1.0, epsilon=0.2)
        with pytest.raises(ConfigError):
            SigmoidGate(delta=5.0, epsilon=1.5)


class TestBackprop:
    def test_last_layer_gradient_is_grad_out(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        x, _ = random_batch(rng, model)
        trace = forward(model, x)
        grad_out = rng.standard_normal(trace.h[-1].shape)
        grads = backprop(model, trace, grad_out)
        assert np.allclose(grads.grad_bias[-1], grad_out.mean(axis=0))

    def test_zero_grad_out_gives_zero(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        x, _ = random_batch(rng, model)
        trace = forward(model, x)
        grads = backprop(model, trace, np.zeros(trace.h[-1].shape))
        for gb, gw in zip(grads.grad_bias, weight_gradients(grads)):
            assert np.all(gb == 0) and np.all(gw == 0)

    def test_weight_grad_is_outer_product(self):
        # for batch size 1 the mean weight gradient is exactly g_b h^T
        rng = np.random.default_rng(6)
        model = random_model(rng)
        x, _ = random_batch(rng, model, batch=1)
        trace = forward(model, x)
        grad_out = rng.standard_normal(trace.h[-1].shape)
        grads = backprop(model, trace, grad_out)
        for t in range(model.num_layers):
            outer = np.outer(grads.bias_per_instance[t][0], trace.h[t][0])
            assert np.array_equal(weight_gradients(grads)[t], outer)

    def test_weight_gradient_built_once_on_first_read(self):
        # the factored gradient multiplies out to the mean outer product, bit
        # for bit
        rng = np.random.default_rng(9)
        model = random_model(rng)
        x, _ = random_batch(rng, model, batch=7)
        trace = forward(model, x)
        grads = backprop(model, trace, rng.standard_normal(trace.h[-1].shape))
        for t in range(model.num_layers):
            g, h = grads.bias_per_instance[t], trace.h[t]
            assert np.array_equal(weight_gradient(g, h), (g.T @ h) / trace.batch_size)

    @pytest.mark.parametrize("criterion", both_criteria(), ids=["xent", "gate"])
    def test_gradients_match_finite_differences(self, criterion):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model = random_model(rng)
            x, y = random_batch(rng, model)
            trace = forward(model, x)
            grads_out, _ = criterion_batch(criterion, trace.h[-1], y)
            grads = backprop(model, trace, grads_out)
            fd = fd_loss_gradient(model, criterion, x, y)
            assert_close_rel(flat_gradient(grads), fd, rtol=1e-6, atol=1e-9)

    def test_relu_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, activation=Activation.RELU)
        x, y = random_batch(rng, model)
        criterion = CrossEntropySoftmax()
        trace = forward(model, x)
        grads_out, _ = criterion_batch(criterion, trace.h[-1], y)
        grads = backprop(model, trace, grads_out)
        fd = fd_loss_gradient(model, criterion, x, y)
        assert_close_rel(flat_gradient(grads), fd, rtol=1e-5, atol=1e-8)


class TestModel:
    def test_xavier_bounds(self):
        model = FcnnModel.xavier([10, 5, 3], seed=0)
        for w, (n_in, n_out) in zip(model.weights, [(10, 5), (5, 3)]):
            bound = np.sqrt(6.0 / (n_in + n_out))
            assert np.max(np.abs(w)) <= bound
        for b in model.biases:
            assert np.all(b == 0)

    def test_flat_roundtrip(self):
        model = FcnnModel.xavier([4, 3, 2], seed=1)
        theta = flat_parameters(model)
        clone = FcnnModel.xavier([4, 3, 2], seed=99)
        set_flat_parameters(clone, theta)
        for w1, w2 in zip(model.weights, clone.weights):
            assert np.array_equal(w1, w2)

    def test_rejects_mismatched_layers(self):
        with pytest.raises(DimensionError):
            FcnnModel(weights=[np.ones((2, 3)), np.ones((2, 4))],
                      biases=[np.zeros(2), np.zeros(2)])
