"""Shared test utilities: finite-difference oracles, the dense and
flattened views the oracles compare against, random model setup, and the
test-only helpers of the acceptance criteria."""

import statistics
import sys
import threading

import numpy as np

from blocknewton import fcnn
from blocknewton.errors import DimensionError, check_range
from blocknewton.experiments import ExperimentSpec, compare_curvatures
from blocknewton.fcnn import (
    Activation,
    CrossEntropySoftmax,
    FcnnModel,
    SigmoidGate,
    criterion_batch,
    criterion_losses,
    forward,
    weight_gradient,
)


def random_model(rng, max_width=8, max_layers=4, activation=Activation.SIGMOID):
    k = int(rng.integers(2, max_layers + 1))
    widths = [int(rng.integers(2, max_width + 1)) for _ in range(k + 1)]
    return FcnnModel.xavier(widths, activation, rng=rng)


def random_batch(rng, model, batch=4):
    n0 = model.widths[0]
    nk = model.widths[-1]
    x = rng.uniform(0.0, 1.0, size=(batch, n0))
    labels = rng.integers(0, nk, size=batch)
    y = np.zeros((batch, nk))
    y[np.arange(batch), labels] = 1.0
    return x, y


def both_criteria():
    return [CrossEntropySoftmax(), SigmoidGate(delta=5.0, epsilon=0.2)]


def activation_values(kind, z):
    """Return (sigma(z), sigma'(z), sigma''(z)) elementwise, the derivatives
    computed from sigma(z) as a ForwardTrace computes them.

    ReLU has no curvature away from the kink, so its second derivative is
    taken as zero everywhere.
    """
    h = fcnn._activate(kind, np.array(z, dtype=float))
    hp = fcnn._first_derivative(kind, h)
    return h, hp, fcnn._second_derivative(kind, h, hp)


def criterion_eval(criterion, hk, y):
    """Loss, gradient and Hessian of the criterion w.r.t. a single output h^k."""
    hk = np.asarray(hk, dtype=float)
    y = np.asarray(y, dtype=float)
    if hk.shape != y.shape or hk.ndim != 1:
        raise DimensionError("criterion_eval expects matching 1-d output/label")
    hk, y = hk[None, :], y[None, :]
    grads, hesses = criterion_batch(criterion, hk, y)
    return float(criterion_losses(criterion, hk, y)[0]), grads[0], hesses()[0]


def reference_losses(criterion, hk, y):
    """Per-row losses by the defining expressions: the log-sum-exp of the
    shifted logits minus the true-class logit for cross-entropy, and
    sigmoid(-delta (softmax(hk) . y - epsilon)) for the sigmoid gate."""
    if isinstance(criterion, CrossEntropySoftmax):
        logits = hk - np.max(hk, axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(logits), axis=1))
        return logz - np.sum(logits * y, axis=1)
    s = np.sum(fcnn.softmax(hk) * y, axis=1)
    return fcnn._sigmoid(-criterion.delta * (s - criterion.epsilon))


def weight_gradients(grads):
    """Every layer's mean weight gradient G^T h / batch, multiplied out."""
    return [weight_gradient(g, h) for g, h in zip(grads.bias_per_instance, grads.inputs)]


def flat(weights, biases):
    """Column-major vec of every W followed by its b, layer by layer."""
    parts = []
    for w, b in zip(weights, biases):
        parts.append(w.reshape(-1, order="F"))
        parts.append(b)
    return np.concatenate(parts)


def flat_parameters(model):
    return flat(model.weights, model.biases)


def flat_gradient(grads):
    return flat(weight_gradients(grads), grads.grad_bias)


def flat_direction(d):
    return flat(d.d_weight, d.d_bias)


def set_flat_parameters(model, theta):
    """Write a flat_parameters vector back into the model's layers."""
    pos = 0
    for t in range(model.num_layers):
        w = model.weights[t]
        n = w.size
        model.weights[t] = theta[pos : pos + n].reshape(w.shape, order="F").copy()
        pos += n
        m = model.biases[t].size
        model.biases[t] = theta[pos : pos + m].copy()
        pos += m
    if pos != theta.size:
        raise DimensionError("flat parameter vector has wrong length")


def batch_loss(model, criterion, x, y):
    trace = forward(model, x)
    return float(criterion_losses(criterion, trace.h[-1], y).mean())


def fd_gradient(f, theta, step=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += step
        tm[i] -= step
        g[i] = (f(tp) - f(tm)) / (2.0 * step)
    return g


def fd_loss_gradient(model, criterion, x, y, step=1e-5):
    """Finite-difference gradient of the batch-mean loss over all parameters."""
    base = model.copy()
    theta0 = flat_parameters(base)

    def f(theta):
        set_flat_parameters(base, theta)
        return batch_loss(base, criterion, x, y)

    return fd_gradient(f, theta0, step)


def assert_close_rel(actual, expected, rtol, atol=1e-9):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    denom = np.maximum(np.abs(expected), atol / rtol)
    assert np.all(np.abs(actual - expected) <= rtol * denom + atol), (
        f"max abs err {np.max(np.abs(actual - expected))}, "
        f"max rel err {np.max(np.abs(actual - expected) / denom)}"
    )


def gram(h):
    """E[h h^T] = h^T h / rows(h), the Kronecker factor the solvers keep factored."""
    return h.T @ h / h.shape[0]


def weight_hvp(f, hb, alpha, x):
    """(1-alpha) (hb kron F^T F / r) + alpha I applied to the n_out x n_in
    matrix x, as (1-alpha) hb (x F^T) F / r + alpha x, for the r x n_in
    factor F: EA-CG's damped weight system, never forming F^T F."""
    return (1 - alpha) * ((hb @ (x @ f.T)) @ f) / f.shape[0] + alpha * x


def forbid_shape(*shapes):
    """An ndarray subclass whose ufunc results (matmul, elementwise arithmetic,
    reductions) and numpy.linalg results raise AssertionError when their last
    two dimensions are one of `shapes`.  Results are of the subclass too, so the check
    follows every array computed from data viewed as it: a.view(forbid_shape(s)).
    """

    class Guard(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            def plain(args):
                return tuple(a.view(np.ndarray) if isinstance(a, Guard) else a for a in args)

            if "out" in kwargs:
                kwargs["out"] = plain(kwargs["out"])
            result = getattr(ufunc, method)(*plain(inputs), **kwargs)
            if isinstance(result, tuple):
                return tuple(self.__array_wrap__(r) for r in result)
            return self.__array_wrap__(result)

        def __array_wrap__(self, arr, context=None, return_scalar=False):
            if np.shape(arr)[-2:] in [tuple(shape) for shape in shapes]:
                raise AssertionError(f"formed a {np.shape(arr)} array")
            if return_scalar:
                return arr[()]
            return arr.view(Guard) if isinstance(arr, np.ndarray) else arr

    return Guard


def count_calls(monkeypatch, module, name):
    """Record every call of module.name, wrapped there and at each blocknewton
    module that imported the same function; returns the list of records
    (args, kwargs, result), one per call, in call order."""
    original = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, recorded)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "blocknewton" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, recorded)
    return calls


def hold_lane(lane):
    """Hold lane's thread on a job until the returned Event is set; returns
    once the lane has started that job."""
    started, release = threading.Event(), threading.Event()
    lane.submit(lambda: started.set() or release.wait(30))
    assert started.wait(30)
    return release


def sherman_morrison_apply(eh: np.ndarray, damp: float, v: np.ndarray) -> np.ndarray:
    """(eh eh^T + damp I)^{-1} v in O(n) via the rank-one update formula."""
    check_range("damp", damp, damp > 0, "> 0")
    eh = np.asarray(eh, dtype=float)
    v = np.asarray(v, dtype=float)
    coeff = (eh @ v) / (damp * (damp + eh @ eh))
    return v / damp - coeff * eh


def median_total_errors(spec: ExperimentSpec, seeds: list[int]) -> dict[str, float]:
    """Median (over seeds) of the total error per approximation column."""
    totals: dict[str, list[float]] = {}
    for seed in seeds:
        table = compare_curvatures(spec, seed=seed)
        for name, vals in table.columns.items():
            if vals is not None:
                totals.setdefault(name, []).append(vals[-1])
    return {name: statistics.median(vals) for name, vals in totals.items()}
