"""Shared test utilities: finite-difference oracles and random model setup."""

import sys

import numpy as np

from blocknewton.fcnn import (
    Activation,
    CrossEntropySoftmax,
    FcnnModel,
    SigmoidGate,
    criterion_batch,
    forward,
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


def batch_loss(model, criterion, x, y):
    trace = forward(model, x)
    losses, _, _ = criterion_batch(criterion, trace.h[-1], y)
    return float(losses.mean())


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
    theta0 = base.flat_parameters()

    def f(theta):
        base.set_flat_parameters(theta)
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


def forbid_shape(shape):
    """An ndarray subclass whose ufunc results (matmul, elementwise arithmetic,
    reductions) and numpy.linalg results raise AssertionError when their last
    two dimensions are `shape`.  Results are of the subclass too, so the check
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
            if np.shape(arr)[-2:] == tuple(shape):
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
