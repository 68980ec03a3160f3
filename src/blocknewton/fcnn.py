"""Fully-connected networks with tracked activation derivatives.

A model with k layers applies sigma(W h + b) for layers 1..k-1 and leaves
layer k affine.  The forward pass records, per instance, only the
activations h^t.  The elementwise first and second derivatives of sigma at
the pre-activations are functions of h^t alone (sigma' = h(1-h) and
sigma'' = sigma'(1-2h) for the sigmoid), so the trace derives them from h
the first time backprop or a curvature recursion reads them; evaluation
never computes them.  Batches are stored row-wise: arrays of shape
(batch, n_t).
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionError, check_range


class Activation(enum.Enum):
    SIGMOID = "sigmoid"
    RELU = "relu"

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of the activation (sup of |sigma'|)."""
        return 0.25 if self is Activation.SIGMOID else 1.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow or branches: with e = exp(-|z|),
    1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere.  -|z| is taken as
    min(z, -z), which keeps the sign bit of a NaN input."""
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _activate(kind: Activation, z: np.ndarray) -> np.ndarray:
    """sigma(z); ReLU writes it into z."""
    if kind is Activation.SIGMOID:
        return _sigmoid(z)
    return np.maximum(z, 0.0, out=z)


def _first_derivative(kind: Activation, h: np.ndarray) -> np.ndarray:
    """sigma' at the pre-activation whose activation is h = sigma(z)."""
    if kind is Activation.SIGMOID:
        return h * (1.0 - h)
    return (h > 0).astype(float)


def _second_derivative(kind: Activation, h: np.ndarray, hprime: np.ndarray) -> np.ndarray:
    """sigma'' at the pre-activation of h, given hprime = sigma' there."""
    if kind is Activation.SIGMOID:
        return hprime * (1.0 - 2.0 * h)
    return np.zeros_like(h)


@dataclass
class FcnnModel:
    """Layer weights/biases plus the hidden-layer activation choice."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: Activation = Activation.SIGMOID

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise DimensionError("need one bias per weight matrix")
        for t, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise DimensionError(f"layer {t}: bias/weight shapes disagree")
            if t > 1 and w.shape[1] != self.weights[t - 2].shape[0]:
                raise DimensionError(f"layer {t}: input width does not chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ConfigError(f"layer {t}: non-finite parameters")

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def widths(self) -> list[int]:
        """[n_0, n_1, ..., n_k]."""
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self) -> "FcnnModel":
        """A copy with its own arrays.  It skips the constructor's checks:
        self passed them when built, and the non-finite parameters a
        diverging epoch leaves are copied as they are."""
        twin = copy.copy(self)
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        return twin

    @classmethod
    def xavier(
        cls,
        widths: list[int],
        activation: Activation = Activation.SIGMOID,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> "FcnnModel":
        """Uniform(-a, a) init with a = sqrt(6 / (n_in + n_out)), zero biases."""
        if len(widths) < 2 or any(n < 1 for n in widths):
            raise ConfigError(f"bad layer widths {widths}")
        if rng is None:
            rng = np.random.default_rng(seed)
        weights, biases = [], []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
            biases.append(np.zeros(n_out))
        return cls(weights=weights, biases=biases, activation=activation)

@dataclass
class ForwardTrace:
    """Per-layer batch activations, and the activation derivatives derived
    from them.

    h[t] has shape (batch, n_t) for t = 0..k; activation is the sigma that
    produced h[1..k-1].  hprime[t]/hdprime[t] hold sigma'/sigma'' at layer
    t's pre-activation for t = 1..k-1 and None at index 0 and k (input and
    affine output carry no activation).  Each list is computed from h on
    first access and kept, so a trace that is only evaluated computes
    neither, and one that is only backpropagated computes no sigma''.
    """

    h: list[np.ndarray]
    activation: Activation

    @property
    def batch_size(self) -> int:
        return self.h[0].shape[0]

    @cached_property
    def hprime(self) -> list[np.ndarray | None]:
        hidden = [_first_derivative(self.activation, h) for h in self.h[1:-1]]
        return [None, *hidden, None]

    @cached_property
    def hdprime(self) -> list[np.ndarray | None]:
        hidden = [
            _second_derivative(self.activation, h, hp)
            for h, hp in zip(self.h[1:-1], self.hprime[1:-1])
        ]
        return [None, *hidden, None]


def forward(model: FcnnModel, inputs: np.ndarray) -> ForwardTrace:
    """Run the batch through the network, recording the activations h."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if x.shape[1] != model.widths[0]:
        raise DimensionError(
            f"input dim {x.shape[1]} != model input width {model.widths[0]}"
        )
    h: list[np.ndarray] = [x]
    k = model.num_layers
    for t in range(1, k + 1):
        z = h[-1] @ model.weights[t - 1].T
        z += model.biases[t - 1]
        h.append(_activate(model.activation, z) if t < k else z)
    return ForwardTrace(h=h, activation=model.activation)


# --- criterion functions -------------------------------------------------


def softmax(h: np.ndarray) -> np.ndarray:
    z = h - np.max(h, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass(frozen=True)
class CrossEntropySoftmax:
    """Convex criterion: -log softmax(h)[label]."""

    def losses(self, hk: np.ndarray, y: np.ndarray) -> np.ndarray:
        logits = hk - np.max(hk, axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(logits), axis=1))
        return logz - np.sum(logits * y, axis=1)

    def gradients(self, hk: np.ndarray, y: np.ndarray) -> np.ndarray:
        return softmax(hk) - y

    def hessians(self, hk: np.ndarray, y: np.ndarray) -> np.ndarray:
        yhat = softmax(hk)
        hesses = -yhat[:, :, None] * yhat[:, None, :]
        idx = np.arange(hk.shape[1])
        hesses[:, idx, idx] += yhat
        return hesses


@dataclass(frozen=True)
class SigmoidGate:
    """Non-convex bounded criterion 1 / (1 + exp(delta * (y.yhat - epsilon)))."""

    delta: float = 5.0
    epsilon: float = 0.2

    def __post_init__(self):
        # hessians squares delta, and a Python float square overflows from 2**512
        check_range("delta", self.delta, 0 < self.delta < 2.0**512, "a value in (0, 2**512)")
        check_range("epsilon", self.epsilon, 0.0 <= self.epsilon <= 1.0, "a value in [0, 1]")

    def _gate(self, hk: np.ndarray, y: np.ndarray):
        """softmax(hk), its true-class probability s, the losses and their
        derivative in s."""
        yhat = softmax(hk)
        s = np.sum(yhat * y, axis=1)
        loss = _sigmoid(-self.delta * (s - self.epsilon))
        return yhat, s, loss, -self.delta * loss * (1.0 - loss)

    def losses(self, hk: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._gate(hk, y)[2]

    def gradients(self, hk: np.ndarray, y: np.ndarray) -> np.ndarray:
        # s = yhat_c; grad_h s = s * (e_c - yhat)
        yhat, s, _, dl = self._gate(hk, y)
        return dl[:, None] * (s[:, None] * (y - yhat))

    def hessians(self, hk: np.ndarray, y: np.ndarray) -> np.ndarray:
        yhat, s, loss, dl = self._gate(hk, y)
        d2l = self.delta**2 * loss * (1.0 - loss) * (1.0 - 2.0 * loss)
        # the softmax Hessian of the true-class probability closes the chain
        # rule: hess_s = s * ((e_c - yhat)(e_c - yhat)^T - diag(yhat) + yhat yhat^T)
        e_minus = y - yhat
        grad_s = s[:, None] * e_minus
        outer = e_minus[:, :, None] * e_minus[:, None, :]
        yyt = yhat[:, :, None] * yhat[:, None, :]
        hess_s = outer + yyt
        idx = np.arange(hk.shape[1])
        hess_s[:, idx, idx] -= yhat
        hess_s *= s[:, None, None]
        return (
            d2l[:, None, None] * grad_s[:, :, None] * grad_s[:, None, :]
            + dl[:, None, None] * hess_s
        )


Criterion = CrossEntropySoftmax | SigmoidGate


def _criterion_rows(hk: np.ndarray, y: np.ndarray):
    hk = np.asarray(hk, dtype=float)
    y = np.asarray(y, dtype=float)
    if hk.shape != y.shape or hk.ndim != 2:
        raise DimensionError("criterion expects matching (batch, n_k) arrays")
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(np.sum(y, axis=-1) == 1.0)):
        raise ConfigError("labels must be one-hot vectors")
    return hk, y


def criterion_losses(criterion: Criterion, hk: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The per-row losses of a batch, which only evaluation reads."""
    return criterion.losses(*_criterion_rows(hk, y))


def criterion_batch(criterion: Criterion, hk: np.ndarray, y: np.ndarray):
    """The per-row output gradients of a training batch, no losses, and a
    function of no arguments that builds the per-row output Hessians."""
    hk, y = _criterion_rows(hk, y)
    return criterion.gradients(hk, y), partial(criterion.hessians, hk, y)


# --- gradients ------------------------------------------------------------


def weight_gradient(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The batch-mean weight gradient G^T h / batch of one layer, from its
    (batch, n_out) per-instance bias gradients G and (batch, n_in) inputs h,
    divided in place, so the product is the one n_out x n_in array formed."""
    x = g.T @ h
    x /= h.shape[0]
    return x


@dataclass
class LayerGradients:
    """Batch-mean gradients per layer, the weight gradients kept factored.

    bias_per_instance[t-1] is the (batch, n_t) matrix G^t of per-instance
    bias gradients, the factor the curvature module (Fisher blocks) and the
    solvers consume, and inputs[t-1] the layer's input batch h^{t-1}, a
    view of the forward trace: the other factor of the weight gradient and
    the batch whose Gram matrix E[h h^T] is the Kronecker factor of the
    layer's weight block in the solvers.
    grad_bias[t-1] is the mean of G^t over instances.  The mean gradient
    w.r.t. W^t is weight_gradient(G^t, h^{t-1}), which SGD forms one layer
    at a time; the Newton solvers keep it factored.  grad_h[t] =
    (W^{t+1})^T g^{t+1}, per instance, is the gradient w.r.t. h^t for
    0 < t < k (None at 0), which the curvature recursion's diagonal term
    reuses.
    """

    grad_bias: list[np.ndarray]
    bias_per_instance: list[np.ndarray] = field(repr=False)
    inputs: list[np.ndarray] = field(repr=False)
    grad_h: list[np.ndarray | None] = field(repr=False, default_factory=list)


def backprop_bias_gradients(
    model: FcnnModel, trace: ForwardTrace, grad_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """Per-instance bias gradients for every layer, output layer first equals
    grad_out; lower layers follow g^{t-1} = h'^{t-1} o (W^t)^T g^t.  Returns
    them with the products (W^t)^T g^t, indexed like LayerGradients.grad_h."""
    k = model.num_layers
    grad_out = np.atleast_2d(np.asarray(grad_out, dtype=float))
    if grad_out.shape != trace.h[k].shape:
        raise DimensionError("grad_out shape does not match trace output")
    per_layer = [None] * k
    grad_h = [None] * k
    g = grad_out
    per_layer[k - 1] = g
    for t in range(k, 1, -1):
        grad_h[t - 1] = g @ model.weights[t - 1]
        g = grad_h[t - 1] * trace.hprime[t - 1]
        per_layer[t - 2] = g
    return per_layer, grad_h


def backprop(
    model: FcnnModel, trace: ForwardTrace, grad_out: np.ndarray
) -> LayerGradients:
    """Batch-averaged gradients for all weights and biases.

    The weight gradient is the exact outer-product form
    grad_W^t = grad_b^t h^{(t-1)T}, averaged over the batch; it is kept
    as its two factors, which weight_gradient multiplies out.
    """
    gb_inst, grad_h = backprop_bias_gradients(model, trace, grad_out)
    return LayerGradients(
        grad_bias=[g.mean(axis=0) for g in gb_inst],
        bias_per_instance=gb_inst,
        inputs=trace.h[: model.num_layers],
        grad_h=grad_h,
    )


@dataclass
class BatchPass:
    """Everything one training batch yields for the optimizer step and the
    curvature blocks, and no losses, which no step reads: the forward trace
    and the gradients with their per-instance bias gradients
    (grads.bias_per_instance[-1] is the criterion gradient at the output).
    hess_out, the per-instance output Hessians, is built by build_hess_out
    on first read and kept, since the exact bias Hessian and the PCH and
    Gauss-Newton curvature of one pass all start from it; SGD and Fisher
    never read it."""

    trace: ForwardTrace
    grads: LayerGradients
    build_hess_out: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def hess_out(self) -> np.ndarray:
        return self.build_hess_out()


def batch_pass(
    model: FcnnModel, criterion: Criterion, inputs: np.ndarray, y: np.ndarray
) -> BatchPass:
    """Forward, criterion and backprop on one batch, each run once."""
    trace = forward(model, inputs)
    grads_out, hess_out = criterion_batch(criterion, trace.h[-1], y)
    return BatchPass(trace, backprop(model, trace, grads_out), hess_out)
