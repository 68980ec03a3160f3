"""Mini-batch training loop for first- and second-order optimizers.

Determinism contract: given the same seed, shuffling, batch order and all
reductions are fixed, so two runs produce bit-identical reports.  The
epoch shuffles come from a splitmix64 counter-based generator keyed on
(seed, epoch) rather than a stateful global RNG.

Evaluation: mean_loss and accuracy score their rows in blocks of
EVAL_ROWS, one forward pass each, which bounds the activations an
evaluation keeps alive.  When one evaluation costs at least
EVAL_OVERLAP_MIN_MACS multiply-adds and the process may use two or more
CPUs, train scores epoch e on a helper thread, from a copy of the
parameters, while the calling thread runs epoch e+1's steps; the last epoch
is scored inline.  The helper is solvers._start's, which runs under the
caller's numpy error state.  numpy releases the interpreter lock inside
BLAS, so the two overlap, and the helper makes the same calls on the same
values, so the records are bit-identical to scoring inline.  Cheaper
evaluations score inline and start no thread.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import solvers
from .curvature import CurvatureKind, ea_curvature
from .errors import ConfigError, TrainingDivergedError, check_range
from .fcnn import (
    BatchPass,
    Criterion,
    FcnnModel,
    batch_pass,
    criterion_losses,
    forward,
    softmax,
    weight_gradient,
)
from .solvers import SolverConfig, _start, ea_cg_direction, kfi_direction

# Rows per forward pass in mean_loss and accuracy.  At paper width a whole
# 1024-row training set keeps about 8 MB of activations alive, and on the
# helper thread, which glibc gives its own heap arena, that memory adds to
# the peak instead of being reused by the steps.
EVAL_ROWS = 128

# Multiply-adds in one evaluation (rows scored times weights) from which train
# scores on a helper thread.  The overlap pays only when evaluation runs
# mostly inside BLAS, which releases the interpreter lock; below this the
# helper's interpreter work stalls the steps.  SGD train() time, threaded
# against inline (one BLAS thread, 2-vCPU host, medians of 8 alternations):
# 64-32-10 on 400 rows (0.9M) +80 %, 64-128-10 on 1280 rows (12M) +15 %,
# 64-512-10 on 400 rows (15M) +1 %, 784-16-10 on 1280 rows (16M) -7 %,
# 64-1024-10 on 400 rows (30M) -16 %, 784-256-128-64-10 on 1280 rows
# (310M) -17 %.
EVAL_OVERLAP_MIN_MACS = 2**24


def splitmix64(x: int) -> int:
    """One splitmix64 step; deterministic 64-bit mixing."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def shuffled_indices(n: int, seed: int, epoch: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n), keyed on (seed, epoch): swap i
    takes j = state % (i + 1) for state = splitmix64(previous state).  The
    splitmix64 step is inlined and the swaps run on a Python list, which is
    turned into an int64 array once."""
    state = splitmix64((seed & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(epoch))
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        x = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        state = x ^ (x >> 31)
        j = state % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=np.int64)


def epoch_batches(n: int, batch_size: int, seed: int, epoch: int) -> Iterator[np.ndarray]:
    """The mini-batches of one epoch over range(n), in the order train steps
    on them: shuffled_indices(n, seed, epoch) cut into runs of batch_size,
    the last one shorter when batch_size does not divide n."""
    order = shuffled_indices(n, seed, epoch)
    for lo in range(0, n, batch_size):
        yield order[lo : lo + batch_size]


class SolverChoice(enum.Enum):
    EA_CG = "ea_cg"
    KFI = "kfi"


@dataclass(frozen=True)
class SecondOrderSpec:
    kind: CurvatureKind = CurvatureKind.PCH
    gamma: float = -1.0
    solver: SolverChoice = SolverChoice.EA_CG
    solver_cfg: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        pch_ok = self.kind is not CurvatureKind.PCH or self.gamma in (-1.0, 0.0)
        check_range("gamma", self.gamma, pch_ok, "-1 or 0 for pch curvature")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    second_order: SecondOrderSpec | None = None  # None selects SGD-momentum

    def __post_init__(self):
        check_range("learning_rate", self.learning_rate, self.learning_rate >= 0, ">= 0")
        check_range("batch_size", self.batch_size, self.batch_size >= 1, ">= 1")
        check_range("epochs", self.epochs, self.epochs >= 1, ">= 1")
        check_range("momentum", self.momentum, 0.0 <= self.momentum < 1.0, "a value in [0, 1)")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    test_accuracy: float
    wall_seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord]
    model: FcnnModel

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss

    @property
    def final_accuracy(self) -> float:
        return self.epochs[-1].test_accuracy


def _row_blocks(n: int) -> list[slice]:
    """Slices of EVAL_ROWS rows covering range(n); one empty slice when n is
    0, so there is always a block to score and to join."""
    return [slice(lo, lo + EVAL_ROWS) for lo in range(0, max(n, 1), EVAL_ROWS)]


def mean_loss(model: FcnnModel, criterion: Criterion, x: np.ndarray, y: np.ndarray) -> float:
    losses = [
        criterion_losses(criterion, forward(model, x[rows]).h[-1], y[rows])
        for rows in _row_blocks(x.shape[0])
    ]
    return float(np.concatenate(losses).mean())


def accuracy(model: FcnnModel, x: np.ndarray, y_index: np.ndarray) -> float:
    if x.shape[0] == 0:
        return 0.0
    pred = [
        np.argmax(softmax(forward(model, x[rows]).h[-1]), axis=1)
        for rows in _row_blocks(x.shape[0])
    ]
    return float(np.mean(np.concatenate(pred) == y_index))


Velocity = tuple[list[np.ndarray], list[np.ndarray]]


def zero_velocity(model: FcnnModel) -> Velocity:
    """SGD momentum buffers (weights, biases) at rest."""
    return [np.zeros_like(w) for w in model.weights], [np.zeros_like(b) for b in model.biases]


def optimizer_step(
    model: FcnnModel,
    bp: BatchPass,
    cfg: TrainConfig,
    velocity: Velocity | None,
    hbs: list[np.ndarray] | None = None,
) -> None:
    """One optimizer step on the batch of bp, written into the model's own
    weight and bias arrays and, for SGD, into velocity's arrays; only SGD
    reads velocity, which second-order optimizers take as None.

    Second-order optimizers build the batch's curvature, unless the caller
    passes the bias blocks of cfg's curvature kind for bp as hbs, pass
    them with spec.solver_cfg to spec.solver's solver, and step
    theta += lr * d, scaling each weight direction d by lr in place
    (directions come negated from the solvers).  SGD updates the momentum
    buffers v <- momentum v - lr g and steps theta += v, one layer at a
    time: it forms the layer's weight gradient g by weight_gradient, scales
    it by lr in place and drops it before the next layer, so the step
    holds at most one n_out x n_in array beyond the model and the
    buffers.  Arrays that alias the model's parameters see the step.
    """
    lr = cfg.learning_rate
    spec = cfg.second_order
    if spec is None:
        velocity_w, velocity_b = velocity
        grads = bp.grads
        for t in range(model.num_layers):
            step = weight_gradient(grads.bias_per_instance[t], grads.inputs[t])
            step *= lr
            velocity_w[t] *= cfg.momentum
            velocity_w[t] -= step
            del step
            velocity_b[t] *= cfg.momentum
            velocity_b[t] -= lr * grads.grad_bias[t]
            model.weights[t] += velocity_w[t]
            model.biases[t] += velocity_b[t]
        return
    if hbs is None:
        hbs = ea_curvature(model, bp, spec.kind, spec.gamma)
    solve = ea_cg_direction if spec.solver is SolverChoice.EA_CG else kfi_direction
    direction = solve(hbs, bp.grads, spec.solver_cfg)
    for t in range(model.num_layers):
        direction.d_weight[t] *= lr
        model.weights[t] += direction.d_weight[t]
        model.biases[t] += lr * direction.d_bias[t]


def train(
    model: FcnnModel,
    criterion: Criterion,
    x_train: np.ndarray,
    y_train: np.ndarray,
    cfg: TrainConfig,
    x_test: np.ndarray | None = None,
    y_test: np.ndarray | None = None,
    record_time: bool = True,
) -> TrainReport:
    """Train in place and return per-epoch metrics.

    y arrays are one-hot.  Every mini-batch runs one batch_pass and one
    optimizer_step, which updates the model's own weight and bias arrays
    and, for SGD, the momentum buffers in place; report.model is model.
    The pass goes straight into the step, so it is freed before the next
    batch's pass is built and before an epoch is scored.

    Each epoch is scored by mean_loss on the training set and accuracy on
    the test set.  Large evaluations of epoch e run on a helper thread
    while epoch e+1's steps run (see the module docstring); the records are
    the same.  An epoch's wall_seconds runs from its first step until its
    loss is known, so there it overlaps the next epoch's steps.  A
    non-finite loss raises TrainingDivergedError naming its epoch, ahead
    of any error that the next epoch's steps on the diverged parameters
    raise, and an error raised on the helper is raised here.
    """
    n = x_train.shape[0]
    if y_train.shape[0] != n:
        raise ConfigError("feature/label counts differ")
    if x_test is None:
        x_test = x_train[:0]
        y_test = y_train[:0]
    y_test_idx = np.argmax(y_test, axis=1) if y_test.shape[0] else np.empty(0, int)
    spec = cfg.second_order
    optimizer = "sgd" if spec is None else f"{spec.solver.value}, curvature {spec.kind.value}"

    def score(params: FcnnModel, epoch: int, start: float) -> EpochRecord:
        loss = mean_loss(params, criterion, x_train, y_train)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch} (optimizer {optimizer})"
            )
        wall = time.perf_counter() - start if record_time else 0.0
        return EpochRecord(epoch, loss, accuracy(params, x_test, y_test_idx), wall)

    velocity = zero_velocity(model) if spec is None else None
    records: list[EpochRecord] = []
    eval_macs = (n + x_test.shape[0]) * sum(w.size for w in model.weights)
    # the CPU count is looked up in solvers, whose gate reads the same one
    overlap = eval_macs >= EVAL_OVERLAP_MIN_MACS and solvers._usable_cpus() >= 2
    pending = None  # joins the helper scoring the previous epoch
    for epoch in range(cfg.epochs):
        start = time.perf_counter()
        try:
            for batch in epoch_batches(n, cfg.batch_size, cfg.seed, epoch):
                # no name holds the pass, so it is freed before the next is built
                optimizer_step(
                    model,
                    batch_pass(model, criterion, x_train[batch], y_train[batch]),
                    cfg,
                    velocity,
                )
        finally:
            # the previous epoch's record, or its error, which replaces any
            # error these steps raised from its diverged parameters
            if pending is not None:
                records.append(pending())
        if overlap and epoch + 1 < cfg.epochs:
            pending = _start(score, model.copy(), epoch, start)
        else:
            records.append(score(model, epoch, start))
    return TrainReport(epochs=records, model=model)
