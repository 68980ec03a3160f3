"""Mini-batch training loop for first- and second-order optimizers.

Determinism contract: given the same seed, shuffling, batch order and all
reductions are fixed, so two runs produce bit-identical reports.  The
epoch shuffles come from a splitmix64 counter-based generator keyed on
(seed, epoch) rather than a stateful global RNG.

Evaluation: mean_loss and accuracy score their rows in blocks of
EVAL_ROWS, one forward pass each, which bounds the activations an
evaluation keeps alive.  Each run's Optimizer owns at most one helper lane
(solvers.Lane, one worker thread), opened when the process may use two or
more CPUs and either a Newton step's widest bias block is at least
solvers._OVERLAP_MIN_WIDTH wide or one evaluation costs at least
EVAL_OVERLAP_MIN_MACS multiply-adds.  On the lane, a Newton step factors
its input Grams while the calling thread runs the batch pass and the
curvature, then solves every layer but the widest (see solvers).  When the
evaluation gate passes, train scores epoch e on the lane, from a copy of
the parameters, while the calling thread runs epoch e+1's steps, and the
last epoch is scored by both threads, the lane taking every other row
block.  Every lane job runs under the caller's numpy error state.  numpy
releases the interpreter lock inside BLAS and LAPACK, so the two threads
overlap, and each job makes the same calls on the same values, so the
records and the parameters are bit-identical to running inline.  Narrow
nets with cheap evaluations open no lane and start no thread.  On a Newton
run the evaluation job queues ahead of the next epoch's first Grams, so
that epoch's steps wait for it: five epochs of the paper-width EA-CG PCH-1
run (784-256-128-64-10, 1024 rows, batch 128, one BLAS thread, 2-vCPU
host) take a median 757 ms per train with the lane, each epoch after the
first about 20 ms longer than the first, against 1128 ms with no lane.
"""

from __future__ import annotations

import enum
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import solvers
from .curvature import CurvatureKind, ea_curvature
from .errors import ConfigError, TrainingDivergedError, check_range
from .fcnn import (
    BatchPass,
    Criterion,
    FcnnModel,
    LayerGradients,
    batch_pass,
    criterion_losses,
    forward,
    softmax,
    weight_gradient,
)
from .solvers import HvpMode, Lane, SolverConfig, _Done, _gram_eig, ea_cg_direction, kfi_direction

# Rows per forward pass in mean_loss and accuracy.  At paper width a whole
# 1024-row training set keeps about 8 MB of activations alive, and on the
# helper thread, which glibc gives its own heap arena, that memory adds to
# the peak instead of being reused by the steps.
EVAL_ROWS = 128

# Multiply-adds in one evaluation (rows scored times weights) from which train
# scores on the run's lane.  The overlap pays only when evaluation runs
# mostly inside BLAS, which releases the interpreter lock; below this the
# helper's interpreter work stalls the steps.  SGD train() time, threaded
# against inline (one BLAS thread, 2-vCPU host, medians of 8 alternations):
# 64-32-10 on 400 rows (0.9M) +80 %, 64-128-10 on 1280 rows (12M) +15 %,
# 64-512-10 on 400 rows (15M) +1 %, 784-16-10 on 1280 rows (16M) -7 %,
# 64-1024-10 on 400 rows (30M) -16 %, 784-256-128-64-10 on 1280 rows
# (310M) -17 %.
EVAL_OVERLAP_MIN_MACS = 2**24


# Largest run seed: the shuffle keys on the seed's low 64 bits, so seeds s
# and s + 2**64 would share a batch order but not a model.
MAX_SEED = 2**64 - 1


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
        check_range(
            "epochs", self.epochs, 1 <= self.epochs <= sys.maxsize, f"an integer in [1, {sys.maxsize}]"
        )
        check_range("seed", self.seed, 0 <= self.seed <= MAX_SEED, "an integer in [0, 2**64 - 1]")
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


def _score_rows(score, n: int, lane: Lane | None) -> list:
    """[score(rows) for rows in _row_blocks(n)]; with a lane, the lane
    scores every other block (the second, the fourth, ...) while this
    thread scores the rest.  Results and errors are taken in block order."""
    blocks = _row_blocks(n)
    theirs = {i: lane.submit(score, blocks[i]) for i in range(1, len(blocks), 2)} if lane else {}
    parts = [theirs[i] if i in theirs else _Done(score, rows) for i, rows in enumerate(blocks)]
    return [part.result() for part in parts]


def mean_loss(
    model: FcnnModel, criterion: Criterion, x: np.ndarray, y: np.ndarray, lane: Lane | None = None
) -> float:
    """The mean criterion loss over the rows of x and y (one-hot), scored
    in row blocks, shared with lane when one is given (see _score_rows)."""

    def losses(rows: slice) -> np.ndarray:
        return criterion_losses(criterion, forward(model, x[rows]).h[-1], y[rows])

    return float(np.concatenate(_score_rows(losses, x.shape[0], lane)).mean())


def accuracy(
    model: FcnnModel, x: np.ndarray, y_index: np.ndarray, lane: Lane | None = None
) -> float:
    """The share of rows of x whose predicted class is y_index's, scored as
    in mean_loss."""
    if x.shape[0] == 0:
        return 0.0

    def predict(rows: slice) -> np.ndarray:
        return np.argmax(softmax(forward(model, x[rows]).h[-1]), axis=1)

    return float(np.mean(np.concatenate(_score_rows(predict, x.shape[0], lane)) == y_index))


class Optimizer:
    """One run's optimizer: cfg's update rule, applied to the model's own
    weight and bias arrays, and the state it carries between steps: SGD's
    momentum buffers, zero at first, and none (empty lists) for Newton.

    It also owns the run's helper lane, lane: a solvers.Lane where one pays
    (solvers.open_lane) -- a Newton run whose widest bias block is at least
    solvers._OVERLAP_MIN_WIDTH wide, or a run that scores on it (train's
    evaluation gate passed) -- and None elsewhere.  A run uses it as a
    context manager, which joins the lane's thread on leaving."""

    def __init__(self, model: FcnnModel, cfg: TrainConfig, scores: bool = False):
        self.model, self.cfg = model, cfg
        spec = cfg.second_order
        sgd = spec is None
        self.velocity_w = [np.zeros_like(w) for w in model.weights] if sgd else []
        self.velocity_b = [np.zeros_like(b) for b in model.biases] if sgd else []
        wide = not sgd and max(model.widths[1:]) >= solvers._OVERLAP_MIN_WIDTH
        self.lane = solvers.open_lane(wide or scores)
        # the input factor the Newton solve factors: E[h] under EA-CG ea_one_rank
        self._one_rank = (
            not sgd
            and spec.solver is SolverChoice.EA_CG
            and spec.solver_cfg.hvp_mode is HvpMode.EA_ONE_RANK
        )

    def __enter__(self) -> "Optimizer":
        return self

    def __exit__(self, *exc) -> None:
        if self.lane is not None:
            self.lane.__exit__(*exc)

    def step(
        self, grads: LayerGradients, hbs: list[np.ndarray] | None, grams: list | None = None
    ) -> None:
        """One step on a batch's gradients grads and, for a second-order
        optimizer, its bias blocks hbs of cfg's kind (SGD takes None).  The
        second-order step passes both with spec.solver_cfg, the lane and
        grams -- the lane's Futures of the input Grams of grads.inputs, as
        run submits them, or None -- to spec.solver's solver and steps
        theta += lr * d, scaling each weight direction d by
        lr in place (the solvers return it negated).  SGD updates the
        momentum buffers v <- momentum v - lr g and steps theta += v one
        layer at a time: it forms the layer's weight gradient g by
        weight_gradient, scales it by lr in place and drops it before the
        next layer, so it holds at most one n_out x n_in array beyond the
        model and the buffers."""
        model, cfg = self.model, self.cfg
        lr = cfg.learning_rate
        spec = cfg.second_order
        if spec is None:
            for t in range(model.num_layers):
                step = weight_gradient(grads.bias_per_instance[t], grads.inputs[t])
                step *= lr
                self.velocity_w[t] *= cfg.momentum
                self.velocity_w[t] -= step
                del step
                self.velocity_b[t] *= cfg.momentum
                self.velocity_b[t] -= lr * grads.grad_bias[t]
                model.weights[t] += self.velocity_w[t]
                model.biases[t] += self.velocity_b[t]
            return
        solve = ea_cg_direction if spec.solver is SolverChoice.EA_CG else kfi_direction
        direction = solve(hbs, grads, spec.solver_cfg, self.lane, grams)
        for t in range(model.num_layers):
            direction.d_weight[t] *= lr
            model.weights[t] += direction.d_weight[t]
            model.biases[t] += lr * direction.d_bias[t]

    def run(
        self,
        criterion: Criterion,
        x: np.ndarray,
        y: np.ndarray,
        batches: Iterable[np.ndarray],
        blocks: Callable[[BatchPass], list[np.ndarray] | None] | None = None,
    ) -> None:
        """One batch_pass and one step per batch of row indices into x and
        y (one-hot), in order.  blocks(pass), called on every pass, returns
        the step's bias blocks: by default ea_curvature of cfg's kind and
        gamma, or None under SGD.  Each pass is dropped before its step, so
        what only the curvature reads is freed before the Newton solve, and
        each step's gradients and blocks before the next pass is built.  On
        a lane, a Newton step submits layer 1's input Gram as soon as the
        batch is gathered and the other layers' when the pass is built;
        each job reads the layer inputs alone, never the pass."""
        if blocks is None:
            blocks = self._blocks
        for batch in batches:
            xb = np.asarray(x[batch], dtype=float)  # forward's input as is
            grams = self._submit_grams([xb])
            bp = batch_pass(self.model, criterion, xb, y[batch])
            grams += self._submit_grams(bp.grads.inputs[1:])
            hbs = blocks(bp)
            grads = bp.grads
            del bp
            self.step(grads, hbs, grams or None)
            del grads, hbs, grams

    def _submit_grams(self, inputs: list[np.ndarray]) -> list:
        """The lane's Futures of the Newton solve's _gram_eig of each input
        batch, or none without a lane or under SGD."""
        if self.lane is None or self.cfg.second_order is None:
            return []
        return [self.lane.submit(_gram_eig, h, self._one_rank) for h in inputs]

    def _blocks(self, bp: BatchPass) -> list[np.ndarray] | None:
        spec = self.cfg.second_order
        return None if spec is None else ea_curvature(self.model, bp, spec.kind, spec.gamma)


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

    y arrays are one-hot.  One Optimizer steps the model in place, one
    Optimizer.run per epoch over epoch_batches; report.model is model.

    Each epoch is scored by mean_loss on the training set and accuracy on
    the test set.  Large evaluations of epoch e run on the run's lane
    while epoch e+1's steps run, and the last epoch's is shared between
    the lane and this thread (see the module docstring); the records are
    the same.  An epoch's wall_seconds runs from its first step until its
    loss is known, so there it overlaps the next epoch's steps.  A
    non-finite loss raises TrainingDivergedError naming its epoch, ahead
    of any error that the next epoch's steps on the diverged parameters
    raise, and an error raised on the lane is raised here.  The lane's
    thread is joined before train returns or raises.
    """
    n = x_train.shape[0]
    if y_train.shape[0] != n:
        raise ConfigError("feature/label counts differ")
    if x_test is None:
        x_test = x_train[:0]
        y_test = y_train[:0]
    y_test_idx = np.argmax(y_test, axis=1)
    spec = cfg.second_order
    optimizer = "sgd" if spec is None else f"{spec.solver.value}, curvature {spec.kind.value}"

    def score(params: FcnnModel, epoch: int, start: float, lane: Lane | None = None) -> EpochRecord:
        loss = mean_loss(params, criterion, x_train, y_train, lane)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch} (optimizer {optimizer})"
            )
        wall = time.perf_counter() - start if record_time else 0.0
        return EpochRecord(epoch, loss, accuracy(params, x_test, y_test_idx, lane), wall)

    records: list[EpochRecord] = []
    eval_macs = (n + x_test.shape[0]) * sum(w.size for w in model.weights)
    overlap = eval_macs >= EVAL_OVERLAP_MIN_MACS
    with Optimizer(model, cfg, overlap) as opt:
        lane = opt.lane if overlap else None
        pending = None  # the lane's Future of the previous epoch's record
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            try:
                batches = epoch_batches(n, cfg.batch_size, cfg.seed, epoch)
                opt.run(criterion, x_train, y_train, batches)
            finally:
                # the previous epoch's record, or its error, which replaces any
                # error these steps raised from its diverged parameters
                if pending is not None:
                    records.append(pending.result())
            if lane is not None and epoch + 1 < cfg.epochs:
                pending = lane.submit(score, model.copy(), epoch, start)
            else:
                records.append(score(model, epoch, start, lane))
    return TrainReport(epochs=records, model=model)
