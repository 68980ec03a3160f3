"""Experiment drivers: JSON experiment specs, training runs with metrics
emission, curvature-vs-true-Hessian error tables, and the covariance
bound check."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import statistics
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .curvature import (
    CurvatureKind,
    covariance_bound_check,
    ea_curvature,
    frobenius_errors,
    true_bias_hessian,
)
from .data import MAX_FLOATS, Dataset, load_csv, load_idx, synth_blobs
from .errors import ConfigError, check_range
from .fcnn import (
    Activation,
    BatchPass,
    CrossEntropySoftmax,
    Criterion,
    FcnnModel,
    SigmoidGate,
    batch_pass,
)
from .linalg import abs_eig
from .solvers import HvpMode, PiPolicy, SolverConfig
from .trainer import (
    MAX_SEED,
    Optimizer,
    SecondOrderSpec,
    SolverChoice,
    TrainConfig,
    TrainReport,
    epoch_batches,
    train,
)

DEFAULT_ARCH = [64, 32, 16, 16, 8, 8, 8, 10]  # desk-scale 8-layer default
DEFAULT_DATASET = {"kind": "blobs", "classes": 10, "dim": 64, "per_class": 40, "spread": 0.08}
_INT, _NUMBER = (int,), (int, float)
DATASET_KEYS = {  # kind -> (required keys, optional keys), each mapped to its value types
    "blobs": ({"classes": _INT, "dim": _INT, "per_class": _INT, "spread": _NUMBER},
              {"seed": _INT, "train_fraction": _NUMBER}),
    "idx": ({"images": (str,), "labels": (str,)}, {"train_fraction": _NUMBER}),
    "csv": ({"path": (str,), "label_column": _INT}, {"has_header": (bool,), "train_fraction": _NUMBER}),
}
SPEC_KEYS = ["architecture", "activation", "criterion", "train", "optimizer", "dataset",
             "compare_steps", "grid"]
TRAIN_KEYS = ["learning_rate", "momentum", "batch_size", "epochs", "seed"]
SOLVER_CFG_KEYS = {"ea_cg": ["alpha", "hvp_mode"], "kfi": ["alpha", "pi_policy"]}
GRID_PATHS = {  # grid key -> the spec section its values are written to
    **dict.fromkeys(["learning_rate", "batch_size"], ("train",)),
    "alpha": ("optimizer", "solver_cfg"),
}


@dataclass
class ExperimentSpec:
    """One experiment: architecture, criterion, data source, optimizer, and
    the (grid values, train config) of each grid point in enumeration order."""

    architecture: list[int] = field(default_factory=lambda: list(DEFAULT_ARCH))
    activation: Activation = Activation.SIGMOID
    criterion: Criterion = field(default_factory=CrossEntropySoftmax)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    dataset: dict = field(default_factory=lambda: dict(DEFAULT_DATASET))
    compare_steps: int = 10
    grid: list[tuple[dict, TrainConfig]] = field(default_factory=list)

    def __post_init__(self):
        arch = self.architecture
        if not isinstance(arch, (list, tuple)) or len(arch) < 2 or any(
            isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1 for n in arch
        ):
            raise ConfigError(
                f"architecture: expected a list of at least two positive integers, got {arch!r}"
            )
        if any(int(n_in) * int(n_out) > MAX_FLOATS for n_in, n_out in zip(arch, arch[1:])):
            raise ConfigError(
                f"architecture: expected layers of at most {MAX_FLOATS} weights each, got {arch!r}"
            )

    def load_dataset(self, seed: int) -> Dataset:
        """Load the dataset with run seed `seed` and check that the architecture fits it."""
        check_range(
            "seed", seed, 0 <= seed <= MAX_SEED, "an integer in [0, 2**64 - 1] (train.seed or --seed)"
        )
        spec = dict(self.dataset)
        kind = _choice(spec, "dataset.kind", list(DATASET_KEYS), "blobs")
        spec.pop("kind", None)
        required, optional = DATASET_KEYS[kind]
        types = required | optional
        _only(spec, "dataset", sorted(types), f"dataset kind {kind!r}")
        for key in sorted(spec.keys() | required.keys()):  # a missing key reads as None
            _typed(spec, f"dataset.{key}", None, types[key])
        fraction = spec.get("train_fraction", 0.8)
        check_range("dataset.train_fraction", fraction, 0 < fraction <= 1, "a number in (0, 1]")
        if kind == "blobs":
            spec.setdefault("seed", seed)
            ds = _in_section("dataset", synth_blobs, **spec)
        elif kind == "idx":
            ds = load_idx(spec["images"], spec["labels"], fraction)
        else:
            check_range("dataset.label_column", spec["label_column"], spec["label_column"] >= 0, ">= 0")
            ds = load_csv(**spec)
        if ds.n_train == 0:
            raise ConfigError(f"dataset.train_fraction: {fraction!r} leaves no training instance")
        widths = (ds.features.shape[1], ds.num_classes)
        if (self.architecture[0], self.architecture[-1]) != widths:
            raise ConfigError(
                f"architecture {self.architecture} does not fit the dataset: it needs "
                f"input width {widths[0]} and output width {widths[1]}"
            )
        return ds

    def build_model(self, seed: int) -> FcnnModel:
        return FcnnModel.xavier(self.architecture, self.activation, seed=seed)

    def setup(self, seed: int | None = None):
        """(run seed, model, dataset split) of a run: the seed is train.seed
        unless given, and the dataset is loaded before the model is built."""
        seed = self.train_cfg.seed if seed is None else seed
        split = self.load_dataset(seed).split()
        return seed, self.build_model(seed), split


def _typed(doc: dict, path: str, default, types: tuple):
    """doc's value for the last key of the dotted path, or default; a bool
    passes only where types names bool, and a number where they name float
    only if a float holds it: not NaN, not infinite, no int beyond float range."""
    value = doc.get(path.rsplit(".", 1)[-1], default)
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: expected {names}, got {value!r}")
    if float in types and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return value


def _choice(doc: dict, path: str, allowed, default: str | None = None):
    """Like _typed for a list of names, or an Enum class whose member is returned."""
    names = [m.value for m in allowed] if isinstance(allowed, type) else allowed
    value = doc.get(path.rsplit(".", 1)[-1], default)
    if value not in names:
        raise ConfigError(f"{path}: {value!r} not in {names}")
    return allowed(value) if isinstance(allowed, type) else value


def _only(doc: dict, path: str, allowed: list[str], where: str = "") -> None:
    """Reject the first key of the section at the dotted path not in allowed."""
    unknown = sorted(doc.keys() - set(allowed))
    if unknown:
        key = f"{path}.{unknown[0]}" if path else unknown[0]
        where = f" for {where}" if where else ""
        raise ConfigError(f"{key}: unknown key{where}; expected one of {allowed}")


def _in_section(path: str, build, **kwargs):
    """build(**kwargs), a range error naming its field re-raised under path."""
    try:
        return build(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def spec_from_json(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from its JSON-document form.

    Every key is checked against what its section reads: an unknown key or
    a malformed value raises ConfigError naming its dotted key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"spec: expected a JSON object, got {type(doc).__name__}")
    _only(doc, "", SPEC_KEYS)
    kwargs = {}
    if "architecture" in doc:
        kwargs["architecture"] = doc["architecture"]
    kwargs["activation"] = _choice(doc, "activation", Activation, "sigmoid")
    crit = _typed(doc, "criterion", {"kind": "cross_entropy"}, (dict,))
    if _choice(crit, "criterion.kind", ["cross_entropy", "sigmoid_gate"]) == "cross_entropy":
        _only(crit, "criterion", ["kind"], "criterion kind 'cross_entropy'")
        kwargs["criterion"] = CrossEntropySoftmax()
    else:
        _only(crit, "criterion", ["kind", "delta", "epsilon"])
        kwargs["criterion"] = _in_section(
            "criterion", SigmoidGate,
            delta=_typed(crit, "criterion.delta", 5.0, (int, float)),
            epsilon=_typed(crit, "criterion.epsilon", 0.2, (int, float)),
        )

    tdoc = _typed(doc, "train", {}, (dict,))
    second = None
    odoc = _typed(doc, "optimizer", {"kind": "sgd"}, (dict,))
    solver = _choice(odoc, "optimizer.kind", ["sgd", "ea_cg", "kfi"], "sgd")
    # momentum is read only by SGD's buffers; a Newton step keeps none
    train_keys = TRAIN_KEYS if solver == "sgd" else [k for k in TRAIN_KEYS if k != "momentum"]
    _only(tdoc, "train", train_keys, f"optimizer kind {solver!r}")
    if solver == "sgd":
        _only(odoc, "optimizer", ["kind"], "optimizer kind 'sgd'")
    else:
        _only(odoc, "optimizer", ["kind", "curvature", "gamma", "solver_cfg"])
        scfg = _typed(odoc, "optimizer.solver_cfg", {}, (dict,))
        accepted = SOLVER_CFG_KEYS[solver]
        if solver == "ea_cg":
            # EA-CG solves each layer directly and reads no CG setting, but the
            # benchmark's EA_CG_PCH1 spec (perfbench/workloads.py) still sets
            # max_cg and eps_cg, so both stay accepted, are range-checked as
            # before and then dropped, until that spec no longer sets them.
            accepted = accepted + ["max_cg", "eps_cg"]
            max_cg = _typed(scfg, "optimizer.solver_cfg.max_cg", 20, (int,))
            check_range("optimizer.solver_cfg.max_cg", max_cg, max_cg >= 1, ">= 1")
            eps_cg = _typed(scfg, "optimizer.solver_cfg.eps_cg", 1e-5, (int, float))
            check_range("optimizer.solver_cfg.eps_cg", eps_cg, eps_cg > 0, "> 0")
        _only(scfg, "optimizer.solver_cfg", accepted, f"optimizer kind {solver!r}")
        second = _in_section(
            "optimizer", SecondOrderSpec,
            kind=_choice(odoc, "optimizer.curvature", CurvatureKind, "pch"),
            gamma=float(_typed(odoc, "optimizer.gamma", -1.0, (int, float))),
            solver=SolverChoice(solver),
            solver_cfg=_in_section(
                "optimizer.solver_cfg", SolverConfig,
                alpha=_typed(scfg, "optimizer.solver_cfg.alpha", 0.02, (int, float)),
                hvp_mode=_choice(scfg, "optimizer.solver_cfg.hvp_mode", HvpMode, "exact_kron"),
                pi_policy=_choice(scfg, "optimizer.solver_cfg.pi_policy", PiPolicy, "unit"),
            ),
        )
    kwargs["train_cfg"] = _in_section(
        "train", TrainConfig,
        learning_rate=_typed(tdoc, "train.learning_rate", 0.1, (int, float)),
        momentum=_typed(tdoc, "train.momentum", 0.9, (int, float)),
        batch_size=_typed(tdoc, "train.batch_size", 32, (int,)),
        epochs=_typed(tdoc, "train.epochs", 10, (int,)),
        seed=_typed(tdoc, "train.seed", 0, (int,)),
        second_order=second,
    )
    for key, types in (("dataset", (dict,)), ("compare_steps", (int,))):
        if key in doc:
            kwargs[key] = _typed(doc, key, None, types)
    spec = ExperimentSpec(**kwargs)
    spec.grid = _grid_points(doc)
    return spec


def _grid_points(doc: dict) -> list[tuple[dict, TrainConfig]]:
    """The (grid values, train config) of each point of doc's grid, over the Cartesian
    product in sorted-key order.  A point is doc with one value per grid key
    written at GRID_PATHS; each value is first parsed alone, so a bad one is
    reported under its grid key."""
    grid = _typed(doc, "grid", {}, (dict,))
    if not grid:
        return []
    _only(grid, "grid", list(GRID_PATHS))
    base = {key: value for key, value in doc.items() if key != "grid"}
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{key}: expected a non-empty list, got {values!r}")
        for value in values:
            try:
                spec_from_json(_with_grid_values(base, {key: value}))
            except ConfigError as exc:
                raise ConfigError(f"grid.{key}: value {value!r} rejected ({exc})") from None
    keys = sorted(grid)
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    return [(p, spec_from_json(_with_grid_values(base, p)).train_cfg) for p in points]


def _with_grid_values(doc: dict, params: dict) -> dict:
    """A copy of doc with each grid value written at its spec path.  Only
    the sections on those paths are copied, one level each, so a deeply
    nested value elsewhere in doc is shared, not recursed into."""
    doc = dict(doc)
    for key, value in params.items():
        section = doc
        for name in GRID_PATHS[key]:
            section[name] = dict(section.get(name, {}))
            section = section[name]
        section[key] = value
    return doc


def load_spec(path: str | Path) -> ExperimentSpec:
    with open(path) as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ConfigError(f"{path}: JSON nested too deeply to parse") from None
    return spec_from_json(doc)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def metrics_jsonl(report: TrainReport) -> str:
    lines = [
        json.dumps(
            {
                "epoch": rec.epoch,
                "loss": rec.loss,
                "test_acc": rec.test_accuracy,
                "wall_s": rec.wall_seconds,
            },
            sort_keys=True,
        )
        for rec in report.epochs
    ]
    return "\n".join(lines) + "\n"


def summary_csv(report: TrainReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "loss", "test_acc", "wall_s"])
    for rec in report.epochs:
        writer.writerow([rec.epoch, repr(rec.loss), repr(rec.test_accuracy), repr(rec.wall_seconds)])
    return buf.getvalue()


def run_training(
    spec: ExperimentSpec, seed: int | None = None, record_time: bool = True
) -> TrainReport:
    """Build model + dataset from the experiment spec and train."""
    seed, model, (x_train, y_train, x_test, y_test) = spec.setup(seed)
    cfg = replace(spec.train_cfg, seed=seed)
    return train(model, spec.criterion, x_train, y_train, cfg, x_test, y_test, record_time)


def run_grid(spec: ExperimentSpec, seed: int | None = None) -> list[tuple[dict, TrainReport]]:
    """Train every grid point from the same seeded model on the same data.

    Returns (grid values, report) per point in enumeration order."""
    if not spec.grid:
        raise ConfigError("grid: the spec has no grid points")
    seed, model, (x_train, y_train, x_test, y_test) = spec.setup(seed)
    runs = []
    for params, point_cfg in spec.grid:
        cfg = replace(point_cfg, seed=seed)
        report = train(model.copy(), spec.criterion, x_train, y_train, cfg, x_test, y_test)
        runs.append((params, report))
    return runs


APPROXIMATION_COLUMNS = ["fisher", "gauss_newton", "pch1", "pch2"]


@dataclass
class CurvatureErrorTable:
    """Per-layer mean errors of each approximation against the true blocks.

    columns maps approximation name -> list of per-layer errors plus the
    joint total; a column is None when the approximation is unavailable
    (Gauss-Newton under a non-convex criterion)."""

    num_layers: int
    columns: dict[str, list[float] | None]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["layer"] + APPROXIMATION_COLUMNS)
        for row in range(self.num_layers + 1):
            name = f"layer-{row + 1}" if row < self.num_layers else "total"
            cells = [name]
            for col in APPROXIMATION_COLUMNS:
                vals = self.columns[col]
                cells.append("" if vals is None else repr(vals[row]))
            writer.writerow(cells)
        return buf.getvalue()


def compare_curvatures(spec: ExperimentSpec, seed: int | None = None) -> CurvatureErrorTable:
    """Average layer-wise approximation errors along a short training run.

    Takes compare_steps steps of the spec's optimizer, momentum included,
    from the seeded initial parameters, on the first compare_steps batches
    train visits, epoch after epoch (epoch_batches).  At each visited
    parameter vector (theta^0 .. theta^{s-1}) one batch_pass feeds the exact block-diagonal bias
    Hessian, the errors of Fisher / Gauss-Newton / PCH-1 / PCH-2 against
    it, and the step, which reuses the column of the optimizer's
    curvature kind (and gamma, under PCH); one Optimizer.run takes the
    steps as train does, and errors are averaged per layer.
    Gauss-Newton is skipped (column None) for the non-convex criterion,
    where its top block is indefinite.
    """
    steps = spec.compare_steps
    check_range(
        "compare_steps", steps, 1 <= steps <= sys.maxsize, f"an integer in [1, {sys.maxsize}]"
    )
    cfg = spec.train_cfg
    run_seed, model, (x_train, y_train, _, _) = spec.setup(seed)
    convex = isinstance(spec.criterion, CrossEntropySoftmax)

    variants = {
        "fisher": (CurvatureKind.FISHER, -1.0),
        "pch1": (CurvatureKind.PCH, -1.0),
        "pch2": (CurvatureKind.PCH, 0.0),
    }
    if convex:
        variants["gauss_newton"] = (CurvatureKind.GAUSS_NEWTON, -1.0)

    k = model.num_layers
    sums = {name: np.zeros(k + 1) for name in variants}
    schedule = itertools.chain.from_iterable(
        epoch_batches(x_train.shape[0], cfg.batch_size, run_seed, epoch)
        for epoch in itertools.count()
    )
    batches = itertools.islice(schedule, steps)
    second = cfg.second_order

    def score(bp: BatchPass) -> list[np.ndarray] | None:
        """Add bp's errors to sums; return the step's blocks."""
        # layerwise_error's targets, each block's eigendecomposition taken once
        exact = [abs_eig(e) for e in true_bias_hessian(model, bp)]
        step_hbs = None
        for name, (kind, gamma) in variants.items():
            hbs = ea_curvature(model, bp, kind, gamma)
            report = frobenius_errors(hbs, exact)
            sums[name] += np.array(report.per_layer + [report.total])
            if second is not None and kind is second.kind and (
                kind is not CurvatureKind.PCH or gamma == second.gamma
            ):
                step_hbs = hbs
        if second is not None and step_hbs is None:  # Gauss-Newton, non-convex
            step_hbs = ea_curvature(model, bp, second.kind, second.gamma)
        return step_hbs

    Optimizer(model, cfg).run(spec.criterion, x_train, y_train, batches, score)

    columns: dict[str, list[float] | None] = {
        name: (sums[name] / steps).tolist() for name in variants
    }
    if not convex:
        columns["gauss_newton"] = None
    return CurvatureErrorTable(num_layers=k, columns=columns)


@dataclass
class BoundCheckResult:
    layer: int
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-15


def run_bound_check(spec: ExperimentSpec, seed: int | None = None, batch: int = 8) -> list[BoundCheckResult]:
    """Evaluate the expectation-approximation error bound at every hidden layer."""
    check_range("architecture", spec.architecture, len(spec.architecture) > 2, "at least one hidden layer")
    _, model, (x_train, y_train, _, _) = spec.setup(seed)
    if not 2 <= batch <= x_train.shape[0]:
        raise ConfigError(
            f"--batch: expected 2 <= batch <= {x_train.shape[0]} training instances, got {batch}"
        )
    bp = batch_pass(model, spec.criterion, x_train[:batch], y_train[:batch])
    lips = model.activation.lipschitz
    results = []
    for t in range(2, model.num_layers + 1):
        lhs, rhs = covariance_bound_check(model, bp, t, lips)
        results.append(BoundCheckResult(layer=t, lhs=lhs, rhs=rhs))
    return results


def median_total_errors(
    spec: ExperimentSpec, seeds: list[int]
) -> dict[str, float]:
    """Median (over seeds) of the total error per approximation column."""
    totals: dict[str, list[float]] = {}
    for seed in seeds:
        table = compare_curvatures(spec, seed=seed)
        for name, vals in table.columns.items():
            if vals is not None:
                totals.setdefault(name, []).append(vals[-1])
    return {name: statistics.median(vals) for name, vals in totals.items()}
