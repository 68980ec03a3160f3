"""Experiment drivers: JSON experiment specs, training runs with metrics
emission, curvature-vs-true-Hessian error tables, and the covariance
bound check."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .curvature import (
    CurvatureKind,
    covariance_bound_check,
    ea_curvatures,
    exact_bias_hessian_instances,
    frobenius_errors,
    true_bias_hessian,
)
from .data import MAX_FLOATS, TRAIN_FRACTION, Dataset, load_csv, load_idx, synth_blobs
from .errors import ConfigError, check_range, unknown_key
from .fcnn import (
    Activation,
    BatchPass,
    CrossEntropySoftmax,
    Criterion,
    FcnnModel,
    SigmoidGate,
    batch_pass,
)
from .linalg import clip_eigenvalues, sym_eigs
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
# Each section's keys mapped to their value types (read with _typed), their
# Enum (read with _choice) or None (read by the caller).
_INT, _NUMBER, _DICT = (int,), (int, float), (dict,)
DATASET_KEYS = {  # kind -> (required keys, optional keys)
    "blobs": ({"classes": _INT, "dim": _INT, "per_class": _INT, "spread": _NUMBER},
              {"seed": _INT, "train_fraction": _NUMBER}),
    "idx": ({"images": (str,), "labels": (str,)}, {"train_fraction": _NUMBER}),
    "csv": ({"path": (str,), "label_column": _INT}, {"has_header": (bool,), "train_fraction": _NUMBER}),
}
SPEC_KEYS = {"architecture": None, "activation": Activation, "criterion": _DICT, "train": _DICT,
             "optimizer": _DICT, "dataset": _DICT, "compare_steps": _INT, "grid": _DICT}
GATE_KEYS = {"kind": None, "delta": _NUMBER, "epsilon": _NUMBER}
TRAIN_KEYS = {"learning_rate": _NUMBER, "momentum": _NUMBER, "batch_size": _INT, "epochs": _INT, "seed": _INT}
OPTIMIZER_KEYS = {"kind": None, "curvature": CurvatureKind, "gamma": _NUMBER, "solver_cfg": _DICT}
SOLVER_CFG_KEYS = {  # optimizer kind -> its solver_cfg keys
    "ea_cg": {"alpha": _NUMBER, "hvp_mode": HvpMode, "max_cg": _INT, "eps_cg": _NUMBER},
    "kfi": {"alpha": _NUMBER, "pi_policy": PiPolicy},
}
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
            _typed(spec, f"dataset.{key}", types[key])
        fraction = spec.get("train_fraction", TRAIN_FRACTION)
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


def _typed(doc: dict, path: str, types: tuple):
    """doc's value for the last key of the dotted path, None if doc has
    none; a bool passes only where types names bool, and a number where
    they name float only if a float holds it: not NaN, not infinite, no int
    beyond float range."""
    value = doc.get(path.rsplit(".", 1)[-1])
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
        raise unknown_key(f"{path}.{unknown[0]}" if path else unknown[0], allowed, where)


def _read(doc: dict, path: str, table: dict, where: str = "") -> dict:
    """The values doc sets in the section at the dotted path, each read as
    its entry of table says; a key doc omits is left out, so it keeps the
    default of the dataclass the values build, and a key not in table is
    rejected.  An entry None accepts its key and leaves it to the caller."""
    _only(doc, path, list(table), where)
    prefix = f"{path}." if path else ""
    return {
        key: (_choice if isinstance(kinds, type) else _typed)(doc, prefix + key, kinds)
        for key, kinds in table.items()
        if kinds is not None and key in doc
    }


def _in_section(path: str, build, **kwargs):
    """build(**kwargs), a range error naming its field re-raised under path."""
    try:
        return build(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def spec_from_json(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from its JSON-document form.

    Every key is checked against what its section reads: an unknown key or
    a malformed value raises ConfigError naming its dotted key.  A key the
    document omits takes the default of the dataclass it fills:
    ExperimentSpec, SigmoidGate, TrainConfig, SecondOrderSpec or SolverConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"spec: expected a JSON object, got {type(doc).__name__}")
    kwargs = _read(doc, "", SPEC_KEYS)
    if "architecture" in doc:
        kwargs["architecture"] = doc["architecture"]
    crit = kwargs.get("criterion")
    if crit is not None:
        if _choice(crit, "criterion.kind", ["cross_entropy", "sigmoid_gate"]) == "cross_entropy":
            _only(crit, "criterion", ["kind"], "criterion kind 'cross_entropy'")
            kwargs["criterion"] = CrossEntropySoftmax()
        else:
            kwargs["criterion"] = _in_section("criterion", SigmoidGate, **_read(crit, "criterion", GATE_KEYS))

    odoc = kwargs.pop("optimizer", {})
    solver = _choice(odoc, "optimizer.kind", ["sgd", "ea_cg", "kfi"], "sgd")
    where, second = f"optimizer kind {solver!r}", None
    if solver == "sgd":
        _only(odoc, "optimizer", ["kind"], where)
    else:
        opt = _read(odoc, "optimizer", OPTIMIZER_KEYS)
        # gamma is read only by PCH's eigenvalue clipping
        curvature = opt.get("curvature", CurvatureKind.PCH)
        if curvature is not CurvatureKind.PCH:
            keys = [key for key in OPTIMIZER_KEYS if key != "gamma"]
            _only(odoc, "optimizer", keys, f"curvature {curvature.value!r}")
        scfg = _read(opt.pop("solver_cfg", {}), "optimizer.solver_cfg", SOLVER_CFG_KEYS[solver], where)
        # EA-CG solves each layer directly and reads no CG setting, but the
        # benchmark's EA_CG_PCH1 spec (perfbench/workloads.py) still sets
        # max_cg and eps_cg, so both stay accepted, are range-checked when
        # set and then dropped, until that spec no longer sets them.
        max_cg, eps_cg = scfg.pop("max_cg", 1), scfg.pop("eps_cg", 1)
        check_range("optimizer.solver_cfg.max_cg", max_cg, max_cg >= 1, ">= 1")
        check_range("optimizer.solver_cfg.eps_cg", eps_cg, eps_cg > 0, "> 0")
        if "curvature" in opt:  # SecondOrderSpec names the curvature kind
            opt["kind"] = opt.pop("curvature")
        second = _in_section(
            "optimizer", SecondOrderSpec, **opt, solver=SolverChoice(solver),
            solver_cfg=_in_section("optimizer.solver_cfg", SolverConfig, **scfg),
        )
    # momentum is read only by SGD's buffers; a Newton step keeps none
    train_keys = {k: v for k, v in TRAIN_KEYS.items() if solver == "sgd" or k != "momentum"}
    tcfg = _read(kwargs.pop("train", {}), "train", train_keys, where)
    kwargs["train_cfg"] = _in_section("train", TrainConfig, **tcfg, second_order=second)
    grid = kwargs.pop("grid", {})
    spec = ExperimentSpec(**kwargs)
    spec.grid = _grid_points(doc, grid)
    return spec


def _grid_points(doc: dict, grid: dict) -> list[tuple[dict, TrainConfig]]:
    """The (grid values, train config) of each point of doc's grid, over the Cartesian
    product in sorted-key order.  A point is doc with one value per grid key
    written at GRID_PATHS; each value is first parsed alone, so a bad one is
    reported under its grid key."""
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


APPROXIMATIONS = {  # error-table column -> (curvature kind, gamma), in CSV order
    "fisher": (CurvatureKind.FISHER, -1.0),
    "gauss_newton": (CurvatureKind.GAUSS_NEWTON, -1.0),
    "pch1": (CurvatureKind.PCH, -1.0),
    "pch2": (CurvatureKind.PCH, 0.0),
}


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
        writer.writerow(["layer", *APPROXIMATIONS])
        for row in range(self.num_layers + 1):
            name = f"layer-{row + 1}" if row < self.num_layers else "total"
            cells = [name]
            for col in APPROXIMATIONS:
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
    curvature kind (and gamma, under PCH).  One ea_curvatures recursion
    builds every column a step needs, and one sym_eigs call factors the
    exact blocks for their absolute-eigenvalue targets.  One
    Optimizer.run takes the steps as train does, and errors are averaged
    per layer.
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
    variants = {name: approx for name, approx in APPROXIMATIONS.items()
                if convex or approx[0] is not CurvatureKind.GAUSS_NEWTON}

    k = model.num_layers
    sums = {name: np.zeros(k + 1) for name in variants}
    schedule = itertools.chain.from_iterable(
        epoch_batches(x_train.shape[0], cfg.batch_size, run_seed, epoch)
        for epoch in itertools.count()
    )
    batches = itertools.islice(schedule, steps)
    second = cfg.second_order
    # the columns one recursion builds per step: the table's, then the step's
    # where the table has none of its kind (and gamma, which only PCH reads)
    columns = list(variants.values())
    step_column = None
    if second is not None:
        step_column = (second.kind, second.gamma if second.kind is CurvatureKind.PCH else -1.0)
        if step_column not in columns:  # Gauss-Newton, non-convex
            columns.append(step_column)

    def score(bp: BatchPass) -> list[np.ndarray] | None:
        """Add bp's errors to sums; return the step's blocks."""
        # the error targets, abs_eig of each exact block, factored together
        exact = [clip_eigenvalues(eig, -1.0) for eig in sym_eigs(true_bias_hessian(model, bp))]
        blocks = dict(zip(columns, ea_curvatures(model, bp, columns)))
        for name, column in variants.items():
            report = frobenius_errors(blocks[column], exact)
            sums[name] += np.array(report.per_layer + [report.total])
        return None if step_column is None else blocks[step_column]

    with Optimizer(model, cfg) as opt:
        opt.run(spec.criterion, x_train, y_train, batches, score)

    columns = {name: (sums[name] / steps).tolist() if name in sums else None for name in APPROXIMATIONS}
    return CurvatureErrorTable(num_layers=k, columns=columns)


@dataclass
class BoundCheckResult:
    layer: int
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-15


def run_bound_check(spec: ExperimentSpec, seed: int | None, batch: int) -> list[BoundCheckResult]:
    """Evaluate the expectation-approximation error bound at every hidden layer."""
    check_range("architecture", spec.architecture, len(spec.architecture) > 2, "at least one hidden layer")
    _, model, (x_train, y_train, _, _) = spec.setup(seed)
    if not 2 <= batch <= x_train.shape[0]:
        raise ConfigError(
            f"--batch: expected 2 <= batch <= {x_train.shape[0]} training instances, got {batch}"
        )
    bp = batch_pass(model, spec.criterion, x_train[:batch], y_train[:batch])
    lips = model.activation.lipschitz
    instances = exact_bias_hessian_instances(model, bp)
    results = []
    for t in range(2, model.num_layers + 1):
        lhs, rhs = covariance_bound_check(model, bp, t, lips, instances)
        results.append(BoundCheckResult(layer=t, lhs=lhs, rhs=rhs))
    return results
