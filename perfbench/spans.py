"""Span tracing of blocknewton from outside the package, and the per-layer
metrics computed from the spans.

`Tracer.install()` replaces each traced public function with a wrapper at
every name a caller looks it up under: the defining module, every
`blocknewton` module that imported it, and the package root.  Nothing
under `src/` changes.  Each call records one span

    {"name", "start_ns", "end_ns", "parent", "step", "dims", ...}

in memory; `Tracer.write()` dumps them as JSON lines when the trial ends.
`parent` is the index of the enclosing traced call (None at the root),
`step` the optimizer step the call belongs to, `dims` the matrix or
operator dimension where one applies.  A step starts whenever the timed call
forwards a new batch outside the per-epoch evaluation.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "blocknewton"

# module -> public functions wrapped; a name the package no longer has is
# reported missing and the metrics that need it are left out.
TRACED = {
    "data": ("synth_blobs", "load_idx", "load_csv"),
    "fcnn": ("forward", "criterion_batch", "backprop", "backprop_bias_gradients"),
    "curvature": ("ea_curvature", "true_bias_hessian", "layerwise_error"),
    "linalg": ("sym_eig", "pos_eig", "abs_eig", "cg_solve", "kron_apply"),
    "solvers": ("ea_cg_direction", "kfi_direction"),
    "trainer": ("train", "shuffled_indices", "mean_loss", "accuracy"),
    "experiments": ("compare_curvatures",),
}
EVAL = ("trainer.mean_loss", "trainer.accuracy")  # per-epoch evaluation
STEP_START = "fcnn.forward"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _square_dim(args, kwargs, result):
    return {"dims": [int(_arg(args, kwargs, 0, "a").shape[0])]}


def _kron_dims(args, kwargs, result):
    m = int(_arg(args, kwargs, 0, "a").shape[0])
    n = int(_arg(args, kwargs, 1, "c").shape[0])
    return {"dims": [m, n], "flop": 2 * m * n * (m + n)}


def _cg_info(args, kwargs, result):
    _, iters, residual = result
    eps = float(_arg(args, kwargs, 3, "eps_cg"))
    return {
        "dims": [int(_arg(args, kwargs, 0, "op").dim)],
        "iters": int(iters),
        "converged": bool(residual <= eps),
    }


def _batch_dims(args, kwargs, result):
    return {"dims": list(_arg(args, kwargs, 1, "inputs").shape)}


def _output_dims(args, kwargs, result):
    return {"dims": list(_arg(args, kwargs, 1, "hk").shape)}


ANNOTATE = {
    "linalg.sym_eig": _square_dim,
    "linalg.pos_eig": _square_dim,
    "linalg.abs_eig": _square_dim,
    "linalg.kron_apply": _kron_dims,
    "linalg.cg_solve": _cg_info,
    "fcnn.forward": _batch_dims,
    "fcnn.criterion_batch": _output_dims,
}


class Tracer:
    """Records spans of traced blocknewton calls in this process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.warnings: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._step: int | None = None
        self._last_batch = None
        self._eval_depth = 0

    def install(self) -> "Tracer":
        for module, names in TRACED.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.missing.extend(f"{module}.{n}" for n in names)
                continue
            for fname in names:
                target = getattr(mod, fname, None)
                if not callable(target):
                    self.missing.append(f"{module}.{fname}")
                    continue
                self._patch_everywhere(target, self._wrap(f"{module}.{fname}", target))
        for name in self.missing:
            self.warnings.append(f"{PACKAGE}.{name} not found; its metrics are absent")
        return self

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch_everywhere(self, target, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._patches.append((mod, attr, target))
                    setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)
        is_eval = name in EVAL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == STEP_START and self._eval_depth == 0:
                batch = args[1] if len(args) > 1 else kwargs.get("inputs")
                if batch is not self._last_batch:
                    self._last_batch = batch
                    self._step = 0 if self._step is None else self._step + 1
            span = {
                "name": name,
                "start_ns": 0,
                "end_ns": 0,
                "parent": stack[-1] if stack else None,
                "step": self._step,
            }
            stack.append(len(spans))
            spans.append(span)
            self._eval_depth += is_eval
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._eval_depth -= is_eval
                stack.pop()
            if annotate is not None:
                try:
                    span.update(annotate(args, kwargs, result))
                except (LookupError, AttributeError, TypeError, ValueError) as exc:
                    warning = f"{name}: cannot read call details ({exc!r})"
                    if warning not in self.warnings:
                        self.warnings.append(warning)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    out = []
    for span, kids in zip(spans, children):
        lo, hi = span["start_ns"], span["end_ns"]
        covered, reach = 0, lo
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def _under_eval(spans: list[dict]) -> list[bool]:
    """Whether each span is, or runs inside, a per-epoch evaluation call.
    Parents always precede their children in the list."""
    flags: list[bool] = []
    for span in spans:
        parent = span["parent"]
        flags.append(span["name"] in EVAL or (parent is not None and flags[parent]))
    return flags


# name -> (unit, better, span names it needs)
PER_LAYER = {
    "linalg.sym_eig.ms_per_step": ("ms", "lower", ("linalg.sym_eig",)),
    "linalg.sym_eig.calls_per_step": ("count", "lower", ("linalg.sym_eig",)),
    "linalg.sym_eig.n3_per_step": ("count", "lower", ("linalg.sym_eig",)),
    "linalg.pos_eig.calls_per_step": ("count", "lower", ("linalg.pos_eig",)),
    "linalg.kron_apply.ms_per_step": ("ms", "lower", ("linalg.kron_apply",)),
    "linalg.kron_apply.calls_per_step": ("count", "lower", ("linalg.kron_apply",)),
    "linalg.kron_apply.gflop_per_step": ("GFLOP", "lower", ("linalg.kron_apply",)),
    "linalg.cg_solve.ms_per_step": ("ms", "lower", ("linalg.cg_solve",)),
    "linalg.cg_solve.calls_per_step": ("count", "lower", ("linalg.cg_solve",)),
    "linalg.cg_solve.iters_per_solve": ("count", "lower", ("linalg.cg_solve",)),
    "linalg.cg_solve.converged_ratio": ("ratio", "higher", ("linalg.cg_solve",)),
    "fcnn.forward.ms_per_step": ("ms", "lower", ("fcnn.forward",)),
    "fcnn.backprop.ms_per_step": ("ms", "lower", ("fcnn.backprop",)),
    "fcnn.criterion_batch.ms_per_step": ("ms", "lower", ("fcnn.criterion_batch",)),
    "fcnn.criterion_batch.calls_per_step": ("count", "lower", ("fcnn.criterion_batch",)),
    "fcnn.backprop_bias_gradients.calls_per_step": (
        "count", "lower", ("fcnn.backprop_bias_gradients",)
    ),
    "curvature.ea_curvature.ms_per_step": ("ms", "lower", ("curvature.ea_curvature",)),
    "curvature.true_bias_hessian.ms_per_step": (
        "ms", "lower", ("curvature.true_bias_hessian",)
    ),
    "curvature.layerwise_error.ms_per_step": ("ms", "lower", ("curvature.layerwise_error",)),
    "solvers.ea_cg_direction.ms_per_step": ("ms", "lower", ("solvers.ea_cg_direction",)),
    "trainer.train.self_ms_per_step": ("ms", "lower", ("trainer.train",)),
    "trainer.eval.ms_per_epoch": ("ms", "lower", EVAL),
    "trainer.shuffled_indices.ms_per_epoch": ("ms", "lower", ("trainer.shuffled_indices",)),
    "experiments.compare_curvatures.self_ms_per_step": (
        "ms", "lower", ("experiments.compare_curvatures",)
    ),
    "data.synth_blobs.ms": ("ms", "lower", ("data.synth_blobs",)),
    **{
        f"{module}.self_ms_per_step": (
            "ms", "lower", tuple(f"{module}.{n}" for n in names)
        )
        for module, names in TRACED.items()
    },
    "bench.step_ms": ("ms", "lower", ()),
    "bench.trace_overhead_ratio": ("ratio", "lower", ()),
}


def layer_metrics(trials: list[dict], missing: list[str]) -> dict[str, float]:
    """Per-layer metrics over traced trials.

    Each trial is {"spans", "window_ns": [t0, t1], "steps", "epochs",
    "speed"}: the spans of one traced child, the timed call's window and
    the trial's speed index, by which its times are multiplied (see
    calibration.py).
    Per-step and per-epoch figures count only spans inside the window;
    per-step ones leave out the per-epoch evaluation.  Every `ms_per_step`
    is self time, so the figures of one trial partition its step time.
    Metrics whose spans are missing are left out; a wrapper that never
    fired gives 0.
    """
    self_ns: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra = {"n3": 0, "flop": 0, "iters": 0, "converged": 0, "solves": 0}
    eval_ns = blobs_ns = blobs_calls = window_ns = 0
    steps = epochs = 0
    for trial in trials:
        spans = trial["spans"]
        lo, hi = trial["window_ns"]
        speed = trial["speed"]
        steps += trial["steps"]
        epochs += trial["epochs"]
        window_ns += (hi - lo) * speed
        evals = _under_eval(spans)
        for span, own, in_eval in zip(spans, self_times(spans), evals):
            name = span["name"]
            if name == "data.synth_blobs":
                blobs_ns += (span["end_ns"] - span["start_ns"]) * speed
                blobs_calls += 1
            if not (lo <= span["start_ns"] and span["end_ns"] <= hi):
                continue
            if in_eval:
                if name in EVAL and (span["parent"] is None or not evals[span["parent"]]):
                    eval_ns += (span["end_ns"] - span["start_ns"]) * speed
                continue
            self_ns[name] = self_ns.get(name, 0) + own * speed
            calls[name] = calls.get(name, 0) + 1
            if name == "linalg.sym_eig" and "dims" in span:
                extra["n3"] += span["dims"][0] ** 3
            elif name == "linalg.kron_apply" and "flop" in span:
                extra["flop"] += span["flop"]
            elif name == "linalg.cg_solve" and "iters" in span:
                extra["solves"] += 1
                extra["iters"] += span["iters"]
                extra["converged"] += span["converged"]

    def ms(name: str) -> float:
        return self_ns.get(name, 0) / 1e6

    per_step = max(steps, 1)
    solves = extra["solves"]
    values = {
        "linalg.sym_eig.n3_per_step": extra["n3"] / per_step,
        "linalg.kron_apply.gflop_per_step": extra["flop"] / 1e9 / per_step,
        "linalg.cg_solve.iters_per_solve": extra["iters"] / solves if solves else 0.0,
        "linalg.cg_solve.converged_ratio": extra["converged"] / solves if solves else 0.0,
        "trainer.eval.ms_per_epoch": eval_ns / 1e6 / max(epochs, 1),
        "trainer.shuffled_indices.ms_per_epoch": ms("trainer.shuffled_indices") / max(epochs, 1),
        "data.synth_blobs.ms": blobs_ns / 1e6 / blobs_calls if blobs_calls else 0.0,
        "bench.step_ms": (window_ns - eval_ns) / 1e6 / per_step,
    }
    for metric in PER_LAYER:
        span_name, _, kind = metric.rpartition(".")
        if metric in values:
            continue
        if kind == "calls_per_step":
            values[metric] = calls.get(span_name, 0) / per_step
        elif kind in ("ms_per_step", "self_ms_per_step"):
            names = PER_LAYER[metric][2]  # one function, or every one of a layer
            values[metric] = sum(ms(n) for n in names) / per_step
    return {
        metric: values[metric]
        for metric in PER_LAYER
        if metric in values and not any(n in missing for n in PER_LAYER[metric][2])
    }
