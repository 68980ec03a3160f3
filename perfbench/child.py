"""One benchmark trial in a fresh interpreter.

Usage: python3 perfbench/child.py '{"kind": "train"|"compare", "spec": {...},
                                   "seed": N, "spans": PATH|null}'

Imports blocknewton from the checkout's `src/`, builds the spec, dataset
and model, then times one `train()` (kind "train") or
`compare_curvatures()` (kind "compare") call and checks its output.  With a spans path the
call runs under the tracer and the spans are written there at the end.
The calibration kernels (see calibration.py) are timed just before and
just after the call.  Prints one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import blocknewton from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import blocknewton

    origin = Path(blocknewton.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"blocknewton imported from {origin}, not from {SRC}")
    return blocknewton


def check_table(csv_text: str, num_layers: int) -> list[str]:
    """Problems with a compare-curvature table: it needs one row per layer
    plus a total row, and a finite value in each of the four columns."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    want_header = ["layer", "fisher", "gauss_newton", "pch1", "pch2"]
    want_names = [f"layer-{t}" for t in range(1, num_layers + 1)] + ["total"]
    if not rows or rows[0] != want_header:
        return [f"table header {rows[:1]} != {want_header}"]
    if [r[0] for r in rows[1:]] != want_names:
        return [f"table rows {[r[0] for r in rows[1:]]} != {want_names}"]
    errors = []
    for row in rows[1:]:
        for col, cell in zip(want_header[1:], row[1:]):
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                errors.append(f"table {row[0]}/{col} = {cell!r} is not a finite number")
    return errors


def run_trial(kind: str, spec_doc: dict, seed: int, spans_path: str | None = None) -> dict:
    """Set up and time one trial; see the module docstring."""
    from calibration import kernel_times
    from spans import Tracer

    import_package()
    # install first, so the names imported below are the wrapped ones
    tracer = Tracer().install() if spans_path else None
    try:
        from blocknewton.errors import NumericalBreakdownError
        from blocknewton.experiments import compare_curvatures, spec_from_json
        from blocknewton.trainer import mean_loss, train

        spec = spec_from_json(spec_doc)
        dataset = spec.load_dataset(seed)
        x_train, y_train, x_test, y_test = dataset.split()
        cfg = spec.train_cfg
        models = []
        if kind == "compare":
            # compare_curvatures builds its own model; keep it to score the
            # parameters its optimizer steps reach
            build = spec.build_model

            def build_and_keep(model_seed):
                models.append(build(model_seed))
                return models[-1]

            spec.build_model = build_and_keep
            epochs, steps = 1, spec.compare_steps
            samples = steps * cfg.batch_size
        else:
            models.append(spec.build_model(seed))
            epochs = cfg.epochs
            steps = epochs * math.ceil(x_train.shape[0] / cfg.batch_size)
            samples = epochs * x_train.shape[0]

        errors: list[str] = []
        final_loss, fingerprint = None, ""
        ready = time.monotonic()
        calibration = [kernel_times()]
        t0 = time.perf_counter_ns()
        try:
            if kind == "compare":
                table = compare_curvatures(spec, seed=seed)
            else:
                report = train(
                    models[0], spec.criterion, x_train, y_train, cfg, x_test, y_test,
                    record_time=False,
                )
        except NumericalBreakdownError as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter_ns()

        if not errors and kind == "compare":
            fingerprint = table.to_csv()
            errors += check_table(fingerprint, len(spec.architecture) - 1)
            final_loss = mean_loss(models[-1], spec.criterion, x_train, y_train)
        elif not errors:
            losses = [rec.loss for rec in report.epochs]
            fingerprint = repr(losses + [report.final_accuracy])
            if len(losses) != epochs:
                errors.append(f"{len(losses)} epoch records for {epochs} epochs")
            final_loss = report.final_loss
        if final_loss is not None and not math.isfinite(final_loss):
            errors.append(f"final loss {final_loss!r} is not finite")
    finally:
        if tracer:
            tracer.uninstall()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration.append(kernel_times())
    if tracer:
        tracer.write(spans_path)
    return {
        "ready_s": ready,
        "elapsed_s": (t1 - t0) / 1e9,
        "window_ns": [t0, t1],
        "samples": samples,
        "steps": steps,
        "epochs": epochs,
        "final_loss": final_loss,
        "fingerprint": fingerprint,
        "errors": errors,
        "failed_steps": steps if errors else 0,
        "rss_kib": rss_kib,
        "calibration": calibration,
        "missing": tracer.missing if tracer else [],
        "warnings": tracer.warnings if tracer else [],
    }


def main(argv: list[str]) -> int:
    args = json.loads(argv[1])
    result = run_trial(args["kind"], args["spec"], args["seed"], args["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
