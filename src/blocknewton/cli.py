"""Command-line harness.

Subcommands: train, grid, compare-curvature, bound-check, gen-data.
Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
Metrics are emitted as JSON-lines (one object per epoch) plus a summary
CSV; files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .data import synth_blobs, write_idx_images, write_idx_labels
from .errors import ConfigError, NumericalBreakdownError
from .experiments import (
    atomic_write_text,
    compare_curvatures,
    load_spec,
    metrics_jsonl,
    run_bound_check,
    run_training,
    summary_csv,
)
from .trainer import GridResult, grid_search

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocknewton",
        description="Second-order training harness for fully-connected networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment spec")
        p.add_argument("--seed", type=int, default=None, help="override spec seed")
        p.add_argument("--out", default=".", help="output directory")

    p_train = sub.add_parser("train", help="train one configuration")
    common(p_train)
    p_train.add_argument(
        "--timing",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="record wall time per epoch (--no-timing writes 0.0 for reproducible files)",
    )

    p_grid = sub.add_parser("grid", help="cartesian grid search")
    common(p_grid)

    p_cmp = sub.add_parser("compare-curvature", help="layer-wise error table")
    common(p_cmp)

    p_bound = sub.add_parser("bound-check", help="expectation-approximation bound")
    common(p_bound)
    p_bound.add_argument("--batch", type=int, default=8)

    p_gen = sub.add_parser("gen-data", help="write a synthetic blob dataset as IDX")
    p_gen.add_argument("--classes", type=int, default=2)
    p_gen.add_argument("--dim", type=int, default=4)
    p_gen.add_argument("--per-class", type=int, default=50)
    p_gen.add_argument("--spread", type=float, default=0.05)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=".")
    return parser


def _cmd_train(args) -> int:
    spec = load_spec(args.config)
    report = run_training(spec, seed=args.seed, record_time=args.timing)
    out = Path(args.out)
    atomic_write_text(out / "metrics.jsonl", metrics_jsonl(report))
    atomic_write_text(out / "summary.csv", summary_csv(report))
    print(f"final loss {report.final_loss:.6f}, test acc {report.final_accuracy:.4f}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    spec = load_spec(args.config)
    if not spec.grid:
        raise ConfigError("spec has no 'grid' section")
    seed = args.seed if args.seed is not None else spec.train_cfg.seed
    ds = spec.load_dataset(seed)
    x_train, y_train, x_test, y_test = ds.split()
    results, best_loss, best_acc = grid_search(
        lambda: spec.build_model(seed),
        spec.criterion,
        x_train,
        y_train,
        replace(spec.train_cfg, seed=seed),
        {k: list(v) for k, v in spec.grid.items()},
        x_test,
        y_test,
    )

    def row(res: GridResult) -> dict:
        return {
            "params": res.params,
            "final_loss": res.report.final_loss,
            "final_test_acc": res.report.final_accuracy,
        }

    doc = {
        "runs": [row(r) for r in results],
        "best_by_loss": row(best_loss),
        "best_by_accuracy": row(best_acc),
    }
    atomic_write_text(Path(args.out) / "grid.json", json.dumps(doc, indent=2) + "\n")
    print(
        f"{len(results)} runs; best loss {best_loss.report.final_loss:.6f} "
        f"at {best_loss.params}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    spec = load_spec(args.config)
    table = compare_curvatures(spec, seed=args.seed)
    csv_text = table.to_csv()
    atomic_write_text(Path(args.out) / "curvature_errors.csv", csv_text)
    print(csv_text, end="")
    return EXIT_OK


def _cmd_bound(args) -> int:
    spec = load_spec(args.config)
    results = run_bound_check(spec, seed=args.seed, batch=args.batch)
    all_hold = True
    for res in results:
        status = "PASS" if res.holds else "FAIL"
        all_hold &= res.holds
        print(f"layer {res.layer}: lhs={res.lhs:.6e} rhs={res.rhs:.6e} {status}")
    lines = [
        json.dumps({"layer": r.layer, "lhs": r.lhs, "rhs": r.rhs, "holds": r.holds})
        for r in results
    ]
    atomic_write_text(Path(args.out) / "bound_check.jsonl", "\n".join(lines) + "\n")
    return EXIT_OK if all_hold else EXIT_NUMERICAL


def _cmd_gen_data(args) -> int:
    ds = synth_blobs(args.classes, args.dim, args.per_class, args.spread, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pixels = (ds.features * 255.0).round().astype("uint8")
    write_idx_images(out / "blobs-images.idx", pixels.reshape(pixels.shape[0], 1, -1))
    write_idx_labels(out / "blobs-labels.idx", ds.labels)
    print(f"wrote {pixels.shape[0]} instances to {out}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "grid": _cmd_grid,
    "compare-curvature": _cmd_compare,
    "bound-check": _cmd_bound,
    "gen-data": _cmd_gen_data,
}


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBreakdownError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
