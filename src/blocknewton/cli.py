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
from pathlib import Path

from .data import synth_blobs, write_idx_images, write_idx_labels
from .errors import ConfigError, NumericalBreakdownError
from .experiments import (
    atomic_write_text,
    compare_curvatures,
    load_spec,
    metrics_jsonl,
    run_bound_check,
    run_grid,
    run_training,
    summary_csv,
)

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
    rows = [
        {"params": params, "final_loss": report.final_loss, "final_test_acc": report.final_accuracy}
        for params, report in run_grid(load_spec(args.config), seed=args.seed)
    ]
    best = min(rows, key=lambda row: row["final_loss"])
    doc = {
        "runs": rows,
        "best_by_loss": best,
        "best_by_accuracy": max(rows, key=lambda row: row["final_test_acc"]),
    }
    atomic_write_text(Path(args.out) / "grid.json", json.dumps(doc, indent=2) + "\n")
    print(f"{len(rows)} runs; best loss {best['final_loss']:.6f} at {best['params']}")
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
    # labels first: they are checked to fit IDX bytes, so a bad --classes writes nothing
    write_idx_labels(out / "blobs-labels.idx", ds.labels)
    write_idx_images(out / "blobs-images.idx", pixels.reshape(pixels.shape[0], 1, -1))
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
    # every path opened and every size comes from the command line or the
    # spec, so an unreadable or unwritable path is a usage error, and so is
    # a size numpy can shape but cannot allocate
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBreakdownError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
