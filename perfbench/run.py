"""blocknewton benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs a workload as a closed loop of trials, one fresh child interpreter
per trial (perfbench/child.py), with BLAS pinned to one thread.  Times
are scaled to reference machine speed by each trial's speed index
(perfbench/calibration.py); the raw times and the index stay in the full
record.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced trials of the same sub-seed and prints the
per-layer metrics from the traced ones, plus the tracing overhead.
`--workload all` (the default) runs every workload both ways.

Output checks run on every trial.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the full record,
with the environment and every trial, goes to .perfbench/ in the
checkout.  Exit status: 0 when every check passed, 1 when one failed,
2 when the benchmark could not run (no result is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import speed_index
from spans import PER_LAYER, layer_metrics, read_spans
from workloads import END_TO_END, WORKLOADS, trial_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload, seed: int, deadline: float, spans: Path | None = None) -> dict:
    """Run one trial of `workload` with sub-seed `seed` in a child
    interpreter and return its result."""
    request = {
        "kind": workload.kind,
        "spec": workload.spec_for(seed),
        "seed": seed,
        "spans": str(spans) if spans else None,
    }
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload.name} trial {seed} ran past the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload.name} trial {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["speed"] = speed_index(result["calibration"])
    result["setup_s"] = result["ready_s"] - start
    result["wall_s"] = time.monotonic() - start
    return result


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def loop(seconds: float, min_rounds: int, round_fn) -> list:
    """Closed loop: call round_fn(i) until min_rounds are done and another
    round would likely end past `seconds`."""
    start = time.monotonic()
    rounds, durations = [], []
    while True:
        t = time.monotonic()
        rounds.append(round_fn(len(rounds)))
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return rounds


def determinism_errors(trials: list[dict], what: str) -> list[str]:
    """Trials of one sub-seed must produce identical outputs."""
    first: dict[int, str] = {}
    errors = []
    for trial in trials:
        if trial["errors"]:
            continue
        seen = first.setdefault(trial["seed"], trial["fingerprint"])
        if seen != trial["fingerprint"]:
            errors.append(f"sub-seed {trial['seed']}: {what} changed the output")
    return errors


def end_to_end(workload, seed: int, seconds: float, deadline: float) -> tuple[dict, list, list]:
    k = workload.loss_trials
    trials = loop(
        seconds, k, lambda i: spawn(workload, trial_seed(seed, i % k), deadline)
    )
    errors = determinism_errors(trials, "a repeated trial")
    losses = [t["final_loss"] for t in trials[:k] if t["final_loss"] is not None]
    values = {
        "setup_s": statistics.median(t["setup_s"] * t["speed"] for t in trials),
        "samples_per_s": statistics.median(
            t["samples"] / (t["elapsed_s"] * t["speed"]) for t in trials
        ),
        "peak_rss_mb": statistics.median(t["rss_kib"] for t in trials) / 1024,
    }
    if len(losses) == k:
        values["final_loss"] = statistics.fmean(losses)
    metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in values}
    return metrics, trials, errors


def per_layer(workload, seed: int, seconds: float, deadline: float) -> tuple[dict, list, list]:
    OUT.mkdir(exist_ok=True)
    k = workload.loss_trials

    def pair(i: int) -> tuple[dict, dict]:
        sub = trial_seed(seed, i % k)
        path = OUT / f"spans-{workload.name}-seed{seed}-pair{i}.jsonl"
        return spawn(workload, sub, deadline), spawn(workload, sub, deadline, path)

    pairs = loop(seconds, MIN_TRACED_PAIRS, pair)
    trials = [t for p in pairs for t in p]
    errors = determinism_errors(trials, "tracing")
    traced = []
    for i, (_, t) in enumerate(pairs):
        spans = read_spans(OUT / f"spans-{workload.name}-seed{seed}-pair{i}.jsonl")
        traced.append({**t, "spans": spans})
    missing = sorted({m for t in traced for m in t["missing"]})
    values = layer_metrics(traced, missing)
    values["bench.trace_overhead_ratio"] = statistics.median(
        (t["elapsed_s"] * t["speed"]) / (u["elapsed_s"] * u["speed"]) for u, t in pairs
    ) - 1.0
    metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in values}
    return metrics, trials, errors


def run_one(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its full record."""
    name = workload.name
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = per_layer if trace else end_to_end
    metrics, trials, errors = measure(workload, seed, seconds, deadline)
    errors += [f"sub-seed {t['seed']}: {e}" for t in trials for e in t["errors"]]
    warnings = sorted({w for t in trials for w in t["warnings"]})
    for w in warnings:
        print(f"warning: {name}: {w}", file=sys.stderr)
    record = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "correct": not errors,
        "attempted": sum(t["steps"] for t in trials),
        "failed": sum(t["failed_steps"] for t in trials),
        "metrics": metrics,
        "errors": errors,
        "warnings": warnings,
        "trials": [{k: v for k, v in t.items() if k != "fingerprint"} for t in trials],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return record


def summary(records: list[dict]) -> dict:
    """The result line: metric names are prefixed with the workload when
    more than one run is summarised."""
    single = len(records) == 1
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (metric if single else f"{r['workload']}.{metric}"): m
            for r in records
            for metric, m in r["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "blocknewton" / "__init__.py").is_file():
        print(f"error: no blocknewton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    records = []
    try:
        for name in names:
            for trace in traces:
                records.append(run_one(WORKLOADS[name], args.seed, args.seconds, trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(records[0]["environment"], sort_keys=True))
    for rec in records:
        for metric, m in rec["metrics"].items():
            print(f"{rec['workload']:16} {metric:48} {m['value']:<14.6g} {m['unit']}")
        for error in rec["errors"]:
            print(f"{rec['workload']:16} CHECK FAILED: {error}")
    result = summary(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
