"""Golden outputs: every file a seeded CLI run writes is pinned by its sha256.

Each row runs `blocknewton.cli.cli` (what `blocknewton.cli.main` runs on
sys.argv) on one config into tmp_path, with `--no-timing` under `train`,
and compares the exit code and the sha256 of every file the command
writes with tests/golden.json.  A change that moves one bit of a loss, an
accuracy, an error table or a bound moves a digest, so a refactor that
claims byte-identical outputs is checked here.

The configs are the README example under `train`, `grid`,
`compare-curvature` and `bound-check`; its KFI Fisher `trace_norm`,
Gauss-Newton, PCH-2, `ea_one_rank` and `sigmoid_gate` PCH-2 variants under
`train`; its `sigmoid_gate` PCH-2 and Gauss-Newton variants under
`compare-curvature`; the benchmark's `desk-compare` spec under `compare-curvature`;
and its `paper-eacg-pch` spec at 2 epochs (its Grams, its solves and its
evaluation share the run's helper lane) and `paper-sgd` at 1 epoch under `train`.

The digests hold for one build: the numpy version, the OpenBLAS core and
the BLAS thread count stored beside them (tests/conftest.py pins one
thread).  Another build may round differently in the last digits, so on
any other build, or where the OpenBLAS core cannot be read, every row is
skipped with the two builds in the reason instead of failing.  The core
alone moves them: on the SkylakeX host the table was made on, one process
with OPENBLAS_CORETYPE=Haswell or Sandybridge (numpy 2.4.6, one BLAS
thread) wrote different bytes for 11 of the 12 rows; only
train/paper-sgd-1-epoch kept its digests.

A change that moves a row on purpose regenerates the table with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py

which, before it writes, prints `added:` or `removed:` with the name of
each row on one side only, and `moved:` with the name of each row whose
exit code or digests differ from the stored table; the change names those
rows, and why they moved.
"""

import copy
import ctypes
import glob
import hashlib
import json
import os
import runpy
import tempfile
from pathlib import Path

import numpy as np
import pytest

from blocknewton.cli import cli

GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
)["WORKLOADS"]

# the example config of the README
README = {
    "architecture": [64, 32, 10],
    "activation": "sigmoid",
    "criterion": {"kind": "cross_entropy"},
    "train": {"learning_rate": 0.2, "epochs": 20, "batch_size": 32, "seed": 0},
    "optimizer": {"kind": "ea_cg", "curvature": "pch", "gamma": -1.0, "solver_cfg": {"alpha": 0.02}},
    "dataset": {"kind": "blobs", "classes": 10, "dim": 64, "per_class": 40, "spread": 0.08},
    "compare_steps": 10,
    "grid": {"learning_rate": [0.1, 0.2], "alpha": [0.01, 0.02]},
}


def _optimizer(**changes):
    optimizer = dict(README["optimizer"], **changes)
    if optimizer["curvature"] != "pch":  # only PCH reads gamma
        del optimizer["gamma"]
    return dict(README, optimizer=optimizer)


def _workload(name, epochs):
    doc = WORKLOADS[name].spec_for(0)
    doc["train"]["epochs"] = epochs
    return doc


# row name -> (command, config document); a train row runs with --no-timing
ROWS = {
    "train/readme": ("train", README),
    "grid/readme": ("grid", README),
    "compare-curvature/readme": ("compare-curvature", README),
    "bound-check/readme": ("bound-check", README),
    "train/readme-kfi-fisher-trace-norm": (
        "train",
        _optimizer(kind="kfi", curvature="fisher", solver_cfg={"alpha": 0.02, "pi_policy": "trace_norm"}),
    ),
    "train/readme-gauss-newton": ("train", _optimizer(curvature="gauss_newton")),
    "train/readme-pch2": ("train", _optimizer(gamma=0.0)),
    "train/readme-ea-one-rank": (
        "train",
        _optimizer(solver_cfg={"alpha": 0.02, "hvp_mode": "ea_one_rank"}),
    ),
    "train/readme-sigmoid-gate-pch2": (
        "train",
        dict(_optimizer(gamma=0.0), criterion={"kind": "sigmoid_gate"}),
    ),
    "compare-curvature/readme-sigmoid-gate-pch2": (
        "compare-curvature",
        dict(_optimizer(gamma=0.0), criterion={"kind": "sigmoid_gate"}),
    ),
    # Gauss-Newton has no column under the non-convex criterion, so the step's
    # blocks are built apart from the table's; the damped top block is not
    # positive definite and the command exits 3
    "compare-curvature/readme-sigmoid-gate-gauss-newton": (
        "compare-curvature",
        dict(_optimizer(curvature="gauss_newton"), criterion={"kind": "sigmoid_gate"}),
    ),
    "compare-curvature/desk-compare": ("compare-curvature", WORKLOADS["desk-compare"].spec_for(0)),
    "train/paper-eacg-pch-2-epochs": ("train", _workload("paper-eacg-pch", 2)),
    "train/paper-sgd-1-epoch": ("train", _workload("paper-sgd", 1)),
}


def _openblas_call(name: str, restype):
    """The result of OpenBLAS's `name` from the library numpy's wheel ships,
    or None where there is no such library or symbol."""
    numpy_dir = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(numpy_dir, "..", "numpy.libs", "*openblas*")):
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def build() -> dict:
    """The numpy version, the OpenBLAS core and the BLAS thread count."""
    core = _openblas_call("get_corename", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "openblas_core": core.decode() if core else None,
        "blas_threads": _openblas_call("get_num_threads", ctypes.c_int),
    }


def run_row(command: str, doc: dict, out: Path) -> dict:
    """Run one row into out and return its exit code and file digests."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(doc))
    args = [command, "--config", str(config), "--out", str(out)]
    if command == "train":
        args.append("--no-timing")
    code = cli(args)
    config.unlink()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return {"exit": code, "files": digests}


@pytest.fixture(scope="module")
def golden():
    table = json.loads(GOLDEN.read_text())
    here = build()
    if table["build"] != here or here["openblas_core"] is None:
        pytest.skip(f"golden digests are for {table['build']}, this build is {here}")
    return table["rows"]


def test_golden_table_covers_every_row():
    assert sorted(json.loads(GOLDEN.read_text())["rows"]) == sorted(ROWS)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_output_matches_golden_digest(golden, row, tmp_path, capsys):
    command, doc = ROWS[row]
    result = run_row(command, copy.deepcopy(doc), tmp_path / "out")
    capsys.readouterr()
    assert result == golden[row]


def regenerate() -> None:
    """Rewrite tests/golden.json on this build, after printing the name of
    each row added to or removed from ROWS, and of each row whose exit code
    or digests differ from the stored table."""
    stored = json.loads(GOLDEN.read_text())["rows"]
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for row, (command, doc) in sorted(ROWS.items()):
            rows[row] = run_row(command, copy.deepcopy(doc), Path(tmp) / row.replace("/", "-"))
    for row in sorted(rows.keys() | stored.keys()):
        if row not in stored:
            print(f"added: {row}")
        elif row not in rows:
            print(f"removed: {row}")
        elif rows[row] != stored[row]:
            print(f"moved: {row}")
    table = {"build": build(), "rows": rows}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
