"""The benchmark's workloads (perfbench/workloads.py) are spec documents
that the package parses; a parser change that rejects one only surfaces
there as a failed benchmark run.  This runs workloads.py from its path,
leaving the file as it is, and parses and loads every workload's spec."""

import runpy
from pathlib import Path

import pytest

from blocknewton.experiments import spec_from_json

WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
)["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_spec_parses_and_fits_its_dataset(name):
    # load_dataset raises ConfigError unless the architecture fits the data
    ds = spec_from_json(WORKLOADS[name].spec_for(0)).load_dataset(0)
    assert ds.n_train > 0
