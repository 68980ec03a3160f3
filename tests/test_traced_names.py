"""The benchmark's span tracer (perfbench/spans.py) wraps the package
functions named in its TRACED table; a name the package no longer has only
surfaces there as a warning and as missing metrics.  This checks the table
against the package, reading spans.py's source without importing it."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    """["module.name", ...] from the TRACED literal in spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [f"{module}.{name}" for module, names in table.items() for name in names]
    raise AssertionError(f"no TRACED table in {SPANS}")


@pytest.mark.parametrize("qualname", traced_names())
def test_traced_name_is_a_package_callable(qualname):
    module, name = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"blocknewton.{module}"), name, None))
