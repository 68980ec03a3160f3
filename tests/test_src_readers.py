"""Every public function, method and property in src/blocknewton has a
reader in src/blocknewton, so the library holds only what runs; oracles that
only tests call live in tests/helpers.py.  A reader is a NAME token other
than the one a def names, so a docstring or comment that mentions a name is
no reader, and __init__.py is left out, so a re-export is none either."""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blocknewton"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")

# public names kept without a reader in src/, each for one reason
UNREAD = {
    "cg_solve": "traced by perfbench/spans.py until the benchmark drops its CG rows",
    "kron_apply": "traced by perfbench/spans.py until the benchmark drops its CG rows",
    "LinearOperator.from_matrix": "how the perfbench-traced cg_solve is given a dense matrix",
    "sherman_morrison_apply": "imported by acceptance criterion 6",
    "median_total_errors": "imported by the acceptance tests",
    "layerwise_error": "imported by the acceptance tests and traced by perfbench/spans.py",
}


def public_definitions(tree):
    """(qualified name, def node) of each public top-level function and each
    public method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members, prefix = node.body, f"{node.name}."
        else:
            members, prefix = [node], ""
        for member in members:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield prefix + member.name, member


def unread_names():
    defined = {}  # qualified name -> the plain name its def binds
    readers = set()  # plain names with a NAME token that no def binds
    for path in MODULES:
        source = path.read_text()
        for qualname, node in public_definitions(ast.parse(source)):
            defined[qualname] = node.name
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                if previous != "def":
                    readers.add(tok.string)
                previous = tok.string
    return {qualname for qualname, name in defined.items() if name not in readers}


def test_every_public_name_has_a_reader_in_src():
    unread = unread_names()
    assert unread - UNREAD.keys() == set(), "public names no code in src/ reads"
    assert UNREAD.keys() - unread == set(), "allowlisted names that are read now, or gone"
