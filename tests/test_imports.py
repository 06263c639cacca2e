"""The package imports only the standard library, numpy and itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adahuber"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "adahuber"}


def imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {f"{path.name}: {root}" for path in files
               for root in imported_roots(path) if root not in ALLOWED}
    assert not foreign, sorted(foreign)
