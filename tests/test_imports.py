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


def test_only_tuning_builds_the_plug_in_rule():
    """The plug-in rule has one home: every other module calls
    ``tuning.plug_in`` instead of the pieces it binds."""
    pieces = {"default_params", "estimate_sigma_crude"}
    users = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tuning.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in pieces:
                users.add(f"{path.name}: {name}")
    assert not users, sorted(users)
