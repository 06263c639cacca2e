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


def test_simlab_has_one_failure_policy_and_one_index_map():
    """Experiments map their (cell, replication) grid through
    ``_map_ordered`` and turn a fit into a row value through ``_l2_error``:
    simlab has one handler naming ``LIBRARY_ERRORS``, inside ``_l2_error``,
    and no ``divmod`` index split."""
    tree = ast.parse((SRC / "simlab.py").read_text(encoding="utf-8"))

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def handlers(node):
        return [h for h in ast.walk(node) if isinstance(h, ast.ExceptHandler)
                and h.type is not None and "LIBRARY_ERRORS" in names(h.type)]

    home = next(f for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "_l2_error")
    assert len(handlers(tree)) == 1
    assert len(handlers(home)) == 1
    assert "divmod" not in names(tree)


def test_lamm_has_one_iteration_loop():
    """Every LAMM iteration, surrogate step or coordinate sweep, ends in the
    same trajectory entry and stop test: ``fit_l1_huber`` has one loop over
    ``range(cfg.max_iter)``, no ``while``, and no other loop than the
    backtracking ``itertools.count`` nested in it."""
    tree = ast.parse((SRC / "lamm.py").read_text(encoding="utf-8"))
    fit = next(f for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "fit_l1_huber")
    iters = [ast.unparse(node.iter) for node in ast.walk(fit)
             if isinstance(node, ast.For)]
    assert iters.count("range(cfg.max_iter)") == 1, iters
    assert all(it == "range(cfg.max_iter)" or it.startswith("itertools.count(")
               for it in iters), iters
    assert not [node for node in ast.walk(fit) if isinstance(node, ast.While)]


def test_the_rank_rule_lives_in_core():
    """One rank rule: only ``core`` names the singularity threshold
    ``_RANK_EPS``, and ``irls`` certifies its solves through
    ``core._certified`` instead of reading the Gram spectrum or the row norms
    itself."""
    def names(path):
        out = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
        return out

    threshold = {path.name for path in sorted(SRC.glob("*.py"))
                 if "_RANK_EPS" in names(path)}
    assert threshold == {"core.py"}, sorted(threshold)
    assert not names(SRC / "irls.py") & {"gram_evals", "row_norms_sq"}


def test_the_fit_record_lives_in_core():
    """``FitResult`` and ``SolverConfig`` live in ``core``: ``lamm`` and
    ``truncated`` import nothing from ``irls``, and a fit's stop is stored
    once, as ``stop_reason``, with no ``converged`` field beside it."""
    from_irls = set()
    for name in ("lamm.py", "truncated.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "irls":
                from_irls.add(name)
    assert not from_irls, sorted(from_irls)

    core = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    record = next(c for c in ast.walk(core)
                  if isinstance(c, ast.ClassDef) and c.name == "FitResult")
    fields = [s.target.id for s in record.body if isinstance(s, ast.AnnAssign)]
    assert "stop_reason" in fields
    assert "converged" not in fields, fields
