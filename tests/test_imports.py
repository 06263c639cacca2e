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
    """The plug-in rule and the rate have one home: every other module calls
    ``tuning.plug_in`` or ``tuning.adaptive_tau`` instead of the pieces they
    bind (the scale estimates and ``_rate``), and no other module defines
    ``adaptive_tau``."""
    pieces = {"default_params", "estimate_sigma_crude", "moment_estimate",
              "_rate"}
    users, homes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tuning.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in pieces:
                users.add(f"{path.name}: {name}")
            if isinstance(node, ast.FunctionDef) and node.name == "adaptive_tau":
                homes.add(path.name)
    assert not users, sorted(users)
    assert not homes, sorted(homes)


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
    """Every LAMM iteration is one surrogate step and ends in the same
    trajectory entry and stop test: ``fit_l1_huber`` has one loop over
    ``range(cfg.max_iter)``, no ``while``, and no other loop than the
    backtracking ``itertools.count`` nested in it; it calls ``_step`` at one
    site, and ``lamm`` defines no second solver such as a ``_sweep``."""
    tree = ast.parse((SRC / "lamm.py").read_text(encoding="utf-8"))
    fit = next(f for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "fit_l1_huber")
    iters = [ast.unparse(node.iter) for node in ast.walk(fit)
             if isinstance(node, ast.For)]
    assert iters.count("range(cfg.max_iter)") == 1, iters
    assert all(it == "range(cfg.max_iter)" or it.startswith("itertools.count(")
               for it in iters), iters
    assert not [node for node in ast.walk(fit) if isinstance(node, ast.While)]
    steps = [node for node in ast.walk(fit) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_step"]
    assert len(steps) == 1, len(steps)
    defined = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    assert "_sweep" not in defined, sorted(defined)


def test_the_rank_rule_lives_in_core():
    """One rank rule: only ``core`` names the singularity threshold
    ``_RANK_EPS``, no module keeps a bound on a weighted Gram's spectrum
    (``_certified``, ``row_norms_sq``), and ``irls`` calls ``eigvalsh`` and
    ``solve`` only inside ``solve_spd``, so every system it solves passes the
    exact rank check."""
    def names(tree):
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                out.add(node.name)
        return out

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    threshold = {name for name, tree in trees.items()
                 if "_RANK_EPS" in names(tree)}
    assert threshold == {"core.py"}, sorted(threshold)
    bounds = {f"{name}: {used}" for name, tree in trees.items()
              for used in names(tree) & {"_certified", "row_norms_sq"}}
    assert not bounds, sorted(bounds)
    irls = trees["irls.py"]
    assert "gram_evals" not in names(irls)

    def linalg_calls(tree):
        return [ast.unparse(node.func) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1]
                in {"solve", "eigvalsh"}]

    solve_spd = next(f for f in irls.body
                     if isinstance(f, ast.FunctionDef) and f.name == "solve_spd")
    inside = linalg_calls(solve_spd)
    assert sorted(inside) == ["np.linalg.eigvalsh", "np.linalg.solve"], inside
    assert len(linalg_calls(irls)) == len(inside), linalg_calls(irls)


def test_the_huber_loss_lives_in_core():
    """One loss kernel: ``irls`` and ``lamm`` import ``core._loss_score`` and
    compute no loss of their own.  The nearest arithmetic above every use of
    a score there (a name starting with ``psi``) is a product
    ``design.T @ ...`` (a gradient or a right-hand side), so no
    ``psi * (r - 0.5 * psi)`` and no ``psi @ r``; no power at all, so no
    squared-error loss ``r**2``; and neither module defines a loss
    function."""
    arithmetic = (ast.BinOp, ast.UnaryOp, ast.AugAssign, ast.Compare)
    for name in ("irls.py", "lamm.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "core"
                    for alias in node.names}
        assert "_loss_score" in imported, (name, sorted(imported))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        outside = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Name) and node.id.startswith("psi")
                    and isinstance(node.ctx, ast.Load)):
                continue
            above = parents[node]
            while not isinstance(above, (*arithmetic, ast.stmt)):
                above = parents[above]
            if isinstance(above, arithmetic) and not (
                    isinstance(above, ast.BinOp) and isinstance(above.op, ast.MatMult)
                    and ast.unparse(above.left) == "design.T"):
                outside.append(ast.unparse(above))
        assert not outside, (name, outside)
        powers = [ast.unparse(node) for node in ast.walk(tree)
                  if isinstance(getattr(node, "op", None), ast.Pow)]
        assert not powers, (name, powers)
        defined = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
        assert not {f for f in defined if "loss" in f}, (name, sorted(defined))


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


def test_dataio_imports_neither_the_lab_nor_the_solvers():
    """CSV parsing reaches the fork-join through ``_forkjoin``: ``dataio``
    imports nothing from ``simlab``, ``tuning`` or the solvers."""
    modules = set()
    for node in ast.walk(ast.parse((SRC / "dataio.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        modules.update(name.split(".")[-1] for name in names)
    assert "_forkjoin" in modules
    assert not modules & {"simlab", "tuning", "irls", "lamm", "truncated"}, \
        sorted(modules)


def test_every_public_function_has_a_user_in_the_library():
    """No public helper sits beside the kernel the solvers use: every
    non-class name in ``adahuber.__all__`` is referenced (called, or passed
    on as a value) in some module other than ``__init__``, or is on the
    short list of names kept only for users.  An attribute counts only on a
    module (``dataio.write_records``), not on a value that happens to share
    the name (``fit.objective``)."""
    import adahuber

    for_users = {"kkt_satisfied", "check_truncated_moments", "objective"}
    modules = {path.stem for path in SRC.glob("*.py")}
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                loaded.add(node.attr)
    functions = {name for name in adahuber.__all__
                 if not isinstance(getattr(adahuber, name), type)}
    assert not functions - loaded - for_users, sorted(functions - loaded - for_users)
    assert for_users <= functions and not for_users & loaded, sorted(for_users & loaded)


def test_one_fork_join_and_one_csv_writer():
    """Only ``_forkjoin`` names ``os.fork``, ``multiprocessing``,
    ``concurrent.futures`` or ``threading``, so every parallel map is the
    one fork-join; and ``savetxt`` appears nowhere in the package, so
    ``dataio.save_csv`` is the one CSV writer of a dataset."""
    parallel = {"multiprocessing", "concurrent", "threading"}
    users, writers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "savetxt" in text:
            writers.add(path.name)
        if path.name == "_forkjoin.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "fork":
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Name) and node.id in parallel:
                names = [node.id]
            else:
                continue
            users.update(f"{path.name}: {name}" for name in names
                         if name.split(".")[0] in parallel
                         or name.split(".")[-1] == "fork")
    assert not users, sorted(users)
    assert not writers, sorted(writers)
