"""Import hygiene of the package, checked from its syntax trees: the command
line reaches scoring and relevance, and scoring and relevance reach the
support search, through public names only; only the completion and the row
writer list the ``-`` rows; only the search plan grounds a literal; every
coalition table a command reads is a `Game`'s; no module imports a name it
never uses; and every name moved off the command line's path still
resolves where it was."""

import ast
from pathlib import Path

import pytest

import negshapley

PACKAGE = Path(negshapley.__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _callers(name: str) -> set[str]:
    """The functions, as ``module.qualified_name``, that call ``name``."""
    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                          getattr(child.func, "attr", None)):
                found.add(scope)
            visit(child, inner)

    found: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        visit(_tree(path), path.stem)
    return found


def _private_imports(module: str, sources: tuple[str, ...]) -> list[str]:
    """The ``_``-prefixed names ``module`` imports from the ``sources``."""
    return [
        f"{module} <- {node.module}.{alias.name}"
        for node in ast.walk(_tree(PACKAGE / f"{module}.py"))
        if isinstance(node, ast.ImportFrom) and node.module in sources
        for alias in node.names if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_scoring_names():
    assert _private_imports("cli", ("core", "relevance", "shapley", "supports")) == []


def test_scoring_and_relevance_import_no_private_support_names():
    """Minimal supports reach them through `supports.support_families`."""
    assert _private_imports("shapley", ("supports",)) == []
    assert _private_imports("relevance", ("supports",)) == []


def test_only_core_and_the_row_writer_list_the_minus_rows():
    """`SignedDatabase.absent` has one caller, `SignedDatabase.__iter__`; the
    row writer (`rows.minus_rows`) walks the same rows a prefix at a time
    without it, and `tests/test_output.py` checks its output byte for byte
    against the reference writer, so no third module lays the ``-`` rows out."""
    assert _callers("absent") == {"core.SignedDatabase.__iter__"}


def test_only_the_search_plan_grounds_literals():
    """`supports._grounder` is read in `supports._search_steps` alone: the
    search hands every reader the negated atoms it grounded, so none
    grounds them again after it."""
    def reads(tree: ast.AST) -> set[int]:
        return {node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "_grounder"
                or isinstance(node, ast.Attribute) and node.attr == "_grounder"
                or isinstance(node, ast.alias) and node.name == "_grounder"}

    supports = _tree(PACKAGE / "supports.py")
    (plan,) = [node for node in ast.walk(supports)
               if isinstance(node, ast.FunctionDef) and node.name == "_search_steps"]
    assert reads(plan)
    assert {(path.stem, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in reads(_tree(path))} == {("supports", line) for line in reads(plan)}


def test_every_coalition_table_is_read_off_a_game():
    """A command reads each coalition table off a `Game`, which builds it
    in `Game._table` from the witnesses of `games.compiled`; the listings
    read their Boolean game's.  The one table built elsewhere is
    `reference.is_d_monotone_support`'s, over the witnesses less the set
    tested, whose cap bounds the facts outside that set."""
    one_set = "reference.is_d_monotone_support"
    assert _callers("coalition_table") == {"shapley.Game._table", one_set}
    assert _callers("witness_masks") == {"games.compiled", one_set}


#: The modules that ``import negshapley.cli`` loads, and those loaded on first use.
_STARTUP = ("__init__", "cli", "core", "errors", "output", "query", "relevance", "shapley",
            "supports")
_DEFERRED = ("analysis", "games", "reference", "rows", "usage")


def _import_time_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """The package modules, by name within the package, that a module's
    imports read when it is imported (all but those inside a function),
    with their lines."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.removeprefix("negshapley."))
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("negshapley").lstrip(".")
            found += ([(node.lineno, alias.name) for alias in node.names] if not base
                      else [(node.lineno, base)])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += _import_time_imports(node)
    return found


def test_no_start_up_module_imports_a_deferred_one():
    """The coalition tables (`games`), the per-fact commands (`rows`), the
    argparse fallback (`usage`), the query analysis and the library-only API
    are imported inside the functions that need them, never while a
    start-up module loads, so that ``import negshapley.cli`` does not
    compile them."""
    trees = {module: _tree(PACKAGE / f"{module}.py") for module in _STARTUP}
    assert [f"{module}.py:{line}: {name}" for module, tree in trees.items()
            for line, name in _import_time_imports(tree) if name in _DEFERRED] == []
    inside = {node.module for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert {"analysis", "games", "rows", "usage"} <= inside  # each is still imported, on first use


def test_no_module_a_command_loads_imports_a_traced_name():
    """perfbench's `Tracer.install` rebinds the names of its ``GROUPS``
    before a traced command loads `analysis`, `games`, `rows` or `usage`; a
    name one of them imported from there would keep the wrapper past
    `uninstall`, so none does.  (`reference` loads during `install`.)"""
    tracer = _tree(PACKAGE.parent.parent / "perfbench" / "tracer.py")
    (groups,) = [node.value for node in tracer.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["GROUPS"]]
    traced = {name.split(".")[1] for names in ast.literal_eval(groups).values()
              for name in names}
    assert "make_game" in traced  # the rule is not vacuous
    assert [f"{module}.py:{node.lineno}: {alias.name}"
            for module in _DEFERRED if module != "reference"
            for node in ast.walk(_tree(PACKAGE / f"{module}.py"))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name in traced] == []


def test_no_module_imports_a_name_it_never_uses():
    """Apart from ``__init__``, which re-exports, and lines marked
    ``noqa: F401``, every imported name is read somewhere in its module."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


#: Where each name that left a command's path lives now, by the module it left.
_MOVED = {
    ("query", "analysis"): (
        "DisjunctAnalysis", "QueryAnalysis", "analyze_disjunct", "analyze_query",
        "gaifman_graph", "has_non_hierarchical_neg_path", "is_guarded", "mergeable_pairs",
        "negative_arity", "self_join_width"),
    ("supports", "analysis"): ("GuardedReduction", "guarded_reduction"),
    ("supports", "reference"): (
        "is_d_monotone_support", "is_positive_support", "is_signed_support",
        "satisfying_assignments", "signed_satisfies"),
    ("relevance", "reference"): (
        "RelevanceVerdict", "impact_relevant", "positive_relevant", "relevance_report",
        "signed_relevant"),
    ("shapley", "reference"): (
        "DEFAULT_PERMUTATION_CAP", "ms_scores", "permutation_marginal_counts",
        "shapley_permutation", "shapley_subset", "shapley_values"),
}

#: The moved names that the package exports.
_EXPORTED = {
    "GuardedReduction", "QueryAnalysis", "RelevanceVerdict", "analyze_query",
    "guarded_reduction", "impact_relevant", "is_d_monotone_support", "is_positive_support",
    "is_signed_support", "ms_scores", "permutation_marginal_counts", "positive_relevant",
    "relevance_report", "satisfying_assignments", "shapley_permutation", "shapley_subset",
    "shapley_values", "signed_relevant", "signed_satisfies",
}


def test_moved_names_resolve_from_their_old_modules_and_the_package():
    """Each name moved to `analysis` or `reference` is, from the module it
    left and from the package, the object its new home holds; the package
    still exports the public ones, and an unknown name is still refused."""
    import importlib

    for (old, new), names in _MOVED.items():
        source = importlib.import_module(f"negshapley.{old}")
        home = importlib.import_module(f"negshapley.{new}")
        for name in names:
            assert name not in vars(source), (old, name)
            assert getattr(source, name) is vars(home)[name], (old, name)
            if name in _EXPORTED:
                assert getattr(negshapley, name) is vars(home)[name], name
    assert _EXPORTED <= set(negshapley.__all__)
    namespace: dict = {}
    exec("from negshapley import *", namespace)
    assert set(negshapley.__all__) <= set(namespace)
    for module in (negshapley, *(importlib.import_module(f"negshapley.{old}")
                                 for old, _ in _MOVED)):
        with pytest.raises(AttributeError, match=f"^module '{module.__name__}' has no "
                                                 "attribute 'no_such_name'$"):
            module.no_such_name
