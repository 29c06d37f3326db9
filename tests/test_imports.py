"""Import hygiene of the package, checked from its syntax trees: the command
line reaches scoring and relevance, and scoring and relevance reach the
support search, through public names only; only the completion and the row
writer list the ``-`` rows; no module imports a name it never uses; and
every name moved off the command line's path still resolves where it was."""

import ast
from pathlib import Path

import pytest

import negshapley

PACKAGE = Path(negshapley.__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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


def test_only_core_and_output_list_the_minus_rows():
    """`SignedDatabase.absent` is called in `core` and by the row writer in
    `output` only, so that no other module knows how the ``-`` rows are laid out."""
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.stem not in ("core", "output")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "absent"
    ]
    assert callers == []


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
        "DisjunctAnalysis", "QueryAnalysis", "_connected", "_unify_apart", "analyze_disjunct",
        "analyze_query", "gaifman_graph", "has_non_hierarchical_neg_path", "is_guarded",
        "mergeable_pairs", "negative_arity", "self_join_width"),
    ("supports", "analysis"): ("GuardedReduction", "guarded_reduction"),
    ("supports", "reference"): (
        "_validate_signed_subset", "is_d_monotone_support", "is_positive_support",
        "is_signed_support", "satisfying_assignments", "signed_satisfies"),
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
