"""Import hygiene of the package, checked from its syntax trees: the command
line reaches scoring and relevance, and scoring and relevance reach the
support search, through public names only; only the completion and the row
writer list the ``-`` rows; and no module imports a name it never uses."""

import ast
from pathlib import Path

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
