"""Import hygiene of the package, checked from its syntax trees: the command
line reaches scoring through public names only, and no module imports a
name it never uses."""

import ast
from pathlib import Path

import negshapley

PACKAGE = Path(negshapley.__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_cli_imports_no_private_scoring_names():
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(_tree(PACKAGE / "cli.py"))
        if isinstance(node, ast.ImportFrom) and node.module in ("core", "shapley", "supports")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


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
