"""Every top-level import of the project's modules is read in its module.

An import that nothing reads is dead code that still costs its load time
and hides the module's real dependencies.  The package's ``__init__.py``
imports only to re-export, so it is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/factorlab", "tests", "scripts", "demos")


def unused_imports(path: Path) -> list[str]:
    """``path:line: name`` for each name that a top-level import binds and no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_every_top_level_import_is_read():
    paths = [path for directory in DIRS for path in sorted((ROOT / directory).rglob("*.py"))]
    assert len(paths) > 20
    unused = [entry for path in paths if path.name != "__init__.py" for entry in unused_imports(path)]
    assert unused == []
