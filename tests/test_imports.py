"""Source hygiene of the package, read with `ast` alone."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mbrobust"
# __init__.py imports names to export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_and_used(source: str) -> tuple[set[str], set[str]]:
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "data.py", "losses.py", "training.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    imported, used = _imported_and_used(path.read_text(encoding="utf-8"))
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"
