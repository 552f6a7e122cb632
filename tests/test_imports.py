"""No module of the package reaches into a sibling's private names.

A name that starts with ``_`` belongs to its module. A sibling that needs
the value goes through a public function, so each result has one path.
"""

import ast

import pytest

from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "cachecap").glob("*.py"))


def private_imports(path) -> list[str]:
    """``from .<sibling> import _name`` lines in ``path``, as ``line: module._name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.lineno}: {node.module}.{alias.name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_private_name_is_imported_from_a_sibling(path):
    assert private_imports(path) == []
