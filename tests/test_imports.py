"""No module of the package reaches into a sibling's private names, and
every public name has a reader.

A name that starts with ``_`` belongs to its module. A sibling that needs
the value goes through a public function, so each result has one path. A
public name that nothing reads is dead weight, and goes.
"""

import ast
import re

import pytest

import cachecap

from conftest import REPO_ROOT
from test_bench_names import bench_references

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


def public_names(path) -> list[str]:
    """The strings in ``path``'s ``__all__``; none when it has no ``__all__``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def loaded_names(path) -> set[str]:
    """Every ``name`` and ``x.name`` read in ``path``, outside annotations."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_annotation = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                in_annotation.update(map(id, ast.walk(annotation)))
    names = set()
    for node in ast.walk(tree):
        if id(node) in in_annotation or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_reader():
    """A name in a layer's ``__all__`` is read by some module of the package,
    used as ``cc.<name>`` by the benchmark scripts, or shown in README.md."""
    read = set().union(*map(loaded_names, SOURCES))
    read |= {part for ref in bench_references() for part in ref.split(".")}
    readme = set(re.findall(r"\w+", (REPO_ROOT / "README.md").read_text(encoding="utf-8")))
    unread = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in public_names(path)
        if name not in read and name not in readme
    ]
    assert unread == []


def checked_classes(path) -> dict[str, bool]:
    """Each class in ``path``'s ``__all__`` whose body defines ``__new__``,
    mapped to whether the body also binds ``_make``."""
    found, public = {}, public_names(path)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            bound = {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
            for s in node.body:
                if isinstance(s, ast.Assign):
                    bound.update(t.id for t in s.targets if isinstance(t, ast.Name))
            if "__new__" in bound:
                found[node.name] = "_make" in bound
    return found


def test_every_record_that_checks_its_input_is_rebuilt_through_its_checks():
    """A named tuple's ``_replace`` and ``_make`` skip a ``__new__`` of its own,
    unless ``_make`` is bound again to go through the constructor."""
    found = {f"{path.stem}.{name}": ok for path in SOURCES for name, ok in checked_classes(path).items()}
    assert {"entropy.IIDSource", "entropy.MarkovSource"} <= found.keys()
    assert [name for name, ok in found.items() if not ok] == []


def test_each_layer_imports_only_the_layers_before_it():
    """The package binds a missing name by importing the layers in
    ``_LAYERS`` order and stops at the one that holds it, so a layer that
    imported a later one would load it unannounced."""
    layers = cachecap._LAYERS
    assert set(layers) == {path.stem for path in SOURCES} - {"__init__", "__main__", "cli"}
    late = []
    for i, layer in enumerate(layers):
        path = REPO_ROOT / "src" / "cachecap" / f"{layer}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module not in layers[:i]:
                late.append(f"{layer}:{node.lineno}: .{node.module}")
    assert late == []
