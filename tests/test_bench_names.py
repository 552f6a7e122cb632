"""The names the benchmark scripts use must exist in the package.

The benchmark under ``bench/`` calls the package by attribute (``cc.<name>``,
``cachecap.<name>``) and hooks functions by ``"<layer>.<func>"`` keys in
``bench/run.py``'s ``HOOKS``. Reading those files as text here makes a
deletion that would break the benchmark fail this suite instead.
"""

import ast
import importlib
import re

import cachecap
import cachecap.cli  # the benchmark imports it as well

from conftest import REPO_ROOT

BENCH_FILES = sorted((REPO_ROOT / "bench").glob("*.py"))
REFERENCE = re.compile(r"\b(?:cc|cachecap)((?:\.[A-Za-z_]\w*)+)")


def bench_references() -> set[str]:
    """Every dotted ``cc.``/``cachecap.`` attribute chain in the bench scripts."""
    return {m.group(1)[1:] for path in BENCH_FILES for m in REFERENCE.finditer(path.read_text())}


def hook_keys() -> list[str]:
    tree = ast.parse((REPO_ROOT / "bench" / "run.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("bench/run.py defines no HOOKS")


def test_every_package_name_the_benchmark_uses_resolves():
    refs = bench_references()
    assert {"load_scenario", "scenario_digest", "analyze_network", "cli.main"} <= refs
    for ref in sorted(refs):
        obj = cachecap
        for part in ref.split("."):
            assert hasattr(obj, part), f"bench/ uses cachecap.{ref}, which does not resolve"
            obj = getattr(obj, part)


def test_every_hooked_function_is_public_in_its_layer():
    keys = hook_keys()
    assert "capacity.solve_characteristic_full" in keys
    for key in keys:
        layer, func = key.split(".")
        module = importlib.import_module(f"cachecap.{layer}")
        assert callable(getattr(module, func)), key
        assert func in module.__all__, key
