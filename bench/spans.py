"""Span tracing from outside the program.

``Tracer.install()`` replaces every public (``__all__``) function of the
cachecap layer modules with a timing wrapper, at every cachecap module
attribute that refers to it, so calls from one layer into another are
caught too (``cachecap.capacity.effective_catalog`` is ``model``'s
function, called from ``capacity``). ``Tracer.uninstall()`` puts the
originals back. Spans live in memory until ``dump``.

A span is ``[name, start, end, parent, job, extra]``: ``name`` is
``<layer>.<function>``, ``parent`` the index of the enclosing span or -1,
``job`` the benchmark job that made the call, and ``extra`` a count taken
from the call's result by an optional hook (solver iterations, bytes
written, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = ("model", "capacity", "oracle", "entropy", "traces", "cli")


def public_functions() -> dict[str, Callable]:
    """``<layer>.<name>`` -> function for every public function of every layer."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"cachecap.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = obj
    return found


def cachecap_modules() -> list:
    return [importlib.import_module("cachecap")] + [
        importlib.import_module(f"cachecap.{layer}") for layer in LAYERS
    ]


class Tracer:
    def __init__(self, hooks: dict[str, Callable] | None = None) -> None:
        self.spans: list[list] = []
        self.job: str | None = None
        self._hooks = hooks or {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        traced.__bench_traced__ = True
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions().items()}
        for mod in cachecap_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "job", "extra"], "spans": self.spans})
        )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarise(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds, self seconds and summed extras."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0}
    )
    for span, self_s in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
        if span[5] is not None:
            row["extra"] += span[5]
    return dict(table)
