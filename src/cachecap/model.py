"""Caching-network model: file classes, nodes, links, and per-node read times.

A network is a set of nodes, each storing some file classes, connected by
directed read links. A link ``reader <- provider`` with time ``t`` means the
reader can fetch any covered file from the provider at ``t`` time units per
file. Absence of a link means the provider is unreachable (infinite time).

Files are grouped into *classes* of interchangeable files that share a storage
location and a read time. A class with ``count = 10**7`` stands for ten
million distinct files without enumerating them; every downstream formula
sums ``count * term`` over classes instead of iterating files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = [
    "ScenarioError",
    "FileClass",
    "Node",
    "Link",
    "Network",
    "CatalogEntry",
    "EffectiveCatalog",
    "build_network",
    "load_scenario",
    "read_scenario",
    "scenario_digest",
    "effective_catalog",
    "task_time",
]


class ScenarioError(ValueError):
    """Raised when a scenario document violates the schema or its invariants."""


@dataclass(frozen=True)
class FileClass:
    """A group of ``count`` interchangeable files identified by ``id``."""

    id: str
    count: int


@dataclass(frozen=True)
class Node:
    id: str
    stores: frozenset[str]


@dataclass(frozen=True)
class Link:
    """Directed read link: ``reader`` fetches files from ``provider``.

    ``time`` is in time units per file. ``classes`` restricts the link to a
    subset of the provider's stored classes; ``None`` covers everything the
    provider stores.
    """

    reader: str
    provider: str
    time: float
    classes: frozenset[str] | None = None


@dataclass(frozen=True)
class Network:
    classes: tuple[FileClass, ...]
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]

    def class_counts(self) -> dict[str, int]:
        return {fc.id: fc.count for fc in self.classes}

    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise ScenarioError(f"unknown node '{node_id}'")


@dataclass(frozen=True)
class CatalogEntry:
    """Cheapest way to read one class: minimal time and the provider achieving it."""

    min_time: float
    provider: str


@dataclass(frozen=True)
class EffectiveCatalog:
    """Per-node map from reachable class id to its minimal read time.

    Classes with no finite-time provider are omitted entirely; the provider
    field is diagnostic (ties go to the lexicographically smallest provider).
    """

    node: str
    entries: Mapping[str, CatalogEntry] = field(default_factory=dict)

    def min_times(self) -> dict[str, float]:
        return {cid: e.min_time for cid, e in self.entries.items()}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _as_id(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{what} must be a string, got {value!r}")
    return value


def _as_count(value: object, what: str) -> int:
    if isinstance(value, bool):
        raise ScenarioError(f"{what}: count must be an integer, got boolean")
    if isinstance(value, float):
        if not value.is_integer():
            raise ScenarioError(f"{what}: count must be an integer, got {value}")
        value = int(value)
    if not isinstance(value, int):
        raise ScenarioError(f"{what}: count must be an integer")
    if value < 1:
        raise ScenarioError(f"{what}: non-positive count {value}")
    return value


def _as_time(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what}: time must be a number")
    t = float(value)
    if not math.isfinite(t):
        raise ScenarioError(f"{what}: non-finite time {value}")
    if t <= 0:
        raise ScenarioError(f"{what}: non-positive time {value}")
    return t


def build_network(doc: Mapping) -> Network:
    """Validate a parsed scenario document and build an immutable Network.

    The document holds three arrays: ``classes`` ({id, count}), ``nodes``
    ({id, stores}) and ``links`` ({reader, provider, time, classes?}).
    Every referential-integrity violation is rejected with a message naming
    the offending entity.
    """
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    for key in ("classes", "nodes", "links"):
        _require(isinstance(doc.get(key, []), list), f"'{key}' must be an array")

    classes: list[FileClass] = []
    seen_classes: set[str] = set()
    for raw in doc.get("classes", []):
        _require(isinstance(raw, Mapping) and "id" in raw, "class entry missing 'id'")
        cid = _as_id(raw["id"], "class id")
        _require(cid not in seen_classes, f"duplicate class id '{cid}'")
        seen_classes.add(cid)
        classes.append(FileClass(id=cid, count=_as_count(raw.get("count", 1), f"class '{cid}'")))

    nodes: list[Node] = []
    seen_nodes: set[str] = set()
    for raw in doc.get("nodes", []):
        _require(isinstance(raw, Mapping) and "id" in raw, "node entry missing 'id'")
        nid = _as_id(raw["id"], "node id")
        _require(nid not in seen_nodes, f"duplicate node id '{nid}'")
        seen_nodes.add(nid)
        stores = raw.get("stores", [])
        _require(isinstance(stores, list), f"node '{nid}': 'stores' must be an array")
        for cid in stores:
            _as_id(cid, f"node '{nid}': stored class id")
            _require(cid in seen_classes, f"node '{nid}' stores unknown class '{cid}'")
        nodes.append(Node(id=nid, stores=frozenset(stores)))

    stores_by_node = {n.id: n.stores for n in nodes}
    links: list[Link] = []
    for raw in doc.get("links", []):
        _require(isinstance(raw, Mapping), "link entry must be an object")
        for key in ("reader", "provider", "time"):
            _require(key in raw, f"link entry missing '{key}'")
        reader = _as_id(raw["reader"], "link reader")
        provider = _as_id(raw["provider"], "link provider")
        label = f"link {reader}->{provider}"
        _require(reader in seen_nodes, f"{label}: unknown reader '{reader}'")
        _require(provider in seen_nodes, f"{label}: unknown provider '{provider}'")
        time = _as_time(raw["time"], label)
        subset: frozenset[str] | None = None
        if raw.get("classes") is not None:
            _require(isinstance(raw["classes"], list), f"{label}: 'classes' must be an array")
            listed = frozenset(_as_id(c, f"{label}: class id") for c in raw["classes"])
            for cid in sorted(listed):
                _require(
                    cid in stores_by_node[provider],
                    f"{label}: class '{cid}' is not stored by provider '{provider}'",
                )
            subset = listed
        links.append(Link(reader=reader, provider=provider, time=time, classes=subset))

    return Network(classes=tuple(classes), nodes=tuple(nodes), links=tuple(links))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            _require(key not in seen, f"duplicate key '{key}'")
            seen.add(key)
    return doc


def parse_json(text: str, what: str) -> object:
    """Parse JSON text, rejecting duplicate object keys; errors name ``what``."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, ScenarioError) as exc:
        raise ScenarioError(f"invalid JSON in {what}: {exc}") from exc


def _parse_scenario(data: bytes, path: str | Path) -> Network:
    return build_network(parse_json(data.decode("utf-8"), str(path)))


def load_scenario(path: str | Path) -> Network:
    """Read a UTF-8 scenario JSON file and build the Network."""
    return _parse_scenario(Path(path).read_bytes(), path)


def read_scenario(path: str | Path) -> tuple[Network, str]:
    """The Network in a scenario file and the SHA-256 hex digest of its bytes.

    The file is read once, so the digest describes exactly the bytes parsed.
    """
    data = Path(path).read_bytes()
    return _parse_scenario(data, path), hashlib.sha256(data).hexdigest()


def scenario_digest(path: str | Path) -> str:
    """SHA-256 hex digest of the raw scenario file bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def effective_catalog(net: Network, node_id: str) -> EffectiveCatalog:
    """Minimal read time per class for ``node_id``, minimized over all providers.

    A class appears iff at least one link makes it reachable in finite time.
    On equal times the lexicographically smallest provider id is reported.
    """
    net.node(node_id)  # raises on unknown id
    stores_by_node = {n.id: n.stores for n in net.nodes}
    best: dict[str, CatalogEntry] = {}
    for link in net.links:
        if link.reader != node_id:
            continue
        covered = link.classes if link.classes is not None else stores_by_node[link.provider]
        for cid in covered:
            cur = best.get(cid)
            if (
                cur is None
                or link.time < cur.min_time
                or (link.time == cur.min_time and link.provider < cur.provider)
            ):
                best[cid] = CatalogEntry(min_time=link.time, provider=link.provider)
    return EffectiveCatalog(node=node_id, entries=best)


def task_time(catalog: EffectiveCatalog, task: Sequence[str] | Iterable[str]) -> float:
    """Execution time of a task: sum of the minimal read times of its files."""
    total = 0.0
    for cid in task:
        entry = catalog.entries.get(cid)
        if entry is None:
            raise ScenarioError(f"class '{cid}' is unreachable at node '{catalog.node}'")
        total += entry.min_time
    return total
