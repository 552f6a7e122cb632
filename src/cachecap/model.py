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

import gc
import json
import math
import sys
from collections.abc import Iterable, Mapping
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

__all__ = [
    "ScenarioError",
    "FileClass",
    "Node",
    "Link",
    "Network",
    "EffectiveCatalog",
    "build_network",
    "load_scenario",
    "read_scenario",
    "scenario_digest",
    "effective_catalog",
]


class ScenarioError(ValueError):
    """Raised when a scenario document violates the schema or its invariants."""


class FileClass(NamedTuple):
    """A group of ``count`` interchangeable files identified by ``id``."""

    id: str
    count: int


class Node(NamedTuple):
    id: str
    stores: frozenset[str]


class Link(NamedTuple):
    """Directed read link: ``reader`` fetches files from ``provider``.

    ``time`` is in time units per file. ``classes`` restricts the link to a
    subset of the provider's stored classes; ``None`` covers everything the
    provider stores.
    """

    reader: str
    provider: str
    time: float
    classes: frozenset[str] | None = None


class _NetworkFields(NamedTuple):
    classes: tuple[FileClass, ...]
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]


class Network(_NetworkFields):
    """Classes, nodes and links; lookup indexes are built once, on first use.

    Each node's catalog and solved characteristic equation are kept here too,
    once computed (``effective_catalog``, ``capacity.node_solution``), so they
    live and die with the network, in the ``__dict__`` that leaving out
    ``__slots__`` gives each instance.
    """

    @cached_property
    def _counts(self) -> Mapping[str, int]:
        """Class id to file count, read-only so catalogs can share it."""
        return MappingProxyType({fc.id: fc.count for fc in self.classes})

    @cached_property
    def _nodes_by_id(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _links_by_reader(self) -> dict[str, list[Link]]:
        grouped: dict[str, list[Link]] = {}
        for link in self.links:
            grouped.setdefault(link.reader, []).append(link)
        return grouped

    @cached_property
    def _catalogs(self) -> dict[str, EffectiveCatalog]:
        """Node id to its catalog, filled by ``effective_catalog``."""
        return {}

    @cached_property
    def _solutions(self) -> dict:
        """Node id to its ``NodeCapacity``, filled by ``capacity.node_solution``."""
        return {}

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes_by_id[node_id]
        except KeyError:
            raise ScenarioError(f"unknown node '{node_id}'") from None


class EffectiveCatalog(NamedTuple):
    """Per-node map from reachable class id to its minimal read time.

    Classes with no finite-time provider are omitted entirely. ``entries`` is
    read-only and comes in class-id order, which fixes the order of every sum
    and every report over the catalog. ``counts`` is the network's read-only
    class-id-to-file-count map. ``kinds``, derived from both on every read,
    groups the classes into memory kinds by read time.
    """

    entries: Mapping[str, float]
    counts: Mapping[str, int]

    @property
    def kinds(self) -> dict[float, int]:
        """Read time to its classes' total file count, in order of each time's first class."""
        kinds: dict[float, int] = {}
        for cid, time in self.entries.items():
            kinds[time] = kinds.get(time, 0) + self.counts[cid]
        return kinds


# The largest int that converts to a finite float; a time above it overflows.
_MAX_FLOAT_INT = int(sys.float_info.max)


def _as_id(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{what} must be a string, got {value!r}")
    return value


def _entry_id(raw: object, kind: str, seen: Mapping[str, object]) -> str:
    if not ((type(raw) is dict or isinstance(raw, Mapping)) and "id" in raw):
        raise ScenarioError(f"{kind} entry missing 'id'")
    eid = raw["id"]
    if type(eid) is not str:
        eid = _as_id(eid, f"{kind} id")
    if not eid.isascii():
        try:
            eid.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which JSON's \u escapes can spell
            raise ScenarioError(f"{kind} id {eid!r} is not valid Unicode text") from None
    if eid in seen:
        raise ScenarioError(f"duplicate {kind} id '{eid}'")
    return eid


def _as_count(value: object, cid: str) -> int:
    if type(value) is int and value >= 1:
        return value
    if isinstance(value, bool):
        raise ScenarioError(f"class '{cid}': count must be an integer, got boolean")
    if isinstance(value, float):
        if not value.is_integer():
            raise ScenarioError(f"class '{cid}': count must be an integer, got {value}")
        value = int(value)
    if not isinstance(value, int):
        raise ScenarioError(f"class '{cid}': count must be an integer")
    if value < 1:
        raise ScenarioError(f"class '{cid}': non-positive count {value}")
    return value


def _as_time(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what}: time must be a number")
    try:
        t = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{what}: time is too large for a float") from None
    if not math.isfinite(t):
        raise ScenarioError(f"{what}: non-finite time {value}")
    if t <= 0:
        raise ScenarioError(f"{what}: non-positive time {value}")
    return t


def check_non_negative_int(value: object, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def build_network(doc: Mapping) -> Network:
    """Validate a parsed scenario document and build an immutable Network.

    The document holds three arrays: ``classes`` ({id, count}), ``nodes``
    ({id, stores}) and ``links`` ({reader, provider, time, classes?}).
    Every referential-integrity violation is rejected with a message naming
    the offending entity.

    Each value is first tested for the exact type JSON gives it (``dict``,
    ``str``, ``int``, ``float``); only a value that fails that test goes
    through the general check, which accepts any ``Mapping`` and any ``str``
    subclass and names what is wrong. Messages are formatted only on failure.

    Each id and each read time is kept once: every later mention of a class or
    node id binds the object its ``FileClass`` or ``Node`` holds, and links of
    one time share one float. A network has few distinct ids and times behind
    many links, so this keeps the network small, and lookups keyed by shared
    ids match by identity.
    """
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    for key in ("classes", "nodes", "links"):
        if not isinstance(doc.get(key, []), list):
            raise ScenarioError(f"'{key}' must be an array")

    classes: list[FileClass] = []
    seen_classes: dict[str, str] = {}  # each class id to the object its FileClass holds
    for raw in doc.get("classes", []):
        cid = _entry_id(raw, "class", seen_classes)
        seen_classes[cid] = cid
        classes.append(FileClass(cid, _as_count(raw.get("count", 1), cid)))

    nodes_by_id: dict[str, Node] = {}
    for raw in doc.get("nodes", []):
        nid = _entry_id(raw, "node", nodes_by_id)
        stores = raw.get("stores", [])
        if not isinstance(stores, list):
            raise ScenarioError(f"node '{nid}': 'stores' must be an array")
        for cid in stores:
            if type(cid) is not str:
                _as_id(cid, f"node '{nid}': stored class id")
            if cid not in seen_classes:
                raise ScenarioError(f"node '{nid}' stores unknown class '{cid}'")
        stored = frozenset(map(seen_classes.__getitem__, stores))
        if len(stored) != len(stores):
            raise ScenarioError(f"node '{nid}' stores class '{_first_repeat(stores)}' twice")
        nodes_by_id[nid] = Node(nid, stored)

    links: list[Link] = []
    times: dict[float, float] = {}  # each read time to the one float its links share
    for raw in doc.get("links", []):
        if type(raw) is not dict and not isinstance(raw, Mapping):
            raise ScenarioError("link entry must be an object")
        if not ("reader" in raw and "provider" in raw and "time" in raw):
            missing = next(key for key in ("reader", "provider", "time") if key not in raw)
            raise ScenarioError(f"link entry missing '{missing}'")
        reader = raw["reader"]
        if type(reader) is not str:
            reader = _as_id(reader, "link reader")
        provider = raw["provider"]
        if type(provider) is not str:
            provider = _as_id(provider, "link provider")
        reader_node = nodes_by_id.get(reader)
        if reader_node is None:
            raise ScenarioError(f"link {reader}->{provider}: unknown reader '{reader}'")
        provider_node = nodes_by_id.get(provider)
        if provider_node is None:
            raise ScenarioError(f"link {reader}->{provider}: unknown provider '{provider}'")
        time = raw["time"]
        if type(time) is int and 0 < time <= _MAX_FLOAT_INT:
            time = float(time)
        elif type(time) is not float or not 0.0 < time < math.inf:
            time = _as_time(time, f"link {reader}->{provider}")
        time = times.setdefault(time, time)
        subset = raw.get("classes")
        if subset is not None:
            subset = _link_classes(subset, provider_node.stores, seen_classes, reader, provider)
        links.append(Link(reader_node.id, provider_node.id, time, subset))

    return Network(classes=tuple(classes), nodes=tuple(nodes_by_id.values()), links=tuple(links))


def _link_classes(
    listed: object, stored: frozenset[str], ids: Mapping[str, str], reader: str, provider: str
) -> frozenset[str]:
    """A link's ``classes`` array as a set; each id must be one the provider stores.

    Each known id in the set is the object ``ids`` maps it to.
    """
    if not isinstance(listed, list):
        raise ScenarioError(f"link {reader}->{provider}: 'classes' must be an array")
    for cid in listed:
        if type(cid) is not str:
            _as_id(cid, f"link {reader}->{provider}: class id")
    subset = frozenset(map(ids.get, listed, listed))
    if len(subset) != len(listed):
        cid = _first_repeat(listed)
        raise ScenarioError(f"link {reader}->{provider}: class '{cid}' listed twice")
    if not subset <= stored:
        cid = min(subset - stored)  # the first in sorted order: the array's order does not matter
        raise ScenarioError(
            f"link {reader}->{provider}: class '{cid}' is not stored by provider '{provider}'"
        )
    return subset


def _first_repeat(ids: Iterable[str]) -> str:
    """The first id, in order, that already came before. Each caller calls this
    only once a length mismatch has shown that some id repeats."""
    seen: set[str] = set()
    for cid in ids:
        if cid in seen:
            return cid
        seen.add(cid)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ScenarioError(f"duplicate key '{_first_repeat(key for key, _ in pairs)}'")
    return doc


def parse_json(data: bytes, what: str) -> object:
    """Parse UTF-8 JSON bytes, rejecting duplicate object keys; errors name ``what``,
    an integer literal past ``int``'s 4,300-digit limit on text included."""
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"invalid JSON in {what}: {exc}") from exc


def _parse_scenario(data: bytes, path: str | Path) -> Network:
    """Parse and build with the cyclic collector paused, then restore the caller's setting.

    Nothing a parse or a build makes can form a reference cycle, so the
    collections that tens of thousands of new objects would set off find
    nothing to free. A collector the caller turned off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build_network(parse_json(data, str(path)))
    finally:
        if enabled:
            gc.enable()


def load_scenario(path: str | Path) -> Network:
    """Read a UTF-8 scenario JSON file and build the Network."""
    return _parse_scenario(Path(path).read_bytes(), path)


def read_scenario(path: str | Path) -> tuple[Network, str]:
    """The Network in a scenario file and the SHA-256 hex digest of its bytes.

    The file is read once, so the digest describes exactly the bytes parsed.
    """
    import hashlib  # here, not at the top: loading the scenario alone needs no digest

    data = Path(path).read_bytes()
    return _parse_scenario(data, path), hashlib.sha256(data).hexdigest()


def scenario_digest(path: str | Path) -> str:
    """SHA-256 hex digest of the raw scenario file bytes."""
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def effective_catalog(net: Network, node_id: str) -> EffectiveCatalog:
    """Minimal read time per class for ``node_id``, minimized over all providers.

    A class appears iff at least one link makes it reachable in finite time.
    The catalog is built on the first request and kept on ``net``; its
    ``entries`` are read-only, so every caller can share it. An unknown node
    raises on every request and is never kept.
    """
    catalog = net._catalogs.get(node_id)
    if catalog is not None:
        return catalog
    net.node(node_id)  # raises on unknown id
    nodes = net._nodes_by_id
    best: dict[str, float] = {}
    for link in net._links_by_reader.get(node_id, ()):
        covered = link.classes
        if covered is None:
            provider = nodes.get(link.provider)
            if provider is None:  # a hand-built Network can name a node it lacks
                provider = net.node(link.provider)  # raises
            covered = provider.stores
        for cid in covered:
            if link.time < best.get(cid, math.inf):
                best[cid] = link.time
    catalog = net._catalogs[node_id] = EffectiveCatalog(
        entries=MappingProxyType(dict(sorted(best.items()))), counts=net._counts
    )
    return catalog
