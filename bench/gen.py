"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, outdir)`` writes every input file a workload
hands to the program, plus ``expected.json`` with the reference values the
output checks compare against. The same (workload, seed) always gives
byte-identical files. The program under test is never imported here: the
reference traces come from an independent numpy implementation of
SplitMix64 and inverse-transform sampling that reproduces the documented
trace contract (one draw per symbol, ids in sorted order for i.i.d.,
states in given order for Markov chains).

Run as a script to generate into a directory:

    python bench/gen.py <workload> <seed> <outdir>

The benchmark runs it in a child process so the reference arrays never
count towards the benchmark process's peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

# Generator parameters. The workload "why" lines in BENCHMARK.json and the
# table in bench/README.md summarise them.
PARAMS = {
    "cli-verbs": {
        "alphabet": 16,
        "trace_symbols": 100_000,
        "trace_order": 1,
        "gen_trace_n": 100_000,
        "oracle_tmax": 5000,
        "node_count_max": 1000,
        "node_time_max": 8,
    },
    "big-network": {
        "nodes": 2000,
        "classes": 64,
        "count_log10_max": 7,
        "stores": [1, 6],
        "links": 20_000,
        "random_link_times": [2, 20],
        "restricted_share": 0.3,
        "queries": 300,
        "oracle_tmax": 2000,
    },
    "long-trace": {
        "alphabet": 16,
        "symbols": 1_000_000,
        "orders": [0, 1, 2, 3],
        "windows": 100,
        "window_symbols": 5000,
        "node_count_max": 1000,
        "node_time_max": 8,
    },
}

# Confirm later speed claims on this seed; do not tune against it.
HELD_OUT_SEED = 7919

TRACE_HEADER = "#cachecap-trace v1"
_GAMMA = 0x9E3779B97F4A7C15
# Seed-independent order of the i.i.d. masses over class ids, so that the
# cost of the inverse-transform scan does not swing with the seed.
_MASS_RANK = [11, 3, 14, 0, 8, 5, 12, 1, 9, 15, 6, 2, 10, 4, 13, 7]
_JITTER = 0.1


def class_ids(k: int) -> list[str]:
    return [f"c{i:02d}" for i in range(k)]


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _normalise(weights: list[float]) -> list[float]:
    total = math.fsum(weights)
    return [w / total for w in weights]


def skewed_masses(rng: random.Random, k: int) -> list[float]:
    """Zipf(1) masses with +-10% seeded jitter, placed by ``_MASS_RANK``."""
    return _normalise(
        [(1.0 / (1 + _MASS_RANK[i])) * rng.uniform(1 - _JITTER, 1 + _JITTER) for i in range(k)]
    )


def markov_rows(rng: random.Random, k: int) -> list[list[float]]:
    """Dense, hence irreducible, chain: row i favours states i+1, i+2, ..."""
    rows = []
    for i in range(k):
        weights = [0.0] * k
        for d in range(k):
            weights[(i + 1 + d) % k] = (1.0 / (1 + d) ** 1.5) * rng.uniform(1 - _JITTER, 1 + _JITTER)
        rows.append(_normalise(weights))
    return rows


def one_node_scenario(rng: random.Random, k: int, count_max: int, time_max: int) -> dict:
    """One node reading each of k classes through its own restricted self-link."""
    ids = class_ids(k)
    return {
        "classes": [
            {"id": cid, "count": max(1, round(10 ** rng.uniform(0, math.log10(count_max))))}
            for cid in ids
        ],
        "nodes": [{"id": "n", "stores": ids}],
        "links": [
            {"reader": "n", "provider": "n", "time": rng.randint(1, time_max), "classes": [cid]}
            for cid in ids
        ],
    }


def big_network(rng: random.Random, p: dict) -> dict:
    cids = [f"k{i:02d}" for i in range(p["classes"])]
    classes = [
        {"id": cid, "count": max(1, round(10 ** rng.uniform(0, p["count_log10_max"])))}
        for cid in cids
    ]
    nids = [f"n{i:04d}" for i in range(p["nodes"])]
    lo, hi = p["stores"]
    stores = {nid: sorted(rng.sample(cids, rng.randint(lo, hi))) for nid in nids}
    links: list[dict] = [{"reader": nid, "provider": nid, "time": 1} for nid in nids]
    t_lo, t_hi = p["random_link_times"]
    while len(links) < p["links"]:
        reader, provider = rng.choice(nids), rng.choice(nids)
        if reader == provider:
            continue
        link = {"reader": reader, "provider": provider, "time": rng.randint(t_lo, t_hi)}
        if rng.random() < p["restricted_share"]:
            held = stores[provider]
            link["classes"] = sorted(rng.sample(held, rng.randint(1, len(held))))
        links.append(link)
    return {
        "classes": classes,
        "nodes": [{"id": nid, "stores": stores[nid]} for nid in nids],
        "links": links,
    }


def reference_catalogs(doc: dict) -> dict[str, dict[str, float]]:
    """Minimal read time per reachable class for every node, in one pass over the links."""
    stores = {n["id"]: n["stores"] for n in doc["nodes"]}
    best: dict[str, dict[str, float]] = {nid: {} for nid in stores}
    for link in doc["links"]:
        row = best[link["reader"]]
        t = float(link["time"])
        for cid in link.get("classes") or stores[link["provider"]]:
            if t < row.get(cid, math.inf):
                row[cid] = t
    return best


# --- reference sampler (numpy) ------------------------------------------------


def splitmix_floats(seed: int, n: int):
    """The first n SplitMix64 doubles of ``seed``, vectorised in uint64."""
    import numpy as np

    state = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(seed & (2**64 - 1))
    z = state
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1F4EE2B5)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _pick_all(masses: list[float], u):
    """Inverse transform with left-to-right accumulation and top-slack fallback."""
    import numpy as np

    cum = np.cumsum(np.asarray(masses, dtype=np.float64))
    idx = np.searchsorted(cum, u, side="right")
    last = max(i for i, m in enumerate(masses) if m > 0.0)
    idx[idx >= len(masses)] = last
    return idx


def iid_indices(masses: list[float], n: int, seed: int):
    """Symbol indices of ``sample_iid`` over ids already in sorted order."""
    return _pick_all(masses, splitmix_floats(seed, n))


def markov_indices(rows: list[list[float]], initial: list[float], n: int, seed: int):
    """Symbol indices of ``sample_markov``: draw i picks from the row of symbol i-1."""
    import numpy as np

    u = splitmix_floats(seed, n)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # next_state[s][i] is where state s moves on draw i; the walk then only indexes.
    next_state = [_pick_all(row, u).astype(np.uint8).tobytes() for row in rows]
    walk = bytearray(n)
    x = int(_pick_all(initial, u[:1])[0])
    walk[0] = x
    for i in range(1, n):
        x = next_state[x][i]
        walk[i] = x
    return np.frombuffer(bytes(walk), dtype=np.uint8).astype(np.int64)


def trace_bytes(ids: list[str], indices) -> bytes:
    """File bytes ``write_trace`` produces for these symbols."""
    return ("\n".join([TRACE_HEADER, *(ids[i] for i in indices.tolist())]) + "\n").encode()


def stationary(rows: list[list[float]]) -> list[float]:
    """Stationary distribution by power iteration (independent of the program's solve)."""
    import numpy as np

    p = np.asarray(rows, dtype=np.float64)
    pi = np.full(len(rows), 1.0 / len(rows))
    for _ in range(10_000):
        nxt = pi @ p
        if np.abs(nxt - pi).max() < 1e-16:
            break
        pi = nxt
    return (pi / pi.sum()).tolist()


def entropy_rate(rows: list[list[float]]) -> float:
    """Class-level entropy rate of a stationary chain, in bits per symbol."""
    pi = stationary(rows)
    return -math.fsum(
        pi[i] * p * math.log2(p) for i, row in enumerate(rows) for p in row if p > 0.0
    )


def plug_in_estimate(indices, k: int, order: int) -> float:
    """Plug-in block entropy difference at ``order``, clamped like the program's."""
    import numpy as np

    def block_entropy(m: int) -> float:
        n_blocks = len(indices) - m + 1
        codes = np.zeros(n_blocks, dtype=np.int64)
        for j in range(m):
            codes = codes * k + indices[j : j + n_blocks]
        counts = np.bincount(codes)
        p = counts[counts > 0] / n_blocks
        return -math.fsum((p * np.log2(p)).tolist())

    alphabet = len(np.unique(indices))
    raw = block_entropy(1) if order == 0 else block_entropy(order + 1) - block_entropy(order)
    bound = math.log2(alphabet) if alphabet > 1 else 0.0
    return min(max(raw, 0.0), bound)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- per-workload generation ---------------------------------------------------


def _gen_cli_verbs(seed: int, out: Path, p: dict) -> dict:
    k = p["alphabet"]
    ids = class_ids(k)
    _write_json(
        out / "onenode.json",
        one_node_scenario(_rng("cli-verbs", seed, "node"), k, p["node_count_max"], p["node_time_max"]),
    )
    rng = _rng("cli-verbs", seed, "trace")
    rows = markov_rows(rng, k)
    walk = markov_indices(rows, [1.0 / k] * k, p["trace_symbols"], rng.getrandbits(32))
    (out / "access.trace").write_bytes(trace_bytes(ids, walk))

    rng = _rng("cli-verbs", seed, "gen-trace")
    masses = skewed_masses(rng, k)
    gen_seed = rng.getrandbits(32)
    _write_json(out / "source.json", {"type": "iid", "class_mass": dict(zip(ids, masses))})
    return {
        "trace_entropy": plug_in_estimate(walk, k, p["trace_order"]),
        "gen_trace_seed": gen_seed,
        "gen_trace_sha256": sha256_hex(trace_bytes(ids, iid_indices(masses, p["gen_trace_n"], gen_seed))),
    }


def _gen_big_network(seed: int, out: Path, p: dict) -> dict:
    doc = big_network(_rng("big-network", seed, "network"), p)
    _write_json(out / "network.json", doc)
    catalogs = reference_catalogs(doc)
    counts = {c["id"]: c["count"] for c in doc["classes"]}
    # Zero-capacity nodes (a single reachable file) have no optimal distribution.
    eligible = [nid for nid, row in catalogs.items() if sum(counts[c] for c in row) > 1]
    queries = _rng("big-network", seed, "queries").sample(eligible, p["queries"])
    oracle_node = min(catalogs, key=lambda nid: (-len(catalogs[nid]), nid))
    return {"queries": queries, "oracle_node": oracle_node}


def _gen_long_trace(seed: int, out: Path, p: dict) -> dict:
    import numpy as np

    k, n = p["alphabet"], p["symbols"]
    ids = class_ids(k)
    _write_json(
        out / "onenode.json",
        one_node_scenario(_rng("long-trace", seed, "node"), k, p["node_count_max"], p["node_time_max"]),
    )
    rng = _rng("long-trace", seed, "iid")
    masses = skewed_masses(rng, k)
    iid_seed = rng.getrandbits(32)
    _write_json(out / "iid.json", {"type": "iid", "class_mass": dict(zip(ids, masses))})
    iid = iid_indices(masses, n, iid_seed)

    rng = _rng("long-trace", seed, "markov")
    rows = markov_rows(rng, k)
    initial = [1.0 / k] * k
    markov_seed = rng.getrandbits(32)
    _write_json(
        out / "markov.json",
        {"type": "markov", "states": ids, "transitions": rows, "initial": initial},
    )
    walk = markov_indices(rows, initial, n, markov_seed)

    size = p["window_symbols"]
    window_entropy = []
    for w in range(p["windows"]):
        part = walk[w * size : (w + 1) * size]
        (out / f"window-{w:03d}.trace").write_bytes(trace_bytes(ids, part))
        window_entropy.append(plug_in_estimate(part, k, 1))
    iid_counts = np.bincount(iid, minlength=k).tolist()
    return {
        "symbols": n,
        "iid_seed": iid_seed,
        "markov_seed": markov_seed,
        "iid_sha256": sha256_hex(trace_bytes(ids, iid)),
        "markov_sha256": sha256_hex(trace_bytes(ids, walk)),
        "iid_counts": dict(zip(ids, iid_counts)),
        "entropy_rate": entropy_rate(rows),
        "window_entropy": window_entropy,
    }


_GENERATORS = {
    "cli-verbs": _gen_cli_verbs,
    "big-network": _gen_big_network,
    "long-trace": _gen_long_trace,
}


def generate(workload: str, seed: int, outdir: str | Path) -> dict:
    """Write the workload's inputs and ``expected.json`` into ``outdir``; return the latter."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    expected = _GENERATORS[workload](seed, out, PARAMS[workload])
    _write_json(out / "expected.json", expected)
    return expected


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in _GENERATORS:
        sys.exit(f"usage: gen.py {{{','.join(_GENERATORS)}}} <seed> <outdir>")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
