"""Same numbers on a large network: one SHA-256 per ``big-network`` seed, pinned.

For each pinned seed, ``bench/gen.py`` (read-only; it imports the stdlib
alone for this workload) writes the seeded 2,000-node network, its 300 query
nodes and its oracle node. The digest covers, each as its ``repr``, one per
line:

- every ``NodeCapacity`` of ``analyze_network``, in node-id order, then the
  network total;
- for each query node, in the generator's order, ``optimal_distribution``
  and ``entropy_efficiency`` under the i.i.d. source of that distribution,
  which are the benchmark's query;
- the oracle node's ``convergence_report(...).series()`` at the workload's
  ``oracle_tmax``, from the solver's root.

So a change that moves any of these in its last bit moves a digest. The
script needs no pytest, so any interpreter the package supports can check
its own digests against the pins, writing nothing; it prints the seeds
whose digest moved and exits 1 if any did::

    python3.12 tests/test_network_digest.py --check

With no argument it prints ``<seed> <digest>`` for each pinned seed. A
caller that puts another tree's ``src`` first on ``sys.path`` and imports
this module gets that tree's digests from ``digests()``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(REPO_ROOT / "src")]

import cachecap as cc  # noqa: E402

PINS = {
    11: "5bfb3594652b838914e7c9d063088f508c0dd6f8cbcc79ca47f3c7397ca4e7e6",
    7919: "51328a45d7c1db8960c6f206b49453984783387f04b1a6dfcd15c11601f6a29e",
}


def _load_gen():
    spec = importlib.util.spec_from_file_location("_bench_gen", REPO_ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def network_digest(seed: int) -> str:
    """The SHA-256 of the ``big-network`` answers at ``seed``, as the module docstring lists them."""
    gen = _load_gen()
    with tempfile.TemporaryDirectory() as tmp:
        expected = gen.generate("big-network", seed, tmp)
        net = cc.load_scenario(Path(tmp) / "network.json")
    lines = []
    batch = cc.analyze_network(net)
    lines += [repr(batch.per_node[nid]) for nid in sorted(batch.per_node)]
    lines.append(repr(batch.network_capacity))
    for nid in expected["queries"]:
        dist = cc.optimal_distribution(net, nid)
        lines.append(repr(dist))
        lines.append(repr(cc.entropy_efficiency(net, nid, cc.IIDSource(class_mass=dist.class_mass))))
    node = expected["oracle_node"]
    q = cc.quantize_node(net, node)
    tmax = gen.PARAMS["big-network"]["oracle_tmax"]
    lines.append(repr(cc.convergence_report(q, tmax, batch.per_node[node].x0).series()))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def digests() -> dict[int, str]:
    """Each pinned seed's digest, as this interpreter and the imported package compute it."""
    return {seed: network_digest(seed) for seed in PINS}


def test_each_seed_gives_the_pinned_digest():
    got = digests()
    assert got == PINS, json.dumps({"pinned": PINS, "got": got}, indent=1)


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    got = digests()
    if sys.argv[1:] == ["--check"]:
        moved = [seed for seed, digest in got.items() if digest != PINS[seed]]
        print(f"Python {sys.version.split()[0]}: {len(moved)} of {len(got)} seeds moved")
        print("\n".join(f"{seed} {got[seed]}" for seed in moved), end="\n" if moved else "")
        sys.exit(1 if moved else 0)
    print("\n".join(f"{seed} {digest}" for seed, digest in got.items()))
