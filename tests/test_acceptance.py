"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every tolerance here is part of the release contract; do not loosen.
"""

import math
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from cachecap import (
    IIDSource,
    MarkovSource,
    block_entropy_estimate,
    entropy_efficiency,
    load_scenario,
    network_capacity,
    node_capacity,
    node_solution,
    optimal_distribution,
    sample_iid,
)
from cachecap.oracle import QuantizedCatalog, count_series

from conftest import (
    CLI_FIXTURES,
    FIXTURE_DIR,
    REPO_ROOT,
    enumerate_count,
    scale_times,
    scenario_path,
    single_node_network,
)


def verdict(num: int, description: str, started: float) -> None:
    print(f"PASS criterion {num}: {description} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_two_node_golden():
    started = time.perf_counter()
    net = load_scenario(scenario_path("fig1.json"))
    solve = node_solution(net, "w2")
    assert solve.x0 == pytest.approx(10.01, abs=0.01)
    assert node_capacity(net, "w2") == pytest.approx(3.324, abs=0.001)
    assert node_capacity(net, "w1") == 0.0
    assert network_capacity(net) == pytest.approx(3.324, abs=0.001)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(1, "two-node golden scenario (x0=10.01, C=3.324)", started)


def test_criterion_2_three_node_golden():
    started = time.perf_counter()
    net = load_scenario(scenario_path("fig2.json"))
    assert node_capacity(net, "w2") == pytest.approx(3.449, abs=0.002)
    assert node_capacity(net, "w3") == pytest.approx(3.449, abs=0.002)
    assert network_capacity(net) == pytest.approx(6.898, abs=0.002)
    shared = load_scenario(scenario_path("fig2-shared.json"))
    assert node_capacity(shared, "w2") == pytest.approx(3.324, abs=0.001)
    assert node_capacity(shared, "w3") == pytest.approx(3.324, abs=0.001)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(2, "three-node golden scenario incl. shared-content variant", started)


def test_criterion_3_oracle_consistency():
    started = time.perf_counter()
    q = QuantizedCatalog(int_times=((2, 1), (1, 2)), grid=1.0)
    nu = count_series(q, 200)
    for total in range(0, 9):
        assert nu[total] == enumerate_count([1, 1, 2], total)
    assert nu[2] == 5 and nu[3] == 12
    target = math.log2(1 + math.sqrt(2))
    assert abs(math.log2(nu[60]) / 60 - target) < 0.02
    assert abs(math.log2(nu[200]) / 200 - target) < 0.005
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    verdict(3, "task-count oracle matches enumeration and converges to log2(1+sqrt(2))", started)


def test_criterion_4_optimality_property_suite():
    started = time.perf_counter()
    rng = random.Random(2024)
    catalogs = 0
    while catalogs < 500:
        n_classes = rng.randint(1, 6)
        counts = [1] * n_classes
        for _ in range(rng.randint(max(0, 2 - n_classes), 50 - n_classes)):
            counts[rng.randrange(n_classes)] += 1
        if sum(counts) < 2:
            continue
        times = [rng.uniform(0.1, 20.0) for _ in range(n_classes)]
        terms = list(zip(counts, times))
        net, node = single_node_network(terms)

        # equality at the optimal distribution, via the public API
        dist = optimal_distribution(net, node)
        result = entropy_efficiency(net, node, IIDSource(class_mass=dist.class_mass))
        cap = result.capacity_bits_per_time
        assert result.efficiency_bits_per_time == pytest.approx(cap, rel=1e-9)

        # 1000 random i.i.d. class distributions never beat the capacity
        counts_arr = np.array(counts, dtype=float)
        times_arr = np.array(times)
        masses = np.random.default_rng(rng.getrandbits(63)).random((1000, n_classes))
        masses /= masses.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(masses > 0, np.log2(np.where(masses > 0, masses, 1.0)), 0.0)
        h = -(masses * (logs - np.log2(counts_arr))).sum(axis=1)
        mean_t = masses @ times_arr
        eff = h / mean_t
        assert (eff <= cap + 1e-9).all()
        catalogs += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    verdict(4, "500 random catalogs: optimum attains capacity, 1000 i.i.d. rivals never beat it", started)


def test_criterion_4_vectorized_efficiency_matches_library():
    # the vectorized formula above stands in for 500k library calls;
    # pin it to the public function on a spot sample
    rng = random.Random(5)
    for _ in range(20):
        terms = [(rng.randint(1, 9), rng.uniform(0.1, 20.0)) for _ in range(rng.randint(1, 4))]
        if sum(c for c, _ in terms) < 2:
            continue
        net, node = single_node_network(terms)
        raw = [rng.random() for _ in terms]
        total = sum(raw)
        mass = {f"c{i}": w / total for i, w in enumerate(raw)}
        result = entropy_efficiency(net, node, IIDSource(class_mass=mass))
        m = np.array([mass[f"c{i}"] for i in range(len(terms))])
        h = -(m * (np.log2(m) - np.log2([c for c, _ in terms]))).sum()
        eff = h / (m @ np.array([t for _, t in terms]))
        assert eff == pytest.approx(result.efficiency_bits_per_time, rel=1e-12)


def test_criterion_5_time_scaling_law():
    started = time.perf_counter()
    for name in ("fig1.json", "fig2.json", "fig2-shared.json", "three-file.json"):
        net = load_scenario(scenario_path(name))
        base_nodes = {n.id: node_capacity(net, n.id) for n in net.nodes}
        base_total = network_capacity(net)
        for s in (0.5, 2.0, 3.7):
            scaled = scale_times(net, s)
            for nid, cap in base_nodes.items():
                assert node_capacity(scaled, nid) == pytest.approx(cap / s, rel=1e-9, abs=1e-15)
            assert network_capacity(scaled) == pytest.approx(base_total / s, rel=1e-9, abs=1e-15)
    verdict(5, "times scaled by s rescale every capacity by 1/s (1e-9 relative)", started)


def test_criterion_6_entropy_estimators():
    started = time.perf_counter()
    flip = MarkovSource(states=("a", "b"), transitions=((0.75, 0.25), (0.25, 0.75)))
    assert flip.entropy({}).value == pytest.approx(0.811278, abs=1e-6)

    trace = sample_iid({"0": 0.5, "1": 0.5}, 10**5, seed=7)
    assert block_entropy_estimate(trace, 0).value == pytest.approx(1.0, abs=0.01)

    cycle = MarkovSource(states=("a", "b"), transitions=((0.0, 1.0), (1.0, 0.0)))
    assert cycle.entropy({}).value == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    verdict(6, "entropy estimators (Markov rate, plug-in h0, deterministic cycle)", started)


_DIGEST_RE = re.compile(r'"digest": "[0-9a-f]{64}"')

_ERROR_RUNS = [
    (["capacity", "scenarios/bad-time.json"], 1),
    (["optimal", "scenarios/fig1.json", "w1"], 1),
    (["oracle", "scenarios/offgrid.json", "n", "--grid", "1"], 1),
]


def test_criterion_7_cli_fixtures():
    started = time.perf_counter()
    for fixture, args in CLI_FIXTURES:
        expected = (FIXTURE_DIR / fixture).read_text(encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "cachecap", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        masked_actual = _DIGEST_RE.sub('"digest": "_"', proc.stdout)
        masked_expected = _DIGEST_RE.sub('"digest": "_"', expected)
        assert masked_actual == masked_expected, f"fixture drift: {fixture}"
    for args, expected_code in _ERROR_RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "cachecap", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == expected_code, (args, proc.returncode, proc.stderr)
        assert proc.stderr.strip()  # failure is reported, never silent
    verdict(7, "CLI JSON fixtures byte-exact (modulo digest) and error exit codes conform", started)
