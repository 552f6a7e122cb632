"""Output checks. Each returns a list of (check name, passed) pairs.

Every reference is computed here or by gen.py, never taken from the
program: catalogs come from a single pass over the scenario's links,
trace bytes from the independent sampler in gen.py, entropy rates from a
power-iterated stationary distribution.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import gen

RESIDUAL_BOUND = 1e-9
MASS_TOL = 1e-9
RATE_SLACK = 1e-12
ORACLE_GAP = 0.02  # the bound tests/test_oracle.py uses
MARKOV_ESTIMATE_TOL = 0.01
ESTIMATE_TOL = 1e-9

Checks = list[tuple[str, bool]]


def char_residual(terms: list[tuple[int, float]], x0: float) -> float:
    """|sum(count * x0**-tau) - 1|, summed exactly in log space."""
    log2x = math.log2(x0)
    return abs(math.fsum(2.0 ** (math.log2(c) - tau * log2x) for c, tau in terms) - 1.0)


def node_terms(doc: dict) -> dict[str, list[tuple[int, float]]]:
    counts = {c["id"]: c["count"] for c in doc["classes"]}
    return {
        nid: [(counts[cid], t) for cid, t in sorted(row.items())]
        for nid, row in gen.reference_catalogs(doc).items()
    }


def node_solution(terms: list[tuple[int, float]], x0: float | None, capacity: float) -> Checks:
    if not terms:
        return [("unreachable_node_zero", x0 is None and capacity == 0.0)]
    ok = x0 is not None and x0 >= 1.0 and char_residual(terms, x0) <= RESIDUAL_BOUND
    if ok and x0 > 1.0:
        ok = capacity == math.log2(x0)
    return [("char_residual", ok)]


def network_total(capacities: list[float], total: float) -> Checks:
    return [("network_total", abs(total - math.fsum(capacities)) <= 1e-9 * max(1.0, abs(total)))]


def masses_sum_to_one(masses: list[float]) -> Checks:
    return [("optimal_masses", abs(math.fsum(masses) - 1.0) <= MASS_TOL)]


def optimal_utilization(ratio: float | None) -> Checks:
    return [("optimal_utilization", ratio is not None and abs(ratio - 1.0) <= MASS_TOL)]


def oracle_series(rates: list[float], solver_capacity: float, final_gap: float) -> Checks:
    return [
        ("oracle_rate_bound", bool(rates) and max(rates) <= solver_capacity + RATE_SLACK),
        ("oracle_final_gap", final_gap < ORACLE_GAP),
    ]


def file_sha256(path: str | Path, expected: str) -> Checks:
    return [("trace_sha256", hashlib.sha256(Path(path).read_bytes()).hexdigest() == expected)]


def round_trip(written, read) -> Checks:
    return [("trace_round_trip", written.length == read.length and list(written.symbols) == list(read.symbols))]


def markov_estimate(value: float, rate: float) -> Checks:
    return [("markov_order1_estimate", abs(value - rate) <= MARKOV_ESTIMATE_TOL)]


def close(name: str, value: float, reference: float, tol: float = ESTIMATE_TOL) -> Checks:
    return [(name, abs(value - reference) <= tol)]


def cli_report(kind: str, text: str, ctx: dict) -> Checks:
    """Checks on the ``--json`` report of one CLI invocation kind."""
    report = json.loads(text)
    if kind == "capacity":
        terms = ctx["capacity_terms"]
        out: Checks = []
        for row in report["nodes"]:
            out += node_solution(terms[row["node"]], row["x0"], row["capacity_bits_per_time"])
        caps = [row["capacity_bits_per_time"] for row in report["nodes"]]
        return out + network_total(caps, report["network_capacity_bits_per_time"])
    if kind == "optimal":
        return masses_sum_to_one([row["class_mass"] for row in report["classes"]])
    if kind == "efficiency-optimal":
        return optimal_utilization(report["utilization_ratio"])
    if kind == "efficiency-trace":
        return close("trace_estimate", report["entropy_bits_per_file"], ctx["trace_entropy"])
    if kind == "oracle":
        rates = [p["rate"] for p in report["series"]]
        return oracle_series(rates, report["solver_capacity_bits_per_time"], report["final_gap"])
    if kind == "compare":
        rows = report["nodes"] + [report["network"]]
        return [
            ("compare_delta", all(
                r["delta"] == r["capacity_b"] - r["capacity_a"]
                for r in rows
                if r["capacity_a"] is not None and r["capacity_b"] is not None
            ))
        ]
    if kind == "gen-trace":
        return [("gen_trace_length", report["symbols_written"] == ctx["gen_trace_n"])] + file_sha256(
            ctx["gen_trace_out"], ctx["gen_trace_sha256"]
        )
    if kind == "validate":
        doc = ctx["validate_doc"]
        counts = {k: len(doc[k]) for k in ("classes", "nodes", "links")}
        return [("validate", report["valid"] is True and all(report[k] == v for k, v in counts.items()))]
    raise ValueError(f"unknown kind {kind!r}")
