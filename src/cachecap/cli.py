"""Command-line front end.

Verbs: capacity, optimal, efficiency, oracle, compare, gen-trace, validate.
Every verb accepts --json for a machine-readable report; the human-readable
text is rendered from the same report object. Reports always carry the
SHA-256 digest of the scenario file so runs are auditable.

Exit codes: 0 success, 1 input error, 2 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Mapping, Sequence

from .capacity import (
    DEFAULT_REL_TOL,
    SolverError,
    analyze_network,
    catalog_capacity,
    optimal_distribution,
)
from .entropy import (
    EmpiricalSource,
    IIDSource,
    MarkovSource,
    entropy_efficiency,
    stationary_distribution,
)
from .model import Network, ScenarioError, effective_catalog, parse_json, read_scenario
from .oracle import convergence_report, infer_grid, quantize
from .traces import read_trace, sample_iid, sample_markov, write_trace

__all__ = ["main", "entrypoint"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on bad usage, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cachecap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="per-node and network capacity of a scenario")
    p.add_argument("scenario")
    p.add_argument("--tol", type=float, default=DEFAULT_REL_TOL, help="solver relative tolerance")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("optimal", help="capacity-achieving access distribution of a node")
    p.add_argument("scenario")
    p.add_argument("node")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("efficiency", help="entropy efficiency of a node under a source")
    p.add_argument("scenario")
    p.add_argument("node")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--source", help="source spec JSON (iid or markov)")
    src.add_argument("--optimal", action="store_true", help="use the node's optimal distribution")
    src.add_argument("--trace", help="trace file; estimates entropy at --order")
    p.add_argument("--order", type=int, default=0, help="block order for --trace")
    p.add_argument("--force", action="store_true", help="accept traces too short for --order")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="exact task-count growth rate vs. the solver")
    p.add_argument("scenario")
    p.add_argument("node")
    p.add_argument("--grid", type=float, default=None, help="time grid (default: inferred)")
    p.add_argument("--tmax", type=int, default=200, help="horizon in grid units")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compare", help="capacity deltas between two scenarios")
    p.add_argument("scenario_a")
    p.add_argument("scenario_b")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen-trace", help="generate a synthetic access trace")
    p.add_argument("source", help="source spec JSON (iid or markov)")
    p.add_argument("--n", type=int, required=True, help="trace length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output trace file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("validate", help="check a scenario file against the schema")
    p.add_argument("scenario")
    p.add_argument("--json", action="store_true")

    return parser


def _load_scenario(path: str) -> tuple[Network, dict]:
    """The Network and the report's scenario block, from one read of the file."""
    net, digest = read_scenario(path)
    return net, {"path": path, "digest": digest}


def _load_source_spec(path: str) -> IIDSource | MarkovSource:
    doc = parse_json(Path(path).read_text(encoding="utf-8"), f"source spec {path}")
    if not isinstance(doc, Mapping) or "type" not in doc:
        raise ScenarioError(f"source spec {path} must be an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "iid":
            return IIDSource(class_mass=dict(doc["class_mass"]))
        if kind == "markov":
            initial = doc.get("initial")
            return MarkovSource(
                states=tuple(doc["states"]),
                transitions=tuple(tuple(row) for row in doc["transitions"]),
                initial=tuple(initial) if initial is not None else None,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad source spec {path}: {exc}") from exc
    raise ScenarioError(f"source spec {path}: unknown type '{kind}' (expected iid or markov)")


# --- command implementations -------------------------------------------------


def _cmd_capacity(args: argparse.Namespace) -> dict:
    net, scenario = _load_scenario(args.scenario)
    if args.tol <= 0:
        raise ScenarioError(f"--tol must be positive, got {args.tol}")
    result = analyze_network(net, rel_tol=args.tol)
    nodes = [
        {
            "node": node_id,
            "x0": nc.x0,
            "capacity_bits_per_time": nc.capacity_bits_per_time,
            "iterations": nc.iterations,
            "residual": nc.residual,
        }
        for node_id, nc in sorted(result.per_node.items())
    ]
    return {
        "command": "capacity",
        "scenario": scenario,
        "rel_tol": args.tol,
        "nodes": nodes,
        "network_capacity_bits_per_time": result.network_capacity,
    }


def _render_capacity(report: dict) -> str:
    lines = [
        f"scenario digest: {report['scenario']['digest']}",
        f"{'node':<12} {'x0':>14} {'capacity (bits/time-unit)':>26}",
    ]
    for row in report["nodes"]:
        x0 = f"{row['x0']:.6f}" if row["x0"] is not None else "-"
        lines.append(f"{row['node']:<12} {x0:>14} {row['capacity_bits_per_time']:>26.6f}")
    lines.append(
        f"network capacity: {report['network_capacity_bits_per_time']:.6f} bits/time-unit"
    )
    return "\n".join(lines)


def _cmd_optimal(args: argparse.Namespace) -> dict:
    net, scenario = _load_scenario(args.scenario)
    dist = optimal_distribution(net, args.node)
    counts = net.class_counts()
    classes = [
        {
            "class": cid,
            "files": counts[cid],
            "file_probability": dist.file_probability[cid],
            "class_mass": dist.class_mass[cid],
        }
        for cid in sorted(dist.class_mass)
    ]
    return {
        "command": "optimal",
        "scenario": scenario,
        "node": args.node,
        "x0": dist.x0,
        "capacity_bits_per_time": dist.capacity_bits_per_time,
        "classes": classes,
    }


def _render_optimal(report: dict) -> str:
    lines = [
        f"scenario digest: {report['scenario']['digest']}",
        f"node: {report['node']}   x0: {report['x0']:.6f}   "
        f"capacity: {report['capacity_bits_per_time']:.6f} bits/time-unit",
        f"{'class':<12} {'files':>10} {'per-file p':>14} {'class mass':>12}",
    ]
    for row in report["classes"]:
        lines.append(
            f"{row['class']:<12} {row['files']:>10} "
            f"{row['file_probability']:>14.6g} {row['class_mass']:>12.6f}"
        )
    return "\n".join(lines)


def _cmd_efficiency(args: argparse.Namespace) -> dict:
    net, scenario = _load_scenario(args.scenario)
    if args.optimal:
        dist = optimal_distribution(net, args.node)
        src = IIDSource(class_mass=dist.class_mass)
        source_echo: dict = {"kind": "optimal"}
    elif args.source:
        src = _load_source_spec(args.source)
        source_echo = {
            "kind": "iid" if isinstance(src, IIDSource) else "markov",
            "path": args.source,
        }
    else:
        trace = read_trace(args.trace)
        src = EmpiricalSource(trace=trace, order=args.order, force=args.force)
        source_echo = {"kind": "trace", "path": args.trace, "order": args.order}

    result = entropy_efficiency(net, args.node, src)
    return {
        "command": "efficiency",
        "scenario": scenario,
        "node": args.node,
        "source": source_echo,
        "entropy_bits_per_file": result.entropy_bits_per_file,
        "mean_read_time": result.mean_read_time,
        "efficiency_bits_per_time": result.efficiency_bits_per_time,
        "capacity_bits_per_time": result.capacity_bits_per_time,
        "utilization_ratio": result.utilization_ratio,
    }


def _render_efficiency(report: dict) -> str:
    util = report["utilization_ratio"]
    return "\n".join(
        [
            f"scenario digest: {report['scenario']['digest']}",
            f"node: {report['node']}   source: {report['source']['kind']}",
            f"entropy:      {report['entropy_bits_per_file']:.6f} bits/file",
            f"mean read time: {report['mean_read_time']:.6f} time-units/file",
            f"efficiency:   {report['efficiency_bits_per_time']:.6f} bits/time-unit",
            f"capacity:     {report['capacity_bits_per_time']:.6f} bits/time-unit",
            f"utilization:  {util:.6f}" if util is not None else "utilization:  - (zero capacity)",
        ]
    )


def _cmd_oracle(args: argparse.Namespace) -> dict:
    net, scenario = _load_scenario(args.scenario)
    catalog = effective_catalog(net, args.node)
    if not catalog.entries:
        raise ScenarioError(f"node '{args.node}' has no reachable classes; nothing to count")
    grid = args.grid if args.grid is not None else infer_grid(catalog.min_times().values())
    counts = net.class_counts()
    q = quantize(catalog, grid, counts)
    x0 = catalog_capacity(catalog, counts).x0
    report = convergence_report(q, args.tmax, x0)
    return {
        "command": "oracle",
        "scenario": scenario,
        "node": args.node,
        "grid": q.grid,
        "t_max": args.tmax,
        "solver_x0": x0,
        "solver_capacity_bits_per_time": report.solver_capacity,
        "final_gap": report.final_gap,
        "series": report.to_json_dict()["series"],
    }


def _render_oracle(report: dict) -> str:
    lines = [
        f"scenario digest: {report['scenario']['digest']}",
        f"node: {report['node']}   grid: {report['grid']:g}   t_max: {report['t_max']}",
        f"solver capacity: {report['solver_capacity_bits_per_time']:.6f} bits/time-unit",
        f"{'T':>8} {'nu':>24} {'rate':>10}",
    ]
    series = report["series"]
    step = max(1, len(series) // 20)
    shown = series[::step]
    if series and shown[-1] is not series[-1]:
        shown.append(series[-1])
    for p in shown:
        nu = p["nu"] if len(p["nu"]) <= 24 else p["nu"][:10] + "..." + p["nu"][-10:]
        lines.append(f"{p['T']:>8} {nu:>24} {p['rate']:>10.6f}")
    lines.append(f"final gap: {report['final_gap']:.6f}")
    return "\n".join(lines)


def _cmd_compare(args: argparse.Namespace) -> dict:
    net_a, scenario_a = _load_scenario(args.scenario_a)
    net_b, scenario_b = _load_scenario(args.scenario_b)
    caps_a = {nid: nc.capacity_bits_per_time for nid, nc in analyze_network(net_a).per_node.items()}
    caps_b = {nid: nc.capacity_bits_per_time for nid, nc in analyze_network(net_b).per_node.items()}
    rows = []
    for nid in sorted(set(caps_a) | set(caps_b)):
        a, b = caps_a.get(nid), caps_b.get(nid)
        rows.append(
            {
                "node": nid,
                "capacity_a": a,
                "capacity_b": b,
                "delta": (b - a) if a is not None and b is not None else None,
            }
        )
    total_a, total_b = sum(caps_a.values()), sum(caps_b.values())
    return {
        "command": "compare",
        "scenario_a": scenario_a,
        "scenario_b": scenario_b,
        "nodes": rows,
        "network": {"capacity_a": total_a, "capacity_b": total_b, "delta": total_b - total_a},
    }


def _render_compare(report: dict) -> str:
    def fmt(v: float | None) -> str:
        return f"{v:.6f}" if v is not None else "-"

    lines = [
        f"scenario A digest: {report['scenario_a']['digest']}",
        f"scenario B digest: {report['scenario_b']['digest']}",
        f"{'node':<12} {'capacity A':>12} {'capacity B':>12} {'delta':>12}",
    ]
    for row in report["nodes"]:
        delta = f"{row['delta']:+.6f}" if row["delta"] is not None else "-"
        lines.append(
            f"{row['node']:<12} {fmt(row['capacity_a']):>12} {fmt(row['capacity_b']):>12} {delta:>12}"
        )
    net = report["network"]
    lines.append(
        f"{'network':<12} {net['capacity_a']:>12.6f} {net['capacity_b']:>12.6f} {net['delta']:>+12.6f}"
    )
    return "\n".join(lines)


def _cmd_gen_trace(args: argparse.Namespace) -> dict:
    src = _load_source_spec(args.source)
    if args.n < 0:
        raise ScenarioError(f"--n must be >= 0, got {args.n}")
    if isinstance(src, IIDSource):
        trace = sample_iid(src.class_mass, args.n, args.seed)
        kind = "iid"
    else:
        initial = src.initial
        if initial is None:
            pi = stationary_distribution(src)
            initial = tuple(pi[s] for s in src.states)
        trace = sample_markov(src.states, src.transitions, initial, args.n, args.seed)
        kind = "markov"
    write_trace(trace, args.out)
    return {
        "command": "gen-trace",
        "source": {"kind": kind, "path": args.source},
        "n": args.n,
        "seed": args.seed,
        "out": args.out,
        "symbols_written": trace.length,
    }


def _render_gen_trace(report: dict) -> str:
    return (
        f"wrote {report['symbols_written']} symbols to {report['out']} "
        f"(source {report['source']['kind']}, seed {report['seed']})"
    )


def _cmd_validate(args: argparse.Namespace) -> dict:
    net, scenario = _load_scenario(args.scenario)
    return {
        "command": "validate",
        "scenario": scenario,
        "valid": True,
        "classes": len(net.classes),
        "nodes": len(net.nodes),
        "links": len(net.links),
    }


def _render_validate(report: dict) -> str:
    return (
        f"scenario digest: {report['scenario']['digest']}\n"
        f"valid: {report['classes']} classes, {report['nodes']} nodes, {report['links']} links"
    )


_COMMANDS = {
    "capacity": (_cmd_capacity, _render_capacity),
    "optimal": (_cmd_optimal, _render_optimal),
    "efficiency": (_cmd_efficiency, _render_efficiency),
    "oracle": (_cmd_oracle, _render_oracle),
    "compare": (_cmd_compare, _render_compare),
    "gen-trace": (_cmd_gen_trace, _render_gen_trace),
    "validate": (_cmd_validate, _render_validate),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run, render = _COMMANDS[args.command]
    try:
        report = run(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render(report))
    return 0


def entrypoint() -> None:
    sys.exit(main())
