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
import math
import os
import sys
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain
from pathlib import Path

from .capacity import REL_TOL, SolverError, analyze_network, node_solution, optimal_distribution
from .model import Network, ScenarioError, effective_catalog, parse_json, read_scenario

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on bad usage, not argparse's 2
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cachecap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, text: str, *positionals: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        for positional in positionals:
            p.add_argument(positional)
        return p

    verb("capacity", "per-node and network capacity of a scenario", "scenario")
    verb("optimal", "capacity-achieving access distribution of a node", "scenario", "node")
    p = verb("efficiency", "entropy efficiency of a node under a source", "scenario", "node")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--source", help="source spec JSON (iid or markov)")
    src.add_argument("--optimal", action="store_true", help="use the node's optimal distribution")
    src.add_argument("--trace", help="trace file; estimates entropy at --order")
    p.add_argument("--order", type=int, help="block order for --trace (default 0)")
    p.add_argument("--force", action="store_true", help="accept traces too short for --order")
    p = verb("oracle", "exact task-count growth rate vs. the solver", "scenario", "node")
    p.add_argument("--grid", type=float, default=None, help="time grid (default: inferred)")
    p.add_argument("--tmax", type=int, default=200, help="horizon in grid units")
    verb("compare", "capacity deltas between two scenarios", "scenario_a", "scenario_b")
    p = verb("gen-trace", "generate a synthetic access trace")
    p.add_argument("source", help="source spec JSON (iid or markov)")
    p.add_argument("--n", type=int, required=True, help="trace length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output trace file")
    verb("validate", "check a scenario file against the schema", "scenario")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def _load_scenario(path: str) -> tuple[Network, dict]:
    """The Network and the report's scenario block, from one read of the file."""
    net, digest = read_scenario(path)
    return net, {"path": path, "digest": digest}


def _load_source_spec(path: str) -> IIDSource | MarkovSource:
    from .entropy import IIDSource, MarkovSource

    doc = parse_json(Path(path).read_bytes(), f"source spec {path}")
    if not isinstance(doc, Mapping) or "type" not in doc:
        raise ScenarioError(f"source spec {path} must be an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "iid":
            return IIDSource(class_mass=doc["class_mass"])
        if kind == "markov":
            return MarkovSource(
                states=doc["states"], transitions=doc["transitions"], initial=doc.get("initial")
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad source spec {path}: {exc}") from exc
    raise ScenarioError(f"source spec {path}: unknown type '{kind}' (expected iid or markov)")


# --- command implementations -------------------------------------------------


def _cmd_capacity(args: argparse.Namespace) -> dict:
    net, scenario = _load_scenario(args.scenario)
    result = analyze_network(net)
    return {
        "scenario": scenario,
        "rel_tol": REL_TOL,
        "nodes": [{"node": nid, **nc._asdict()} for nid, nc in sorted(result.per_node.items())],
        "network_capacity_bits_per_time": result.network_capacity,
    }


def _render_capacity(report: dict) -> str:
    lines = [f"{'node':<12} {'x0':>14} {'capacity (bits/time-unit)':>26}"]
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
    counts = effective_catalog(net, args.node).counts
    classes = [
        {
            "class": cid,
            "files": counts[cid],
            "file_probability": dist.file_probability[cid],
            "class_mass": mass,
        }
        for cid, mass in dist.class_mass.items()
    ]
    return {
        "scenario": scenario,
        "node": args.node,
        "x0": dist.x0,
        "capacity_bits_per_time": node_solution(net, args.node).capacity_bits_per_time,
        "classes": classes,
    }


def _render_optimal(report: dict) -> str:
    lines = [
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
    if args.trace is None and (args.order is not None or args.force):
        raise ValueError("--order and --force apply only with --trace")
    from .entropy import EmpiricalSource, IIDSource, entropy_efficiency
    from .traces import read_trace

    net, scenario = _load_scenario(args.scenario)
    if args.optimal:
        dist = optimal_distribution(net, args.node)
        src = IIDSource(class_mass=dist.class_mass)
        echo: dict = {"kind": "optimal"}
    elif args.source:
        src = _load_source_spec(args.source)
        echo = {"kind": src.kind, "path": args.source}
    else:
        order = 0 if args.order is None else args.order
        src = EmpiricalSource(trace=read_trace(args.trace), order=order, force=args.force)
        echo = {"kind": src.kind, "path": args.trace, "order": order}

    result = entropy_efficiency(net, args.node, src)
    return {"scenario": scenario, "node": args.node, "source": echo} | result._asdict()


def _render_efficiency(report: dict) -> str:
    util = report["utilization_ratio"]
    return "\n".join(
        [
            f"node: {report['node']}   source: {report['source']['kind']}",
            f"entropy:      {report['entropy_bits_per_file']:.6f} bits/file",
            f"mean read time: {report['mean_read_time']:.6f} time-units/file",
            f"efficiency:   {report['efficiency_bits_per_time']:.6f} bits/time-unit",
            f"capacity:     {report['capacity_bits_per_time']:.6f} bits/time-unit",
            f"utilization:  {util:.6f}" if util is not None else "utilization:  - (zero capacity)",
        ]
    )


def _cmd_oracle(args: argparse.Namespace) -> dict:
    from .oracle import convergence_report, quantize

    net, scenario = _load_scenario(args.scenario)
    catalog = effective_catalog(net, args.node)
    if not catalog.entries:
        raise ScenarioError(f"node '{args.node}' has no reachable classes; nothing to count")
    q = quantize(catalog, args.grid)
    x0 = node_solution(net, args.node).x0
    report = convergence_report(q, args.tmax, x0)
    return {
        "scenario": scenario,
        "node": args.node,
        "grid": q.grid,
        "t_max": args.tmax,
        "solver_x0": x0,
        "solver_capacity_bits_per_time": report.solver_capacity,
        "final_gap": report.final_gap,
        "series": report.series(),
    }


def _render_oracle(report: dict) -> str:
    lines = [
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
    result_a, result_b = analyze_network(net_a), analyze_network(net_b)
    caps_a = {nid: nc.capacity_bits_per_time for nid, nc in result_a.per_node.items()}
    caps_b = {nid: nc.capacity_bits_per_time for nid, nc in result_b.per_node.items()}
    rows = []
    for nid in sorted(caps_a.keys() | caps_b.keys()):
        a, b = caps_a.get(nid), caps_b.get(nid)
        delta = b - a if a is not None and b is not None else None
        rows.append({"node": nid, "capacity_a": a, "capacity_b": b, "delta": delta})
    total_a, total_b = result_a.network_capacity, result_b.network_capacity
    return {
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
    from .traces import write_trace

    src = _load_source_spec(args.source)
    trace = src.sample(args.n, args.seed)
    write_trace(trace, args.out)
    return {
        "source": {"kind": src.kind, "path": args.source},
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
        "scenario": scenario,
        "valid": True,
        "classes": len(net.classes),
        "nodes": len(net.nodes),
        "links": len(net.links),
    }


def _render_validate(report: dict) -> str:
    return f"valid: {report['classes']} classes, {report['nodes']} nodes, {report['links']} links"


_COMMANDS = {
    "capacity": (_cmd_capacity, _render_capacity),
    "optimal": (_cmd_optimal, _render_optimal),
    "efficiency": (_cmd_efficiency, _render_efficiency),
    "oracle": (_cmd_oracle, _render_oracle),
    "compare": (_cmd_compare, _render_compare),
    "gen-trace": (_cmd_gen_trace, _render_gen_trace),
    "validate": (_cmd_validate, _render_validate),
}


def _json_pieces(report: dict) -> Iterable[str]:
    """``json.dumps(report, indent=2)`` and a newline, as pieces to write in turn.

    A report with ``series`` rows (``OracleReport.series()``: 5,001 rows and
    about 5 MB at ``--tmax 5000``) is laid out one row per f-string in the
    ``indent=2`` layout, so the document is never held as one string. The
    bytes are the same: ``T`` is ``int.__repr__``, ``nu`` is decimal digits
    that need no escaping, and ``rate`` is ``float.__repr__``, as ``json``
    prints a finite float. A rate that is not finite has no JSON number, so it
    raises ``ArithmeticError`` here, before any piece is written.
    """
    rows = report.get("series")
    if not rows:
        return (json.dumps(report, indent=2), "\n")
    for row in rows:
        if not math.isfinite(row["rate"]):
            raise ArithmeticError(f"oracle rate at T={row['T']} is not finite: {row['rate']!r}")
    head, _, tail = json.dumps(report | {"series": []}, indent=2).rpartition('"series": []')
    pieces = (
        f'{"," if i else ""}\n    {{\n      "T": {int.__repr__(row["T"])},\n      "nu": "{row["nu"]}",'
        f'\n      "rate": {float.__repr__(row["rate"])}\n    }}'
        for i, row in enumerate(rows)
    )
    return chain((head, '"series": ['), pieces, (f"\n  ]{tail}\n",))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        run, render = _COMMANDS[args.command]
        report = {"command": args.command} | run(args)
        if args.json:
            pieces = _json_pieces(report)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, ArithmeticError, MemoryError) as exc:
        print(f"computation failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2

    if not args.json:
        scenario = report.get("scenario")
        head = f"scenario digest: {scenario['digest']}\n" if scenario else ""
        pieces = (head, render(report), "\n")
    write = sys.stdout.write  # looked up now, so redirect_stdout and capsys see the output
    for piece in pieces:
        write(piece)
    return 0


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``). Point fd 1 at devnull so
        # the flush at exit cannot raise again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
