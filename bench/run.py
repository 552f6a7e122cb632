"""Benchmark entry point.

    python3 bench/run.py --workload {cli-verbs,big-network,long-trace} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/``; no
install is needed. Inputs are generated from the seed into ``.bench_work/``,
which is removed again at the end (traced runs keep their span file there).

``--trace 0`` repeats timed passes over the workload's job list for S
seconds and reports the end-to-end metrics. ``--trace 1`` runs an
untraced, a traced, a traced and an untraced pass and reports the
per-layer breakdown from the first traced one. The
last stdout line is the result object; the line before it carries the
machine facts, sample counts, check counts and every metric computed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORKLOADS = ("cli-verbs", "big-network", "long-trace")

INTERP_PROBES = 5
# Passes per run at least, whatever --seconds says, so that a slow machine
# does not also get fewer repeats. cli-verbs: 13 passes are 104
# invocations, so at least 10 lie beyond p90.
MIN_PASSES = {"cli-verbs": 13, "big-network": 3, "long-trace": 2}
INPROCESS_CLI_CYCLES = 3  # in-process cli.main cycles in traced runs

# Counts the tracer reads off a call's arguments and result (span "extra").
HOOKS = {
    "capacity.solve_characteristic_full": lambda a, k, r: r.iterations,
    "oracle.count_series": lambda a, k, r: (len(r) - 1) * len(a[0].int_times),
    "oracle.convergence_report": lambda a, k, r: r.points[-1].count.bit_length() if r.points else 0,
    "entropy.block_entropy_estimate": lambda a, k, r: r.order,
    "traces.sample_iid": lambda a, k, r: r.length,
    "traces.sample_markov": lambda a, k, r: r.length,
    "traces.write_trace": lambda a, k, r: os.path.getsize(a[1] if len(a) > 1 else k["path"]),
}


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(interp_ms: float) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": git_commit(),
        "cli.interp_ms": interp_ms,
    }


def timed_children(argv: list[str], count: int) -> list[float]:
    """Wall seconds of ``count`` sequential runs of one child command."""
    from workloads import run_child

    times = []
    for _ in range(count):
        start = perf_counter()
        code, _ = run_child(argv, Path(os.devnull))
        times.append(perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"probe {argv} exited {code}")
    return times


def setup_time(workload: str) -> float:
    """``import cachecap`` plus one warm-up call, in a fresh interpreter."""
    from workloads import child_env

    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def generate(workload: str, seed: int, outdir: Path) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), workload, str(seed), str(outdir)],
        cwd=ROOT, check=True,
    )


def layer_metrics(spans: list, spans_wall: float, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer numbers from one traced pass (names as in bench/README.md).

    ``spans_wall`` is the time in jobs of the pass the spans come from; the
    other two are mean times in jobs of traced and untraced passes.
    """
    import spans as sp

    s = sp.summarise(spans)

    def get(name: str, field: str) -> float:
        return s.get(name, {}).get(field, 0)

    m: dict[str, float] = {
        "model.load_scenario_s": get("model.load_scenario", "total_s"),
        "model.scenario_digest_s": get("model.scenario_digest", "total_s"),
        "model.effective_catalog_calls": get("model.effective_catalog", "calls"),
        "model.effective_catalog_self_s": get("model.effective_catalog", "self_s"),
        "capacity.solve_calls": get("capacity.solve_characteristic_full", "calls"),
        "capacity.solver_iterations": get("capacity.solve_characteristic_full", "extra"),
        "capacity.char_eq_value_calls": get("capacity.char_eq_value", "calls"),
        "capacity.solve_self_s": sum(
            get(f"capacity.{f}", "self_s")
            for f in ("solve_characteristic", "solve_characteristic_full", "char_eq_value")
        ),
        "capacity.analyze_network_s": get("capacity.analyze_network", "total_s"),
        "capacity.optimal_distribution_s": get("capacity.optimal_distribution", "total_s"),
        "oracle.quantize_node_s": get("oracle.quantize_node", "total_s"),
        "oracle.count_series_s": get("oracle.count_series", "total_s"),
        "oracle.convergence_report_self_s": get("oracle.convergence_report", "self_s"),
        "oracle.nu_bits": get("oracle.convergence_report", "extra"),
        "oracle.dp_steps": get("oracle.count_series", "extra"),
        "entropy.stationary_distribution_s": get("entropy.stationary_distribution", "total_s"),
        "entropy.entropy_efficiency_self_s": get("entropy.entropy_efficiency", "self_s"),
        "entropy.entropy_efficiency_calls": get("entropy.entropy_efficiency", "calls"),
        "traces.sample_iid_s": get("traces.sample_iid", "total_s"),
        "traces.sample_markov_s": get("traces.sample_markov", "total_s"),
        "traces.write_trace_s": get("traces.write_trace", "total_s"),
        "traces.read_trace_s": get("traces.read_trace", "total_s"),
        "traces.empirical_distribution_s": get("traces.empirical_distribution", "total_s"),
        "traces.bytes_written": get("traces.write_trace", "extra"),
    }
    for order in range(4):
        m[f"entropy.block_entropy_o{order}_s"] = sum(
            sp_[2] - sp_[1] for sp_ in spans if sp_[0] == "entropy.block_entropy_estimate" and sp_[5] == order
        )
    sampled = get("traces.sample_iid", "extra") + get("traces.sample_markov", "extra")
    sample_s = m["traces.sample_iid_s"] + m["traces.sample_markov_s"]
    m["traces.ns_per_symbol"] = sample_s / sampled * 1e9 if sampled else 0.0
    layer_self = {layer: 0.0 for layer in sp.LAYERS}
    for name, row in s.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["tracing.wall_s"] = traced_wall
    m["tracing.untraced_wall_s"] = untraced_wall
    m["tracing.overhead_s"] = traced_wall - untraced_wall
    m["tracing.self_coverage"] = sum(layer_self.values()) / spans_wall
    return m


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    """Run the workload; return (all metrics, details)."""
    import cachecap
    import setup_probe
    import workloads as wl
    from spans import Tracer

    inputs, cli_inputs = work / "inputs", work / "cli-inputs"
    generate(args.workload, args.seed, inputs)
    if args.workload == "cli-verbs":
        cli_inputs = inputs
    else:
        generate("cli-verbs", args.seed, cli_inputs)

    setup_probe.warm_up(args.workload, cachecap)
    interp = timed_children([sys.executable, "-c", "pass"], INTERP_PROBES)
    cli_ctx = wl.CliContext(cli_inputs, work)
    workload = None  # cli-verbs runs its passes in child processes
    if args.workload == "big-network":
        workload = wl.BigNetwork(inputs)
    elif args.workload == "long-trace":
        workload = wl.LongTrace(inputs, work)

    runners: list[wl.Runner] = []
    metrics: dict[str, float] = {"cli.interp_ms": wl.median(interp) * 1e3}
    details: dict = {"samples": {}}

    def cli_cycles(count: int, tracer=None) -> tuple[list, dict]:
        done, sizes = [], {}
        for _ in range(count):
            done.append(wl.Runner(tracer))
            sizes = wl.cli_inprocess_pass(cli_ctx, done[-1])
        return done, sizes

    if args.trace == 0:
        deadline = perf_counter() + args.seconds
        min_passes = MIN_PASSES[args.workload]
        peaks: list[int] = []
        setups: list[float] = []
        verbs: list[wl.Runner] = []  # one per cycle of the eight kinds
        slots = wl.KINDS + ("setup",)
        slot = 0

        def between() -> None:
            """The next fresh-interpreter job: each kind in turn, then a set-up probe."""
            nonlocal slot
            name = slots[slot % len(slots)]
            if slot % len(slots) == 0:
                verbs.append(wl.Runner())
            if name == "setup":
                setups.append(setup_time(args.workload))
            else:
                wl.cli_subprocess_job(cli_ctx, verbs[-1], name)
            slot += 1

        while len(runners) < min_passes or perf_counter() < deadline:
            run = wl.Runner()
            if workload is None:
                peaks += wl.cli_subprocess_pass(cli_ctx, run)
                setups.append(setup_time(args.workload))
            else:
                workload.run_pass(run, between)
            runners.append(run)
        passes = len(runners)
        # The host's speed switches between modes for seconds at a time.
        # Means over the run move with the share of time spent in each mode
        # instead of jumping between modes, and a p90 over every execution
        # sits in the slow mode unless nearly all the run is fast; so the
        # in-process p50 is the median job's mean time, and p90 is over
        # every execution (bench/README.md).
        executions = [t for r in runners for job, t in r.times.items() if job in r.kinds]
        if workload is None:
            peak_kib, verbs = max(peaks), list(runners)
            wall_s = statistics.fmean([r.wall_s for r in runners])
            typical = executions
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            means = wl.mean_times(runners)
            wall_s = sum(means.values())
            typical = [means[job] for job in runners[0].kinds]
            runners += verbs
        metrics |= {
            "setup_s": wl.median(setups),
            "wall_s": wall_s,
            "job_ms_p50": wl.median(typical) * 1e3,
            "job_ms_p90": wl.p90(executions) * 1e3,
            "peak_rss_mb": peak_kib / 1024,
        }
        verb_samples = {kind: [r.times[kind] for r in verbs if kind in r.times] for kind in wl.KINDS}
        for kind, times in verb_samples.items():
            metrics[f"verb.{kind}_ms"] = statistics.fmean(times) * 1e3
        details["samples"] |= {
            "passes": passes,
            "job_ms_p50": len(typical),
            "job_ms_p90": len(executions),
            "verb_ms_per_kind": min(len(t) for t in verb_samples.values()),
            "setup_s": len(setups),
        }
    else:
        def one_pass(tracer=None) -> tuple[list, dict]:
            if workload is None:
                return cli_cycles(INPROCESS_CLI_CYCLES, tracer)
            run = wl.Runner(tracer)
            workload.run_pass(run)
            return [run], {}

        # Untraced, traced, traced, untraced: the difference of the means
        # cancels a steady drift in host speed. Spans come from the first
        # traced pass; the second one's are dropped.
        tracer, repeat = Tracer(HOOKS), Tracer(HOOKS)
        untraced, _ = one_pass()
        with tracer:
            traced, sizes = one_pass(tracer)
        with repeat:
            traced_again, _ = one_pass(repeat)
        untraced_again, _ = one_pass()
        sequence = [untraced, traced, traced_again, untraced_again]
        runners += [r for rs in sequence for r in rs]
        if workload is None:
            cli_runs = untraced + untraced_again
        else:
            cli_runs, sizes = cli_cycles(INPROCESS_CLI_CYCLES)
            runners += cli_runs
        walls = [sum(r.busy_s for r in rs) for rs in sequence]
        metrics |= layer_metrics(tracer.spans, walls[1], (walls[1] + walls[2]) / 2, (walls[0] + walls[3]) / 2)
        startup = timed_children([sys.executable, "-c", "import cachecap.cli"], INTERP_PROBES)
        metrics["cli.startup_ms"] = (wl.median(startup) - wl.median(interp)) * 1e3
        cli_means = wl.mean_times(cli_runs)
        for kind in wl.KINDS:
            metrics[f"cli.main.{kind}_ms"] = cli_means[f"cli.main:{kind}"] * 1e3
            metrics[f"cli.stdout_bytes.{kind}"] = sizes.get(kind, 0)
        spans_path = Path(".bench_work") / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans_path)
        details["spans_file"] = str(spans_path)
        details["samples"] |= {"spans": len(tracer.spans), "cli.main_ms_per_kind": len(cli_runs)}

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    check_counts: dict[str, list[int]] = {}
    for r in runners:
        for name, (ok, bad) in r.check_counts.items():
            row = check_counts.setdefault(name, [0, 0])
            row[0] += ok
            row[1] += bad
    details |= {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(metrics["cli.interp_ms"]),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "checks": check_counts,
        "errors": [e for r in runners for e in r.errors][:20],
        "metrics": metrics,
    }
    return metrics, details


def main() -> int:
    args = parse_args()
    if not (SRC / "cachecap" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path[:0] = [str(SRC), str(BENCH)]

    # Relative, seed-free paths keep the CLI reports (and so stdout byte
    # counts) identical across checkouts and seeds.
    os.chdir(ROOT)
    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, details = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
