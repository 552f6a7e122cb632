"""The three benchmark workloads and the job runner they share.

Load is one closed-loop client in one process: each job starts after the
previous one ends, and at most one child process runs at a time.

- ``cli-verbs``: fresh-interpreter ``python -m cachecap ... --json`` runs,
  cycling through eight invocation kinds. A job is one invocation.
- ``big-network``: one 2,000-node scenario, analysed in process. A pass is
  load + digest, ``analyze_network``, 300 per-node queries and one oracle
  run. A job for latency is one per-node query.
- ``long-trace``: 10^6-symbol i.i.d. and Markov traces sampled, written,
  read back and estimated in process; after each of those four stages a
  sweep reads and estimates (order 1) 100 window files of 5,000 symbols. A
  job for latency is one window.

Every job's output is checked outside its timed region; a job that raises,
exits non-zero or fails a check counts as failed and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import cachecap as cc
import cachecap.cli

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = Path("scenarios")  # relative: the benchmark runs from the repository root

# An in-process pass calls its ``between`` hook between jobs: big-network
# after load, analyze, the oracle and every QUERY_CHUNK queries, long-trace
# after every WINDOW_CHUNK windows. The benchmark runs its fresh-interpreter
# jobs there, so that they spread over the whole pass.
QUERY_CHUNK = 20
WINDOW_CHUNK = 25

KINDS = (
    "capacity",
    "optimal",
    "efficiency-optimal",
    "efficiency-trace",
    "oracle",
    "compare",
    "gen-trace",
    "validate",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout_path: Path) -> tuple[int, int]:
    """Run one child to completion; return its exit code and peak RSS in KiB."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Runner:
    """Runs one pass of jobs, times them, checks their outputs and counts failures.

    Each job runs once per pass. Job names repeat from pass to pass, so
    ``mean_times`` can take each job's mean time over a run's passes.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # every job of the pass, checks excluded
        self.times: dict[str, float] = {}
        self.kinds: dict[str, str] = {}  # latency jobs only
        self.check_counts: dict[str, list[int]] = {}  # name -> [passed, failed]
        self.errors: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    def __call__(self, job: str, call: Callable, check: Callable | None = None, kind: str | None = None):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job = job
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing job is counted, not fatal
            result, error = None, f"{job}: {type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = perf_counter() - start
        if self.tracer is not None:
            self.tracer.job = None
        self.busy_s += elapsed
        self.times[job] = elapsed
        if kind is not None:
            self.kinds[job] = kind
        if error is None and check is not None:
            try:
                outcome = check(result)
            except Exception as exc:  # a check that cannot read the output fails
                outcome = [(f"{job}.unreadable", False)]
                error = f"{job}: unreadable output: {type(exc).__name__}: {exc}"
            for name, ok in outcome:
                self.check_counts.setdefault(name, [0, 0])[0 if ok else 1] += 1
                if not ok and error is None:
                    error = f"{job}: check {name} failed"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(error)
        return result


def mean_times(runners: list[Runner]) -> dict[str, float]:
    """Each job's mean time over the given passes."""
    times: dict[str, list[float]] = {}
    for r in runners:
        for job, t in r.times.items():
            times.setdefault(job, []).append(t)
    return {job: statistics.fmean(ts) for job, ts in times.items()}


def _nothing() -> None:
    pass


# --- cli-verbs ----------------------------------------------------------------


class CliContext:
    """The eight invocation kinds over the repo's scenarios and seeded inputs."""

    def __init__(self, inputs: Path, work: Path) -> None:
        p = gen.PARAMS["cli-verbs"]
        expected = json.loads((inputs / "expected.json").read_text())
        fig1, fig2 = SCENARIOS / "fig1.json", SCENARIOS / "fig2.json"
        self.work = work
        self.gen_trace_out = work / "gen.trace"
        self.argv = {
            "capacity": ["capacity", fig2],
            "optimal": ["optimal", fig1, "w2"],
            "efficiency-optimal": ["efficiency", fig1, "w2", "--optimal"],
            "efficiency-trace": [
                "efficiency", inputs / "onenode.json", "n",
                "--trace", inputs / "access.trace", "--order", p["trace_order"],
            ],
            "oracle": ["oracle", SCENARIOS / "three-file.json", "n", "--tmax", p["oracle_tmax"]],
            "compare": ["compare", fig2, SCENARIOS / "fig2-shared.json"],
            "gen-trace": [
                "gen-trace", inputs / "source.json", "--n", p["gen_trace_n"],
                "--seed", expected["gen_trace_seed"], "--out", self.gen_trace_out,
            ],
            "validate": ["validate", fig1],
        }
        self.argv = {k: [str(a) for a in v] + ["--json"] for k, v in self.argv.items()}
        self.ref = {
            "capacity_terms": checks.node_terms(json.loads(fig2.read_text())),
            "validate_doc": json.loads(fig1.read_text()),
            "trace_entropy": expected["trace_entropy"],
            "gen_trace_n": p["gen_trace_n"],
            "gen_trace_out": self.gen_trace_out,
            "gen_trace_sha256": expected["gen_trace_sha256"],
        }

    def check(self, kind: str) -> Callable[[str], checks.Checks]:
        return lambda text: checks.cli_report(kind, text, self.ref)


def cli_subprocess_job(ctx: CliContext, run: Runner, kind: str) -> int:
    """One fresh-interpreter invocation of ``kind``; returns the child's peak RSS in KiB."""
    out = ctx.work / "stdout.json"
    peak = 0

    def invoke() -> None:
        nonlocal peak
        code, peak = run_child([sys.executable, "-m", "cachecap", *ctx.argv[kind]], out)
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    check = ctx.check(kind)
    run(kind, invoke, lambda _: check(out.read_text(encoding="utf-8")), kind=kind)
    return peak


def cli_subprocess_pass(ctx: CliContext, run: Runner) -> list[int]:
    """One fresh-interpreter invocation per kind; returns each child's peak RSS in KiB."""
    return [cli_subprocess_job(ctx, run, kind) for kind in KINDS]


def cli_inprocess_pass(ctx: CliContext, run: Runner) -> dict[str, int]:
    """``cli.main(argv)`` once per kind with stdout captured; returns stdout bytes per kind."""
    sizes: dict[str, int] = {}

    def invoke(kind: str) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cc.cli.main(ctx.argv[kind])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return buf.getvalue()

    for kind in KINDS:
        text = run(f"cli.main:{kind}", lambda kind=kind: invoke(kind), ctx.check(kind), kind=kind)
        if text is not None:
            sizes[kind] = len(text.encode("utf-8"))
    return sizes


# --- big-network --------------------------------------------------------------


class BigNetwork:
    def __init__(self, inputs: Path) -> None:
        self.p = gen.PARAMS["big-network"]
        self.path = inputs / "network.json"
        expected = json.loads((inputs / "expected.json").read_text())
        self.queries = expected["queries"]
        self.oracle_node = expected["oracle_node"]
        self.digest = gen.sha256_hex(self.path.read_bytes())
        self.terms = checks.node_terms(json.loads(self.path.read_text()))

    def run_pass(self, run: Runner, between: Callable[[], None] = _nothing) -> None:
        def check_load(out) -> checks.Checks:
            net, digest = out
            return [("scenario_digest", digest == self.digest), ("node_count", len(net.nodes) == len(self.terms))]

        loaded = run("load", lambda: (cc.load_scenario(self.path), cc.scenario_digest(self.path)), check_load)
        net = loaded[0] if loaded else None
        between()

        def check_batch(result) -> checks.Checks:
            out: checks.Checks = []
            for nid, nc in result.per_node.items():
                out += checks.node_solution(self.terms[nid], nc.x0, nc.capacity_bits_per_time)
            caps = [nc.capacity_bits_per_time for nc in result.per_node.values()]
            return out + checks.network_total(caps, result.network_capacity)

        batch = run("analyze", lambda: cc.analyze_network(net), check_batch)
        between()

        def query(nid: str):
            capacity = cc.node_capacity(net, nid)
            dist = cc.optimal_distribution(net, nid)
            eff = cc.entropy_efficiency(net, nid, cc.IIDSource(class_mass=dist.class_mass))
            return capacity, dist, eff

        def check_query(out) -> checks.Checks:
            capacity, dist, eff = out
            return (
                checks.node_solution(self.terms[dist.node], dist.x0, capacity)
                + checks.masses_sum_to_one(list(dist.class_mass.values()))
                + checks.optimal_utilization(eff.utilization_ratio)
            )

        for i, nid in enumerate(self.queries, 1):
            run(f"query:{nid}", lambda nid=nid: query(nid), check_query, kind="query")
            if i % QUERY_CHUNK == 0:
                between()

        def oracle():
            x0 = batch.per_node[self.oracle_node].x0
            q = cc.quantize_node(net, self.oracle_node)
            return cc.convergence_report(q, self.p["oracle_tmax"], x0)

        def check_oracle(report) -> checks.Checks:
            rates = [pt.rate for pt in report.points]
            return checks.oracle_series(rates, report.solver_capacity, report.final_gap)

        run("oracle", oracle, check_oracle)
        between()


# --- long-trace ---------------------------------------------------------------


class LongTrace:
    def __init__(self, inputs: Path, work: Path) -> None:
        self.p = gen.PARAMS["long-trace"]
        self.inputs, self.work = inputs, work
        self.expected = json.loads((inputs / "expected.json").read_text())
        self.iid = json.loads((inputs / "iid.json").read_text())["class_mass"]
        markov = json.loads((inputs / "markov.json").read_text())
        self.states = markov["states"]
        self.rows = markov["transitions"]
        self.initial = markov["initial"]
        self.source = cc.MarkovSource(
            states=tuple(self.states),
            transitions=tuple(tuple(r) for r in self.rows),
            initial=tuple(self.initial),
        )
        n = self.expected["symbols"]
        self.empirical = {c: v / n for c, v in self.expected["iid_counts"].items() if v}
        self.windows = sorted(inputs.glob("window-*.trace"))

    def window_sweep(self, run: Runner, stage: str, between: Callable[[], None]) -> None:
        for i, path in enumerate(self.windows):
            run(
                f"window:{stage}:{i}",
                lambda path=path: cc.block_entropy_estimate(cc.read_trace(path), 1).value,
                lambda value, i=i: checks.close("window_estimate", value, self.expected["window_entropy"][i]),
                kind="window",
            )
            if (i + 1) % WINDOW_CHUNK == 0:
                between()

    def run_pass(self, run: Runner, between: Callable[[], None] = _nothing) -> None:
        """The long-trace jobs, with a sweep over the windows after each stage."""
        e, n = self.expected, self.p["symbols"]
        iid_path, markov_path = self.work / "iid.trace", self.work / "markov.trace"
        iid = run("sample_iid", lambda: cc.sample_iid(self.iid, n, e["iid_seed"]))
        markov = run(
            "sample_markov",
            lambda: cc.sample_markov(self.states, self.rows, self.initial, n, e["markov_seed"]),
        )
        self.window_sweep(run, "sampled", between)
        run(
            "write",
            lambda: (cc.write_trace(iid, iid_path), cc.write_trace(markov, markov_path)),
            lambda _: checks.file_sha256(iid_path, e["iid_sha256"]) + checks.file_sha256(markov_path, e["markov_sha256"]),
        )
        read = run(
            "read",
            lambda: (cc.read_trace(iid_path), cc.read_trace(markov_path)),
            lambda out: checks.round_trip(iid, out[0]) + checks.round_trip(markov, out[1]),
        )
        iid_read, markov_read = read if read else (None, None)
        self.window_sweep(run, "read", between)
        for k in self.p["orders"]:
            run(
                f"estimate:markov:o{k}",
                lambda k=k: cc.block_entropy_estimate(markov_read, k).value,
                (lambda value: checks.markov_estimate(value, e["entropy_rate"])) if k == 1 else None,
            )
        run("estimate:iid:o0", lambda: cc.block_entropy_estimate(iid_read, 0).value)
        self.window_sweep(run, "estimated", between)

        scenario = self.inputs / "onenode.json"

        def efficiency():
            net = cc.load_scenario(scenario)
            cc.scenario_digest(scenario)
            empirical = cc.empirical_distribution(iid_read)
            from_trace = cc.entropy_efficiency(net, "n", cc.EmpiricalSource(trace=iid_read))
            from_chain = cc.entropy_efficiency(net, "n", self.source)
            return empirical, from_trace, from_chain

        def check_efficiency(out) -> checks.Checks:
            empirical, from_trace, from_chain = out
            return (
                [("empirical_distribution", empirical == self.empirical)]
                + checks.close("markov_entropy_rate", from_chain.entropy_bits_per_file, e["entropy_rate"])
                + [("efficiency_positive", 0.0 < from_trace.efficiency_bits_per_time <= from_trace.capacity_bits_per_time)]
            )

        run("efficiency", efficiency, check_efficiency)
        self.window_sweep(run, "efficiency", between)


# --- summaries ----------------------------------------------------------------


def median(xs: list[float]) -> float:
    return statistics.median(xs)


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]
