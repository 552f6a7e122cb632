import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import cachecap
import cachecap.cli as cli
import cachecap.oracle
from cachecap import (
    analyze_network,
    count_series,
    load_scenario,
    MarkovSource,
    sample_iid,
    write_trace,
)

from conftest import (
    CLI_FIXTURES,
    FAR_ROOT_TERMS,
    FIXTURE_DIR,
    REPO_ROOT,
    record_calls,
    scenario_path,
    text_fixture,
)
from test_cli_corpus import run_main


# Each JSON fixture's text twin, byte for byte, digest included. The JSON
# fixtures themselves are compared, digests masked, by
# ``test_acceptance.py::test_criterion_7_cli_fixtures`` in a real process.
TEXT_FIXTURES = [text_fixture(fixture, args) for fixture, args in CLI_FIXTURES]


@pytest.mark.parametrize("name, args", TEXT_FIXTURES, ids=[name for name, _ in TEXT_FIXTURES])
def test_text_reports_match_shipped_fixtures(name, args, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert run_main(args) == (0, (FIXTURE_DIR / name).read_text(encoding="utf-8"), "")


def json_report(*args: str) -> dict:
    """The ``--json`` report of a run that exits 0; scenario names are under ``scenarios/``."""
    words = [str(scenario_path(a[len("scenarios/"):])) if a.startswith("scenarios/") else a for a in args]
    code, out, err = run_main([*words, "--json"])
    assert code == 0, (args, err)
    return json.loads(out)


class TestCapacityCommand:
    def test_fig1_values(self):
        report = json_report("capacity", "scenarios/fig1.json")
        by_node = {row["node"]: row for row in report["nodes"]}
        assert by_node["w2"]["capacity_bits_per_time"] == pytest.approx(3.324, abs=1e-3)
        assert by_node["w1"]["capacity_bits_per_time"] == 0.0
        assert report["network_capacity_bits_per_time"] == pytest.approx(3.324, abs=1e-3)

    def test_fig2_values(self):
        report = json_report("capacity", "scenarios/fig2.json")
        by_node = {row["node"]: row for row in report["nodes"]}
        assert by_node["w2"]["capacity_bits_per_time"] == pytest.approx(3.449, abs=2e-3)
        assert by_node["w3"]["capacity_bits_per_time"] == pytest.approx(3.449, abs=2e-3)
        assert report["network_capacity_bits_per_time"] == pytest.approx(6.898, abs=2e-3)

    def test_empty_network(self):
        report = json_report("capacity", "scenarios/empty.json")
        assert report["network_capacity_bits_per_time"] == 0.0
        assert report["nodes"] == []

    def test_json_round_trips_to_in_memory_results(self):
        report = json_report("capacity", "scenarios/fig2.json")
        result = analyze_network(load_scenario(scenario_path("fig2.json")))
        assert report["network_capacity_bits_per_time"] == result.network_capacity
        for row in report["nodes"]:
            assert row["x0"] == result.per_node[row["node"]].x0
            assert row["capacity_bits_per_time"] == result.per_node[row["node"]].capacity_bits_per_time

    def test_human_output_mentions_every_node(self):
        code, out, _ = run_main(["capacity", str(scenario_path("fig2.json"))])
        assert code == 0
        for token in ("w1", "w2", "w3", "network capacity", "scenario digest"):
            assert token in out


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_main(["validate", str(scenario_path("fig1.json"))])[0] == 0

    def test_usage_error_is_one(self):
        for args in (["capacity"], ["frobnicate", "x"]):
            code, out, err = run_main(args)
            assert (code, out) == (1, "") and err.startswith("error: "), args

    def test_solver_tolerance_is_not_an_option(self):
        code, out, err = run_main(["capacity", str(scenario_path("fig1.json")), "--tol", "1e-6"])
        assert (code, out) == (1, "") and "unrecognized arguments: --tol" in err

    def test_closed_stdout_is_one_without_a_traceback(self):
        # About 5 MB of JSON: far more than a pipe holds, so the writer meets
        # the closed pipe while printing.
        args = ["oracle", "scenarios/three-file.json", "n", "--tmax", "5000", "--json"]
        with subprocess.Popen(
            [sys.executable, "-m", "cachecap", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=REPO_ROOT,
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert proc.returncode == 1
        assert stderr == b""

    def test_solver_failure_is_two(self, monkeypatch):
        from cachecap import SolverError

        def boom(args, net):
            raise SolverError("bracketing failed")

        monkeypatch.setitem(cli._COMMANDS, "capacity", (boom, lambda r: ""))
        code, _, err = run_main(["capacity", str(scenario_path("fig1.json"))])
        assert code == 2
        assert "computation failed" in err


class TestCompareCommand:
    def test_distinct_vs_shared_content(self):
        report = json_report("compare", "scenarios/fig2.json", "scenarios/fig2-shared.json")
        deltas = {row["node"]: row["delta"] for row in report["nodes"]}
        assert deltas["w1"] == 0.0
        assert deltas["w2"] == pytest.approx(-0.125578, abs=1e-4)
        assert deltas["w3"] == pytest.approx(-0.125578, abs=1e-4)
        assert report["network"]["capacity_a"] == pytest.approx(6.898, abs=2e-3)
        assert report["network"]["capacity_b"] == pytest.approx(6.647, abs=2e-3)

    def test_identical_scenarios_have_zero_deltas(self):
        report = json_report("compare", "scenarios/fig1.json", "scenarios/fig1.json")
        assert all(row["delta"] == 0.0 for row in report["nodes"])
        assert report["network"]["delta"] == 0.0

    def test_halved_times_double_every_capacity(self, tmp_path):
        doc = json.loads(scenario_path("fig1.json").read_text(encoding="utf-8"))
        for link in doc["links"]:
            link["time"] = link["time"] / 2
        halved = tmp_path / "fig1-halved.json"
        halved.write_text(json.dumps(doc), encoding="utf-8")
        for row in json_report("compare", "scenarios/fig1.json", str(halved))["nodes"]:
            assert row["capacity_b"] == pytest.approx(2 * row["capacity_a"], rel=1e-9, abs=1e-12)


class TestGenTrace:
    def gen_trace(self, tmp_path, body: dict, n: int, seed: str) -> Path:
        """The trace ``gen-trace`` writes from a spec of ``body``."""
        spec, out = tmp_path / "src.json", tmp_path / "t.trace"
        spec.write_text(json.dumps(body), encoding="utf-8")
        args = ["gen-trace", str(spec), "--n", str(n), "--seed", seed, "--out", str(out)]
        assert run_main(args)[0] == 0
        return out

    def test_degenerate_source_writes_identical_lines(self, tmp_path):
        out = self.gen_trace(tmp_path, {"type": "iid", "class_mass": {"only": 1.0}}, 3, "5")
        assert out.read_text(encoding="utf-8").splitlines()[1:] == ["only", "only", "only"]

    def test_fixed_seed_reruns_are_byte_identical(self, tmp_path):
        body = {
            "type": "markov",
            "states": ["a", "b"],
            "transitions": [[0.9, 0.1], [0.2, 0.8]],
            "initial": [1.0, 0.0],
        }
        first = self.gen_trace(tmp_path, body, 2000, "9").read_bytes()
        assert self.gen_trace(tmp_path, body, 2000, "9").read_bytes() == first

    def test_uniform_binary_frequencies(self, tmp_path):
        out = self.gen_trace(tmp_path, {"type": "iid", "class_mass": {"0": 0.5, "1": 0.5}}, 100000, "7")
        symbols = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        freq = symbols.count("0") / len(symbols)
        assert abs(freq - 0.5) < 0.01

    # SHA-256 of the trace file, computed before the sampling loop was
    # rewritten around bisect; the walk must keep every byte.
    PINNED = {
        "iid": (
            {"type": "iid", "class_mass": {"own": 0.55, "lib": 0.3, "web": 0.1, "tmp": 0.0, "x": 0.05}},
            "2024",
            "aa07105902a5dcaa577fae3f3e307474ac2f7bf11821b2538ed3e0dc07bf1142",
        ),
        "markov-initial": (
            {
                "type": "markov",
                "states": ["a", "b", "c"],
                "transitions": [[0.7, 0.2, 0.1], [0.0, 0.5, 0.5], [0.3, 0.3, 0.4]],
                "initial": [0.0, 0.25, 0.75],
            },
            "31",
            "882c9ef6b4f41176f835832d80df36883c6186c4cbe6f370695030c5960e0bca",
        ),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_trace_bytes_are_pinned(self, tmp_path, name):
        body, seed, digest = self.PINNED[name]
        out = self.gen_trace(tmp_path, body, 10000, seed)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestEfficiencyCommand:
    THREE = str(scenario_path("three-file.json"))

    def efficiency(self, *args: str) -> dict:
        """The ``--json`` report of ``efficiency`` on three-file's node ``n``."""
        return json_report("efficiency", self.THREE, "n", *args)

    def test_trace_report_echoes_order_zero_by_default(self, tmp_path):
        trace = tmp_path / "t.trace"
        write_trace(sample_iid({"fast": 0.5, "slow": 0.5}, 100, seed=1), trace)
        assert self.efficiency("--trace", str(trace))["source"]["order"] == 0

    def test_optimal_source_reports_full_utilization(self):
        report = json_report("efficiency", "scenarios/fig1.json", "w2", "--optimal")
        assert report["efficiency_bits_per_time"] == pytest.approx(3.324, abs=1e-3)
        assert report["utilization_ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_uniform_source_on_three_files(self, tmp_path):
        spec = tmp_path / "uniform.json"
        spec.write_text(
            json.dumps({"type": "iid", "class_mass": {"fast": 2 / 3, "slow": 1 / 3}}),
            encoding="utf-8",
        )
        report = self.efficiency("--source", str(spec))
        assert report["efficiency_bits_per_time"] == pytest.approx(1.18872, abs=1e-5)
        assert report["utilization_ratio"] == pytest.approx(0.935, abs=1e-3)

    def test_markov_trace_matches_analytic_rate_within_5_percent(self, tmp_path):
        spec = tmp_path / "chain.json"
        chain = MarkovSource(
            states=("fast", "slow"), transitions=((0.75, 0.25), (0.25, 0.75))
        )
        spec.write_text(
            json.dumps(
                {
                    "type": "markov",
                    "states": list(chain.states),
                    "transitions": [list(r) for r in chain.transitions],
                }
            ),
            encoding="utf-8",
        )
        trace_path = tmp_path / "chain.trace"
        gen = ["gen-trace", str(spec), "--n", "50000", "--seed", "42", "--out", str(trace_path)]
        assert run_main(gen)[0] == 0
        report = self.efficiency("--trace", str(trace_path), "--order", "1")
        analytic = chain.entropy({}).value / 1.5  # E[tau] at the stationary marginal
        assert report["efficiency_bits_per_time"] == pytest.approx(analytic, rel=0.05)


class TestReports:
    def test_every_command_supports_json_with_a_digest(self, tmp_path):
        spec = tmp_path / "src.json"
        spec.write_text(json.dumps({"type": "iid", "class_mass": {"own": 1.0}}), encoding="utf-8")
        commands = [
            ["capacity", "scenarios/fig1.json"],
            ["optimal", "scenarios/fig1.json", "w2"],
            ["efficiency", "scenarios/fig1.json", "w2", "--optimal"],
            ["oracle", "scenarios/three-file.json", "n", "--tmax", "20"],
            ["compare", "scenarios/fig1.json", "scenarios/fig2.json"],
            ["validate", "scenarios/fig1.json"],
            ["gen-trace", str(spec), "--n", "100", "--seed", "1", "--out", str(tmp_path / "t.trace")],
        ]
        for args in commands:
            report = json_report(*args)
            assert next(iter(report)) == "command"
            assert report["command"] == args[0]
            if args[0] != "gen-trace":  # the one verb without a scenario
                assert '"digest"' in json.dumps(report)

    def test_oracle_series_uses_decimal_strings(self):
        report = json_report("oracle", "scenarios/three-file.json", "n", "--tmax", "30")
        assert all(isinstance(row["nu"], str) for row in report["series"])
        assert report["final_gap"] < 0.05

    def test_oracle_prints_counts_beyond_the_int_to_str_digit_limit(self, three_file, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)  # the report echoes the scenario path
        code, out, err = run_main(["oracle", "scenarios/three-file.json", "n", "--tmax", "12000", "--json"])
        assert code == 0, err
        last = json.loads(out)["series"][-1]
        assert last["T"] == 12000
        assert len(last["nu"]) > 4300
        exact = count_series(cachecap.quantize_node(three_file, "n"), 12000)[12000]
        assert Decimal(last["nu"]) == Decimal(exact)  # Decimal(int) has no digit limit
        # The whole stdout, layout included, as ``json.dumps(report, indent=2)`` printed it.
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "7ea6c3adb79cc99c42817f300119886aa5708d12bb1cb0d5b97c92ee6cefb96e"

    # One node whose four classes share two read times (a:3, b:5 at 1; c:7, d:2
    # at 3). SHA-256 of the text stdout and of the JSON series at --tmax 3000,
    # computed while the recurrence still ran one term per class: counting per
    # memory kind must keep every byte.
    SHARED_TIMES = """{
  "classes": [{"id": "a", "count": 3}, {"id": "b", "count": 5},
              {"id": "c", "count": 7}, {"id": "d", "count": 2}],
  "nodes": [{"id": "n", "stores": ["a", "b", "c", "d"]}],
  "links": [
    {"reader": "n", "provider": "n", "time": 1, "classes": ["a", "b"]},
    {"reader": "n", "provider": "n", "time": 3, "classes": ["c", "d"]}
  ]
}
"""
    SHARED_TEXT_SHA = "e70f9cf2781e4dc425945772281c8dc169a603b5085048e79fff0391cc87446b"
    SHARED_SERIES_SHA = "f65e091ecbb1d67b1270907fbca4ec1bd00e691892a713027662ce47d3b0c076"

    def test_shared_time_oracle_output_is_pinned(self, tmp_path):
        path = tmp_path / "shared.json"
        path.write_text(self.SHARED_TIMES, encoding="utf-8")
        args = ["oracle", str(path), "n", "--tmax", "3000"]
        code, text, _ = run_main(args)
        assert code == 0
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.SHARED_TEXT_SHA
        code, out, _ = run_main([*args, "--json"])
        assert code == 0
        series = json.dumps(json.loads(out)["series"])
        assert hashlib.sha256(series.encode("utf-8")).hexdigest() == self.SHARED_SERIES_SHA


class TestStrictInputs:
    """The digest describes the bytes that were parsed; malformed input is in ``FAILED_RUNS``."""

    def test_digest_is_of_the_bytes_parsed(self, tmp_path, monkeypatch):
        scenario, replacement = tmp_path / "s.json", tmp_path / "next.json"
        parsed = scenario_path("fig1.json").read_bytes()
        scenario.write_bytes(parsed)
        replacement.write_bytes(scenario_path("fig2.json").read_bytes())
        real_open = Path.open

        def open_then_replace(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            if self == scenario and replacement.exists():
                os.replace(replacement, scenario)  # the open handle keeps the old bytes
            return handle

        monkeypatch.setattr(Path, "open", open_then_replace)
        code, out, _ = run_main(["validate", str(scenario), "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["nodes"] == 2
        assert report["scenario"]["digest"] == hashlib.sha256(parsed).hexdigest()


# --- failed runs --------------------------------------------------------------

EFF = "efficiency scenarios/fig1.json w2 --source {spec} --json"
GEN = "gen-trace {spec} --n 10 --out {out}"
NAN_SPEC = '{"type": "iid", "class_mass": {"own": NaN, "lib": 1.0}}'
HALVES = '{"type": "iid", "class_mass": {"a": 0.5, "b": 0.5}}'
BIG = 10**400  # an integer beyond the float range
LONG = "1" + "0" * 5000  # an integer literal past Python's 4,300-digit limit on int(str)
HUGE_TIME_FIG1 = scenario_path("fig1.json").read_text(encoding="utf-8").replace('"time": 10}', f'"time": {BIG}}}')


def markov(fields: str, states: str = '["a", "b"]') -> str:
    return f'{{"type": "markov", "states": {states}, {fields}}}'


def one_node(*links: dict, stores=("a", "b"), counts=None, node="n") -> str:
    """A scenario of one node that stores ``stores`` (one file each, unless
    ``counts`` says otherwise) and reads from itself over ``links``."""
    counts = counts or dict.fromkeys(stores, 1)
    return json.dumps(
        {
            "classes": [{"id": cid, "count": count} for cid, count in counts.items()],
            "nodes": [{"id": node, "stores": list(stores)}],
            "links": [{"reader": node, "provider": node, **link} for link in links],
        }
    )


(FAST_COUNT, FAST), (SLOW_COUNT, SLOW) = FAR_ROOT_TERMS

# One row per failed run: id, input files (name -> text), the ``cli.main``
# words, the exit code and the whole stderr without its newline. ``{name}``
# is the path of input ``name``, and ``{out}`` a path beside them; no run may
# write a file there. A stderr ending in ``...`` pins only the package's prefix of a one-line
# message whose rest is Python's own text.
FAILED_RUNS = [
    ("invalid-scenario", {}, "capacity scenarios/bad-time.json", 1, "error: link w2->w2: non-positive time 0"),
    (
        "zero-capacity-optimal", {}, "optimal scenarios/fig1.json w1", 1,
        "error: node 'w1' has zero capacity; no optimal access distribution exists",
    ),
    (
        "off-grid-oracle", {}, "oracle scenarios/offgrid.json n --grid 1", 1,
        "error: class 'b': time 2.5 is not a multiple of grid 1.0",
    ),
    (
        "missing-file", {}, "capacity scenarios/nope.json", 1,
        "error: [Errno 2] No such file or directory: 'scenarios/nope.json'",
    ),
    ("unknown-node", {}, "optimal scenarios/fig1.json ghost", 1, "error: unknown node 'ghost'"),
    # 10**18 counts would take about 8e18 bytes: the allocation fails at once.
    (
        "oracle-horizon-too-large-to-allocate", {}, "oracle scenarios/three-file.json n --tmax 1000000000000000000",
        2, "computation failed: MemoryError",
    ),
    (
        "root-beyond-float-range",
        {"s": one_node({"time": FAST, "classes": ["a"]}, {"time": SLOW, "classes": ["b"]},
                       counts={"a": FAST_COUNT, "b": SLOW_COUNT})},
        "capacity {s}", 2, "computation failed: root exceeds the representable range",
    ),
    (
        "gen-trace-unknown-type", {"spec": '{"type": "laplace"}'}, "gen-trace {spec} --n 3 --out {out}", 1,
        "error: source spec {spec}: unknown type 'laplace' (expected iid or markov)",
    ),
    # The trace is allocated before the first draw, so these fail at once.
    *(
        (f"length-{n}-too-large-to-hold", {"spec": '{"type": "iid", "class_mass": {"a": 1.0}}'},
         f"gen-trace {{spec}} --n {n} --out {{out}}", 2, f"computation failed: trace length {n} is too large to hold")
        for n in (2**62, 10**20)
    ),
    *(
        (f"{flag}-without-a-trace-{source}", {"spec": '{"type": "iid", "class_mass": {"own": 1.0}}'},
         f"efficiency scenarios/fig1.json w2 {words}", 1, "error: --order and --force apply only with --trace")
        for flag, flag_words in (("order", "--order 7"), ("force", "--force"))
        for source, words in (("optimal", f"--optimal {flag_words}"), ("source", f"--source {{spec}} {flag_words}"))
    ),
    # The usage rule is checked before the scenario is read.
    (
        "order-without-a-trace-and-a-missing-scenario", {}, "efficiency scenarios/nope.json w2 --optimal --order 1", 1,
        "error: --order and --force apply only with --trace",
    ),
    (
        "trace-with-a-byte-order-mark", {"trace": "\ufeff#cachecap-trace v1\nfast\nslow\n"},
        "efficiency scenarios/three-file.json n --trace {trace}", 1,
        "error: trace file {trace} starts with a UTF-8 byte order mark",
    ),
    *(
        (f"nan-mass-{verb}", {"spec": NAN_SPEC}, words, 1,
         "error: bad source spec {spec}: class_mass: probability nan is not a finite number")
        for verb, words in (("efficiency", EFF), ("gen-trace", GEN))
    ),
    *(
        (f"markov-states-{kind}", {"spec": markov('"transitions": [[0.5, 0.5], [0.5, 0.5]]', states)}, GEN, 1,
         f"error: bad source spec {{spec}}: {message}")
        for kind, states, message in (
            ("numbers", "[1, 2]", "Markov 'states' must be strings, got 1"),
            ("string", '"ab"', "'states' must be an array"),
        )
    ),
    *(
        (kind, {"spec": markov(fields)}, GEN, 1, f"error: bad source spec {{spec}}: {message}")
        for kind, fields, message in (
            ("transitions-row-string", '"transitions": ["10", "01"]', "'transitions' row 0 must be an array"),
            ("transitions-object", '"transitions": {"a": [1, 0], "b": [0, 1]}', "'transitions' must be an array"),
            ("transitions-row-number", '"transitions": [[0.5, 0.5], 1]', "'transitions' row 1 must be an array"),
            ("initial-string", '"transitions": [[1, 0], [0, 1]], "initial": "ab"', "'initial' must be an array"),
            ("initial-object", '"transitions": [[1, 0], [0, 1]], "initial": {"a": 1, "b": 0}', "'initial' must be an array"),
        )
    ),
    *(
        (f"class-mass-{kind}-{verb}", {"spec": f'{{"type": "iid", "class_mass": {mass}}}'}, words, 1,
         "error: bad source spec {spec}: 'class_mass' must be a mapping, got list")
        for kind, mass in (("pairs", '[["own", 0.9], ["lib", 0.1]]'), ("mixed-pairs", '[[1, 0.5], ["a", 0.5]]'))
        for verb, words in (("efficiency", EFF), ("gen-trace", GEN))
    ),
    (
        "stores-a-class-twice", {"s": one_node({"time": 1}, stores=("a", "a", "b"))}, "validate {s}", 1,
        "error: node 'n' stores class 'a' twice",
    ),
    (
        "link-lists-a-class-twice", {"s": one_node({"time": 1, "classes": ["b", "b"]})}, "validate {s}", 1,
        "error: link n->n: class 'b' listed twice",
    ),
    ("scenario-nested-too-deep", {"s": "[" * 100_000 + "]" * 100_000}, "validate {s}", 1, "error: invalid JSON in {s}: ..."),
    (
        "source-spec-nested-too-deep", {"spec": '{"type": ' * 100_000 + "1" + "}" * 100_000}, GEN, 1,
        "error: invalid JSON in source spec {spec}: ...",
    ),
    (
        "probability-string", {"spec": '{"type": "iid", "class_mass": {"a": "1"}}'}, "gen-trace {spec} --n 5 --out {out}",
        1, "error: bad source spec {spec}: class_mass: probability '1' is not a finite number",
    ),
    (
        "probability-null", {"spec": markov('"transitions": [[1, 0], [null, 1]]')}, "gen-trace {spec} --n 5 --out {out}",
        1, "error: bad source spec {spec}: transition row 1: probability None is not a finite number",
    ),
    *(
        (f"seed-{seed}", {"spec": HALVES}, f"gen-trace {{spec}} --n 5 --seed {seed} --out {{out}}", 1,
         f"error: seed must be an integer in [0, 2**64), got {seed}")
        for seed in ("-1", "18446744073709551616", "99999999999999999999999")
    ),
    ("negative-length", {"spec": HALVES}, "gen-trace {spec} --n -1 --out {out}", 1, "error: n must be >= 0, got -1"),
    *(
        (f"source-spec-{kind}-{verb}", {"spec": text}, words, 1, f"error: source spec {{spec}}{message}")
        for kind, text, message in (
            ("not-an-object", "[1]", " must be an object with a 'type' field"),
            ("unknown-type", '{"type": "zipf"}', ": unknown type 'zipf' (expected iid or markov)"),
        )
        for verb, words in (
            ("gen-trace", "gen-trace {spec} --n 5 --out {out}"),
            ("efficiency", "efficiency scenarios/fig1.json w2 --source {spec}"),
        )
    ),
    (
        "mean-read-time-underflows", {"s": one_node({"time": 5e-324}), "spec": HALVES},
        "efficiency {s} n --source {spec}", 1, "error: mean read time at node 'n' is not positive",
    ),
    (
        "mean-read-time-beyond-float-range",
        {"s": one_node({"time": 1.7976931348623157e308}),
         "spec": '{"type": "iid", "class_mass": {"a": 0.5000000005, "b": 0.5}}'},
        "efficiency {s} n --source {spec} --json", 1, "error: mean read time at node 'n' is beyond the float range",
    ),
    (
        "ids-that-would-not-read-back",
        {"spec": '{"type": "iid", "class_mass": {"#a": 0.5, " b": 0.25, "": 0.25}}'},
        "gen-trace {spec} --n 8 --out {out}", 1,
        "error: trace id '' cannot be written: ids must be one non-empty line of UTF-8 text "
        "without surrounding whitespace, not starting with '#' or U+FEFF",
    ),
    *(
        (f"integer-time-beyond-float-range-{verb}", {"s": HUGE_TIME_FIG1}, f"{verb} {{s}} --json", 1,
         "error: link w2->w1: time is too large for a float")
        for verb in ("validate", "capacity")
    ),
    *(
        (f"integer-probability-beyond-float-range-{field}-{verb}", {"spec": text}, words, 1,
         f"error: bad source spec {{spec}}: {vector}: probability {BIG} is not a finite number")
        for field, vector, text in (
            ("class_mass", "class_mass", f'{{"type": "iid", "class_mass": {{"own": {BIG}, "lib": 0.0}}}}'),
            ("transitions", "transition row 0", markov(f'"transitions": [[{BIG}, 0], [0.5, 0.5]]', '["own", "lib"]')),
            (
                "initial", "initial distribution",
                markov(f'"transitions": [[0.5, 0.5], [0.5, 0.5]], "initial": [0, {BIG}]', '["own", "lib"]'),
            ),
        )
        for verb, words in (("efficiency", EFF), ("gen-trace", GEN))
    ),
    *(
        (f"integer-past-digit-limit-{kind}", {name: text}, words, 1, f"error: invalid JSON in {what}: ...")
        for kind, name, text, words, what in (
            ("scenario", "s", '{"classes": [{"id": "a", "count": ' + LONG + "}]}", "validate {s}", "{s}"),
            ("gen-trace", "spec", '{"type": "iid", "class_mass": {"a": ' + LONG + "}}", GEN, "source spec {spec}"),
            ("efficiency", "spec", '{"type": "iid", "class_mass": {"a": ' + LONG + "}}", EFF, "source spec {spec}"),
        )
    ),
    # A lone surrogate is valid JSON (an escape) but no text a report can print.
    ("node-id-not-text", {"s": one_node(node="n\ud800")}, "capacity {s}", 1,
     "error: node id 'n\\ud800' is not valid Unicode text"),
    ("class-id-not-text", {"s": one_node({"time": 1}, stores=("a\ud800",))}, "optimal {s} n", 1,
     "error: class id 'a\\ud800' is not valid Unicode text"),
    (
        "oracle-time-too-small-for-a-grid", {"s": one_node({"time": 1e-7}, stores=("a",), counts={"a": 2})},
        "oracle {s} n", 1, "error: time 1e-07 has no grid with denominator <= 1000000; pass --grid",
    ),
    (
        "oracle-grid-too-fine-for-a-float", {}, "oracle scenarios/three-file.json n --grid 1e-320 --json", 1,
        "error: class 'fast': time 1.0 / grid 1e-320 is not a finite number of steps",
    ),
    (
        "duplicate-key-in-source-spec", {"spec": '{"type": "iid", "class_mass": {"own": 1.0, "own": 1.0}}'},
        "efficiency scenarios/fig1.json w2 --source {spec}", 1,
        "error: invalid JSON in source spec {spec}: duplicate key 'own'",
    ),
    (
        "scenario-not-utf8", {}, "validate tests/fixtures/corpus.utf16-scenario.json", 1,
        "error: invalid JSON in tests/fixtures/corpus.utf16-scenario.json: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    (
        "source-spec-not-utf8", {},
        "efficiency scenarios/three-file.json n --source tests/fixtures/corpus.latin1-spec.json", 1,
        "error: invalid JSON in source spec tests/fixtures/corpus.latin1-spec.json: "
        "'utf-8' codec can't decode byte 0xff in position 42: invalid start byte",
    ),
    (
        "trace-not-utf8", {}, "efficiency scenarios/three-file.json n --trace tests/fixtures/corpus.latin1.trace", 1,
        "error: trace file tests/fixtures/corpus.latin1.trace is not UTF-8: "
        "'utf-8' codec can't decode byte 0xff in position 21: invalid start byte",
    ),
    # A byte of a command-line path that is not UTF-8 reaches ``main`` as a lone
    # surrogate (``surrogateescape``), which the report could not print.
    *(
        (f"out-path-not-text-{kind}", {"spec": HALVES}, f"gen-trace {{spec}} --n 3 --out {{out}}\udcff{fmt}", 1,
         "error: --out path '{out}\\udcff' is not valid Unicode text")
        for kind, fmt in (("text-report", ""), ("json-report", " --json"))
    ),
]


@pytest.mark.parametrize(
    "files, words, code, stderr", [r[1:] for r in FAILED_RUNS], ids=[r[0] for r in FAILED_RUNS]
)
def test_a_failed_run_prints_its_error_and_nothing_else(
    files, words, code, stderr, tmp_path, monkeypatch
):
    paths = {name: str(tmp_path / name) for name in [*files, "out"]}
    for name, text in files.items():
        Path(paths[name]).write_text(text, encoding="utf-8")

    def fill(text: str) -> str:
        for name, path in paths.items():
            text = text.replace(f"{{{name}}}", path)
        return text

    monkeypatch.chdir(REPO_ROOT)
    exit_code, out, err = run_main([fill(word) for word in words.split()])
    assert (exit_code, out) == (code, "")
    expected = fill(stderr)
    if expected.endswith("..."):
        assert err.startswith(expected[:-3]) and err.index("\n") == len(err) - 1, err
    else:
        assert err == expected + "\n"
    assert sorted(os.listdir(tmp_path)) == sorted(files)  # no ``--out`` file, nor any other


@pytest.fixture
def work(monkeypatch):
    """The calls that build a catalog (``EffectiveCatalog`` constructions) and solve an equation."""
    return {
        "catalogs": record_calls(monkeypatch, cachecap.model, "EffectiveCatalog"),
        "solves": record_calls(monkeypatch, cachecap.capacity, "solve_characteristic_full"),
    }


class TestWorkPerCall:
    """One effective catalog and one solve per node result."""

    FIG1 = str(scenario_path("fig1.json"))
    THREE = str(scenario_path("three-file.json"))

    def run(self, work, *args: str) -> tuple[int, int]:
        for calls in work.values():
            calls.clear()
        assert run_main([*args, "--json"])[0] == 0
        return len(work["catalogs"]), len(work["solves"])

    def test_optimal(self, work):
        assert self.run(work, "optimal", self.FIG1, "w2") == (1, 1)

    def test_efficiency_source_and_trace(self, work, tmp_path):
        spec = tmp_path / "src.json"
        spec.write_text(json.dumps({"type": "iid", "class_mass": {"own": 0.9, "lib": 0.1}}))
        args = ("efficiency", self.FIG1, "w2", "--source", str(spec))
        assert self.run(work, *args) == (1, 1)
        trace = tmp_path / "t.trace"
        write_trace(sample_iid({"fast": 0.5, "slow": 0.5}, 100, seed=1), trace)
        args = ("efficiency", self.THREE, "n", "--trace", str(trace))
        assert self.run(work, *args) == (1, 1)

    def test_efficiency_optimal(self, work):
        assert self.run(work, "efficiency", self.FIG1, "w2", "--optimal") == (1, 1)

    def test_oracle(self, work):
        assert self.run(work, "oracle", self.THREE, "n", "--tmax", "60") == (1, 1)


def test_queries_after_analyze_build_and_solve_nothing(work):
    net = load_scenario(scenario_path("fig2.json"))
    result = analyze_network(net)
    assert (len(work["catalogs"]), len(work["solves"])) == (3, 3)
    for node in net.nodes:
        capacity = cachecap.node_capacity(net, node.id)
        assert capacity == result.per_node[node.id].capacity_bits_per_time
        if capacity == 0.0:  # w1 reads over no link
            with pytest.raises(cachecap.ScenarioError, match="zero capacity"):
                cachecap.optimal_distribution(net, node.id)
            with pytest.raises(ValueError, match="empty catalog"):
                cachecap.quantize_node(net, node.id)
            continue
        dist = cachecap.optimal_distribution(net, node.id)
        source = cachecap.IIDSource(class_mass=dist.class_mass)
        assert cachecap.entropy_efficiency(net, node.id, source).utilization_ratio == pytest.approx(1.0)
        assert cachecap.quantize_node(net, node.id).grid == 1.0
    assert analyze_network(net) == result
    assert (len(work["catalogs"]), len(work["solves"])) == (3, 3)


def test_failures_are_raised_every_time_and_never_kept(work):
    # 10**7 files read in 1e-300 time units each: x0 = 2**(log2(1e7) * 1e300), beyond any float.
    net = cachecap.build_network(
        {
            "classes": [{"id": "c", "count": 10**7}],
            "nodes": [{"id": "n", "stores": ["c"]}],
            "links": [{"reader": "n", "provider": "n", "time": 1e-300}],
        }
    )
    for _ in range(2):
        with pytest.raises(cachecap.SolverError):
            cachecap.node_capacity(net, "n")
        with pytest.raises(cachecap.ScenarioError, match="unknown node 'ghost'"):
            cachecap.node_capacity(net, "ghost")
    # n's catalog is built once and kept; its solve is tried each time, and ghost
    # raises before any catalog is built.
    assert (len(work["catalogs"]), len(work["solves"])) == (1, 2)


def test_a_kept_catalog_is_the_same_object(work):
    net = load_scenario(scenario_path("fig2.json"))
    for node in net.nodes:
        assert cachecap.effective_catalog(net, node.id) is cachecap.effective_catalog(net, node.id)
    assert len(work["catalogs"]) == len(net.nodes)


def test_oracle_digits_are_computed_only_when_a_report_is_serialized(monkeypatch):
    """The decimal rerun belongs to ``series``; ``convergence_report`` never pays for it."""
    calls = record_calls(monkeypatch, cachecap.oracle, "_decimal_series", lambda q, t_max: t_max)
    q = cachecap.oracle.QuantizedCatalog(int_times=((2, 1), (1, 2)), grid=1.0)
    report = cachecap.convergence_report(q, 60, 1 + 2**0.5)
    assert calls == []
    report.series()
    assert calls == [60]
    three = str(scenario_path("three-file.json"))
    for extra in ([], ["--json"]):
        calls.clear()
        assert run_main(["oracle", three, "n", "--tmax", "60", *extra])[0] == 0
        assert calls == [60]


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """A link with no ``classes`` list covers its provider's stored classes, a
    frozenset whose order follows the hash seed; the reports must not."""
    ids = ["q", "w", "e", "r", "t", "y", "u", "i", "o", "p"]
    doc = {
        "classes": [{"id": c, "count": 1 + 7**k % 11} for k, c in enumerate(ids)],
        "nodes": [
            {"id": "all", "stores": ids},
            {"id": "half", "stores": ids[::2]},
            {"id": "few", "stores": ids[1:6]},
            {"id": "n", "stores": []},
        ],
        "links": [
            {"reader": "n", "provider": "all", "time": 3.0},
            {"reader": "n", "provider": "half", "time": 1.5},
            {"reader": "n", "provider": "few", "time": 1.0},
            {"reader": "n", "provider": "few", "time": 0.5, "classes": ["w"]},
        ],
    }
    scenario = tmp_path / "hashed.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    runs = [
        ["capacity", str(scenario), "--json"],
        ["optimal", str(scenario), "n", "--json"],
        ["efficiency", str(scenario), "n", "--optimal", "--json"],
        ["oracle", str(scenario), "n", "--tmax", "60", "--json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    outputs = []
    for seed in ("0", "1"):  # one interpreter per seed runs every verb
        proc = subprocess.run(
            [sys.executable, "-c", verbs_program(runs)],
            env=env | {"PYTHONHASHSEED": seed},
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def verb_runs(tmp_path_factory) -> dict[str, list[list[str]]]:
    """The ``cli.main`` argument lists that exercise each verb, by verb."""
    tmp_path = tmp_path_factory.mktemp("verb-runs")
    chain, iid, trace = tmp_path / "chain.json", tmp_path / "iid.json", tmp_path / "t.trace"
    chain.write_text(
        '{"type": "markov", "states": ["fast", "slow"], "transitions": [[0.75, 0.25], [0.25, 0.75]]}',
        encoding="utf-8",
    )
    iid.write_text('{"type": "iid", "class_mass": {"fast": 0.6, "slow": 0.4}}', encoding="utf-8")
    write_trace(sample_iid({"fast": 0.5, "slow": 0.5}, 500, 0), trace)
    three = str(scenario_path("three-file.json"))
    return {
        "capacity": [["capacity", three]],
        "optimal": [["optimal", three, "n"]],
        "efficiency": [
            ["efficiency", three, "n", "--source", str(chain)],
            ["efficiency", three, "n", "--optimal"],
            ["efficiency", three, "n", "--trace", str(trace), "--order", "1"],
        ],
        "oracle": [["oracle", three, "n", "--tmax", "60"]],
        "compare": [["compare", str(scenario_path("fig2.json")), str(scenario_path("fig2-shared.json"))]],
        "gen-trace": [
            ["gen-trace", str(chain), "--n", "500", "--out", str(tmp_path / "gen.trace")],
            ["gen-trace", str(iid), "--n", "500", "--out", str(tmp_path / "iid.trace")],
        ],
        "validate": [["validate", three]],
    }


def modules_after(code: str, tmp_path: Path) -> set[str]:
    """The ``sys.modules`` names of a fresh interpreter that has run ``code``."""
    loaded = tmp_path / "modules.txt"
    code += f"\nimport sys\nopen({str(loaded)!r}, 'w').write(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(loaded.read_text().split())


def verbs_program(runs: list[list[str]]) -> str:
    """Python code that runs ``cli.main`` on each argument list and fails unless each exits 0."""
    return f"import cachecap.cli as cli\nfor words in {runs!r}:\n    assert cli.main(words) == 0, words"


def modules_after_verbs(runs: list[list[str]], tmp_path: Path) -> set[str]:
    return modules_after(verbs_program(runs), tmp_path)


@pytest.fixture(scope="module")
def modules_after_every_verb(verb_runs, tmp_path_factory) -> set[str]:
    """The ``sys.modules`` names of one fresh interpreter that has run every verb."""
    assert set(verb_runs) == set(cli._COMMANDS)
    runs = [words for verb_words in verb_runs.values() for words in verb_words]
    return modules_after_verbs(runs, tmp_path_factory.mktemp("every-verb"))


def test_no_verb_loads_numpy(modules_after_every_verb):
    """numpy is a test and bench dependency only: neither ``import cachecap.cli``
    nor any verb may load it, the Markov stationary solve and both trace verbs
    included (``import numpy`` alone costs more than a 10^5-symbol trace)."""
    assert "numpy" not in modules_after_every_verb


def test_no_verb_loads_dataclasses(modules_after_every_verb):
    """Every record is a named tuple: ``import dataclasses`` would pull in
    ``inspect``, ``ast``, ``dis`` and ``tokenize`` at every start."""
    assert "dataclasses" not in modules_after_every_verb


LAYER_MODULES = {f"cachecap.{layer}" for layer in ("model", "capacity", "oracle", "entropy", "traces")}
# What each verb may not load. Only `oracle` needs the big-integer layer, and
# with it `decimal` and `fractions`; only the source and trace verbs need
# `entropy` and `traces`. A new verb must state its line here.
ORACLE_LAYER = {"cachecap.oracle", "decimal", "fractions"}
TRACE_LAYERS = {"cachecap.entropy", "cachecap.traces"}
NOT_LOADED_BY_VERB = {
    "capacity": ORACLE_LAYER | TRACE_LAYERS,
    "optimal": ORACLE_LAYER | TRACE_LAYERS,
    "compare": ORACLE_LAYER | TRACE_LAYERS,
    "validate": ORACLE_LAYER | TRACE_LAYERS,
    "efficiency": ORACLE_LAYER,
    "gen-trace": ORACLE_LAYER,
    "oracle": TRACE_LAYERS,
}


@pytest.mark.parametrize("verb", sorted(cli._COMMANDS))
def test_each_verb_loads_only_the_layers_it_runs(verb, verb_runs, tmp_path):
    loaded = modules_after_verbs(verb_runs[verb], tmp_path)
    assert {"cachecap.model", "cachecap.capacity"} <= loaded
    assert loaded.isdisjoint(NOT_LOADED_BY_VERB[verb]), sorted(loaded & NOT_LOADED_BY_VERB[verb])


def test_importing_the_package_loads_no_layer(tmp_path):
    loaded = modules_after("import cachecap", tmp_path)
    assert "cachecap" in loaded and loaded.isdisjoint(LAYER_MODULES | {"cachecap.cli"})


def test_a_first_network_analysis_loads_only_model_and_capacity(tmp_path):
    """A package name binds from its own layer and the layers before it in
    ``cachecap._LAYERS``; ``load_scenario`` takes no digest, so no hashlib."""
    bare = modules_after("", tmp_path)
    fig2 = str(scenario_path("fig2.json"))
    loaded = modules_after(
        f"import cachecap\ncachecap.analyze_network(cachecap.load_scenario({fig2!r}))", tmp_path
    )
    assert {"cachecap.model", "cachecap.capacity"} <= loaded
    assert sorted(loaded & (ORACLE_LAYER | TRACE_LAYERS)) == []
    assert "hashlib" not in loaded - bare


def test_a_first_trace_name_loads_neither_entropy_nor_oracle(tmp_path):
    loaded = modules_after("import cachecap\ncachecap.sample_iid({'a': 1.0}, 3, 0)", tmp_path)
    assert "cachecap.traces" in loaded
    assert loaded.isdisjoint({"cachecap.entropy", "cachecap.oracle"})


@pytest.mark.parametrize(
    "code",
    [
        "assert len(cachecap.__all__) > 40",
        "for _ in range(2):\n    assert not hasattr(cachecap, 'no_such_name')",
    ],
    ids=["__all__", "unknown-name"],
)
def test_all_or_an_unknown_name_loads_every_layer(code, tmp_path):
    assert LAYER_MODULES <= modules_after(f"import cachecap\n{code}", tmp_path)


def test_every_readme_command_line_parses():
    """Each ``cachecap ...`` line in README's sh blocks is accepted by the parser (nothing runs)."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["cachecap"]]
    assert len(commands) >= len(cli._COMMANDS)
    parser = cli._build_parser()
    for words in commands:
        parser.parse_args(words)
