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
    markov_entropy_rate,
    MarkovSource,
    sample_iid,
    write_trace,
)

from conftest import (
    CLI_FIXTURES,
    FAR_ROOT_TERMS,
    FIXTURE_DIR,
    REPO_ROOT,
    scenario_path,
    text_fixture,
)

DIGEST_RE = re.compile(r'"digest": "[0-9a-f]{64}"')


def run_cli(*args: str, cwd=REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cachecap", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def mask_digests(text: str) -> str:
    return DIGEST_RE.sub('"digest": "<digest>"', text)


@pytest.mark.parametrize("fixture,args", CLI_FIXTURES, ids=[f for f, _ in CLI_FIXTURES])
def test_json_reports_match_shipped_fixtures(fixture, args):
    expected = (FIXTURE_DIR / fixture).read_text(encoding="utf-8")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert mask_digests(proc.stdout) == mask_digests(expected)

    text_name, text_args = text_fixture(fixture, args)
    proc = run_cli(*text_args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (FIXTURE_DIR / text_name).read_text(encoding="utf-8")


class TestCapacityCommand:
    def test_fig1_values(self):
        proc = run_cli("capacity", "scenarios/fig1.json", "--json")
        report = json.loads(proc.stdout)
        by_node = {row["node"]: row for row in report["nodes"]}
        assert by_node["w2"]["capacity_bits_per_time"] == pytest.approx(3.324, abs=1e-3)
        assert by_node["w1"]["capacity_bits_per_time"] == 0.0
        assert report["network_capacity_bits_per_time"] == pytest.approx(3.324, abs=1e-3)

    def test_fig2_values(self):
        report = json.loads(run_cli("capacity", "scenarios/fig2.json", "--json").stdout)
        by_node = {row["node"]: row for row in report["nodes"]}
        assert by_node["w2"]["capacity_bits_per_time"] == pytest.approx(3.449, abs=2e-3)
        assert by_node["w3"]["capacity_bits_per_time"] == pytest.approx(3.449, abs=2e-3)
        assert report["network_capacity_bits_per_time"] == pytest.approx(6.898, abs=2e-3)

    def test_empty_network(self):
        report = json.loads(run_cli("capacity", "scenarios/empty.json", "--json").stdout)
        assert report["network_capacity_bits_per_time"] == 0.0
        assert report["nodes"] == []

    def test_json_round_trips_to_in_memory_results(self):
        report = json.loads(run_cli("capacity", "scenarios/fig2.json", "--json").stdout)
        result = analyze_network(load_scenario(scenario_path("fig2.json")))
        assert report["network_capacity_bits_per_time"] == result.network_capacity
        for row in report["nodes"]:
            assert row["x0"] == result.per_node[row["node"]].x0
            assert row["capacity_bits_per_time"] == result.per_node[row["node"]].capacity_bits_per_time

    def test_human_output_mentions_every_node(self):
        out = run_cli("capacity", "scenarios/fig2.json").stdout
        for token in ("w1", "w2", "w3", "network capacity", "scenario digest"):
            assert token in out


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("validate", "scenarios/fig1.json").returncode == 0

    def test_invalid_scenario_is_one(self):
        proc = run_cli("capacity", "scenarios/bad-time.json")
        assert proc.returncode == 1
        assert "non-positive time" in proc.stderr

    def test_zero_capacity_optimal_is_one(self):
        proc = run_cli("optimal", "scenarios/fig1.json", "w1")
        assert proc.returncode == 1
        assert "zero capacity" in proc.stderr

    def test_off_grid_oracle_is_one_and_names_the_class(self):
        proc = run_cli("oracle", "scenarios/offgrid.json", "n", "--grid", "1")
        assert proc.returncode == 1
        assert "'b'" in proc.stderr

    def test_missing_file_is_one(self):
        assert run_cli("capacity", "scenarios/nope.json").returncode == 1

    def test_usage_error_is_one(self):
        assert run_cli("capacity").returncode == 1
        assert run_cli("frobnicate", "x").returncode == 1

    def test_solver_tolerance_is_not_an_option(self, capsys):
        assert cli.main(["capacity", str(scenario_path("fig1.json")), "--tol", "1e-6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --tol" in captured.err

    def test_oracle_horizon_too_large_to_allocate_is_two(self, capsys):
        # 10**18 counts would take about 8e18 bytes: the allocation fails at once.
        path = str(scenario_path("three-file.json"))
        assert cli.main(["oracle", path, "n", "--tmax", str(10**18)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "computation failed: MemoryError" in captured.err

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

    def test_root_beyond_float_range_is_two(self, tmp_path, capsys):
        (fast_count, fast), (slow_count, slow) = FAR_ROOT_TERMS
        path = tmp_path / "far.json"
        doc = {
            "classes": [{"id": "a", "count": fast_count}, {"id": "b", "count": slow_count}],
            "nodes": [{"id": "n", "stores": ["a", "b"]}],
            "links": [
                {"reader": "n", "provider": "n", "time": fast, "classes": ["a"]},
                {"reader": "n", "provider": "n", "time": slow, "classes": ["b"]},
            ],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["capacity", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "computation failed: root exceeds the representable range\n"

    def test_unknown_node_is_one(self):
        assert run_cli("optimal", "scenarios/fig1.json", "ghost").returncode == 1

    def test_solver_failure_is_two(self, monkeypatch, capsys):
        import cachecap.cli as cli
        from cachecap import SolverError

        def boom(args):
            raise SolverError("bracketing failed")

        monkeypatch.setitem(cli._COMMANDS, "capacity", (boom, lambda r: ""))
        code = cli.main(["capacity", str(scenario_path("fig1.json"))])
        assert code == 2
        assert "computation failed" in capsys.readouterr().err


class TestCompareCommand:
    def test_distinct_vs_shared_content(self):
        report = json.loads(
            run_cli(
                "compare", "scenarios/fig2.json", "scenarios/fig2-shared.json", "--json"
            ).stdout
        )
        deltas = {row["node"]: row["delta"] for row in report["nodes"]}
        assert deltas["w1"] == 0.0
        assert deltas["w2"] == pytest.approx(-0.125578, abs=1e-4)
        assert deltas["w3"] == pytest.approx(-0.125578, abs=1e-4)
        assert report["network"]["capacity_a"] == pytest.approx(6.898, abs=2e-3)
        assert report["network"]["capacity_b"] == pytest.approx(6.647, abs=2e-3)

    def test_identical_scenarios_have_zero_deltas(self):
        report = json.loads(
            run_cli("compare", "scenarios/fig1.json", "scenarios/fig1.json", "--json").stdout
        )
        assert all(row["delta"] == 0.0 for row in report["nodes"])
        assert report["network"]["delta"] == 0.0

    def test_halved_times_double_every_capacity(self, tmp_path):
        doc = json.loads(scenario_path("fig1.json").read_text(encoding="utf-8"))
        for link in doc["links"]:
            link["time"] = link["time"] / 2
        halved = tmp_path / "fig1-halved.json"
        halved.write_text(json.dumps(doc), encoding="utf-8")
        report = json.loads(
            run_cli("compare", str(scenario_path("fig1.json")), str(halved), "--json").stdout
        )
        for row in report["nodes"]:
            assert row["capacity_b"] == pytest.approx(2 * row["capacity_a"], rel=1e-9, abs=1e-12)


class TestGenTrace:
    def make_spec(self, tmp_path, body: dict):
        path = tmp_path / "src.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        return path

    def test_degenerate_source_writes_identical_lines(self, tmp_path):
        spec = self.make_spec(tmp_path, {"type": "iid", "class_mass": {"only": 1.0}})
        out = tmp_path / "t.trace"
        proc = run_cli("gen-trace", str(spec), "--n", "3", "--seed", "5", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == ["only", "only", "only"]

    def test_fixed_seed_reruns_are_byte_identical(self, tmp_path):
        spec = self.make_spec(
            tmp_path,
            {
                "type": "markov",
                "states": ["a", "b"],
                "transitions": [[0.9, 0.1], [0.2, 0.8]],
                "initial": [1.0, 0.0],
            },
        )
        out1, out2 = tmp_path / "a.trace", tmp_path / "b.trace"
        run_cli("gen-trace", str(spec), "--n", "2000", "--seed", "9", "--out", str(out1))
        run_cli("gen-trace", str(spec), "--n", "2000", "--seed", "9", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_uniform_binary_frequencies(self, tmp_path):
        spec = self.make_spec(tmp_path, {"type": "iid", "class_mass": {"0": 0.5, "1": 0.5}})
        out = tmp_path / "t.trace"
        run_cli("gen-trace", str(spec), "--n", "100000", "--seed", "7", "--out", str(out))
        symbols = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        freq = symbols.count("0") / len(symbols)
        assert abs(freq - 0.5) < 0.01

    def test_bad_source_spec_is_one(self, tmp_path):
        spec = self.make_spec(tmp_path, {"type": "laplace"})
        proc = run_cli("gen-trace", str(spec), "--n", "3", "--out", str(tmp_path / "t"))
        assert proc.returncode == 1

    @pytest.mark.parametrize("n", [2**62, 10**20])
    def test_length_too_large_to_hold_is_two_and_writes_no_file(self, tmp_path, capsys, n):
        # The trace is allocated before the first draw, so this fails at once.
        spec, out = self.make_spec(tmp_path, {"type": "iid", "class_mass": {"a": 1.0}}), tmp_path / "t"
        assert cli.main(["gen-trace", str(spec), "--n", str(n), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"computation failed: trace length {n} is too large to hold\n"
        assert not out.exists()

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
    def test_trace_bytes_are_pinned(self, tmp_path, capsys, name):
        body, seed, digest = self.PINNED[name]
        spec, out = self.make_spec(tmp_path, body), tmp_path / "t.trace"
        assert cli.main(["gen-trace", str(spec), "--n", "10000", "--seed", seed, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestEfficiencyCommand:
    @pytest.mark.parametrize("flag", [["--order", "7"], ["--force"]], ids=["order", "force"])
    def test_trace_flags_without_a_trace_are_usage_errors(self, flag, capsys, tmp_path):
        spec = tmp_path / "src.json"
        spec.write_text(json.dumps({"type": "iid", "class_mass": {"own": 1.0}}))
        fig1 = str(scenario_path("fig1.json"))
        for source in (["--optimal"], ["--source", str(spec)]):
            assert cli.main(["efficiency", fig1, "w2", *source, *flag]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --order and --force apply only with --trace\n"

    def test_trace_report_echoes_order_zero_by_default(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        write_trace(sample_iid({"fast": 0.5, "slow": 0.5}, 100, seed=1), trace)
        three = str(scenario_path("three-file.json"))
        assert cli.main(["efficiency", three, "n", "--trace", str(trace), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["source"]["order"] == 0

    def test_a_trace_with_a_byte_order_mark_exits_1_naming_the_file(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        write_trace(sample_iid({"fast": 0.5, "slow": 0.5}, 100, seed=1), trace)
        trace.write_bytes(b"\xef\xbb\xbf" + trace.read_bytes())
        three = str(scenario_path("three-file.json"))
        assert cli.main(["efficiency", three, "n", "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trace file {trace} starts with a UTF-8 byte order mark\n"

    def test_optimal_source_reports_full_utilization(self):
        report = json.loads(
            run_cli("efficiency", "scenarios/fig1.json", "w2", "--optimal", "--json").stdout
        )
        assert report["efficiency_bits_per_time"] == pytest.approx(3.324, abs=1e-3)
        assert report["utilization_ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_uniform_source_on_three_files(self, tmp_path):
        spec = tmp_path / "uniform.json"
        spec.write_text(
            json.dumps({"type": "iid", "class_mass": {"fast": 2 / 3, "slow": 1 / 3}}),
            encoding="utf-8",
        )
        report = json.loads(
            run_cli(
                "efficiency", "scenarios/three-file.json", "n", "--source", str(spec), "--json"
            ).stdout
        )
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
        run_cli("gen-trace", str(spec), "--n", "50000", "--seed", "42", "--out", str(trace_path))
        report = json.loads(
            run_cli(
                "efficiency",
                "scenarios/three-file.json",
                "n",
                "--trace",
                str(trace_path),
                "--order",
                "1",
                "--json",
            ).stdout
        )
        analytic = markov_entropy_rate(chain).value / 1.5  # E[tau] at the stationary marginal
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
            proc = run_cli(*args, "--json")
            assert proc.returncode == 0, (args, proc.stderr)
            report = json.loads(proc.stdout)
            assert next(iter(report)) == "command"
            assert report["command"] == args[0]
            if args[0] != "gen-trace":  # the one verb without a scenario
                assert '"digest"' in json.dumps(report)

    def test_oracle_series_uses_decimal_strings(self):
        report = json.loads(
            run_cli("oracle", "scenarios/three-file.json", "n", "--tmax", "30", "--json").stdout
        )
        assert all(isinstance(row["nu"], str) for row in report["series"])
        assert report["final_gap"] < 0.05

    def test_oracle_prints_counts_beyond_the_int_to_str_digit_limit(self, three_file):
        proc = run_cli("oracle", "scenarios/three-file.json", "n", "--tmax", "12000", "--json")
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout)["series"][-1]
        assert last["T"] == 12000
        assert len(last["nu"]) > 4300
        exact = count_series(cachecap.quantize_node(three_file, "n"), 12000)[12000]
        assert Decimal(last["nu"]) == Decimal(exact)  # Decimal(int) has no digit limit
        # The whole stdout, layout included, as ``json.dumps(report, indent=2)`` printed it.
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "7ea6c3adb79cc99c42817f300119886aa5708d12bb1cb0d5b97c92ee6cefb96e"

    def test_benchmark_oracle_job_stdout_is_pinned(self):
        """The ``cli-verbs`` benchmark's oracle job, byte for byte (about 5 MB of JSON)."""
        proc = run_cli("oracle", "scenarios/three-file.json", "n", "--tmax", "5000", "--json")
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "26747184390c83d84a6b48df46547b43b6e62b1b879a2bf193eba8d4d4f37c79"

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

    def test_shared_time_oracle_output_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "shared.json"
        path.write_text(self.SHARED_TIMES, encoding="utf-8")
        args = ["oracle", str(path), "n", "--tmax", "3000"]
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.SHARED_TEXT_SHA
        assert cli.main([*args, "--json"]) == 0
        series = json.dumps(json.loads(capsys.readouterr().out)["series"])
        assert hashlib.sha256(series.encode("utf-8")).hexdigest() == self.SHARED_SERIES_SHA


class TestStrictInputs:
    """Malformed input exits 1; the digest describes the bytes that were parsed."""

    NAN_SPEC = '{"type": "iid", "class_mass": {"own": NaN, "lib": 1.0}}'

    def spec(self, tmp_path, text: str) -> str:
        path = tmp_path / "src.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_nan_mass_efficiency_is_one(self, tmp_path, capsys):
        spec = self.spec(tmp_path, self.NAN_SPEC)
        fig1 = str(scenario_path("fig1.json"))
        assert cli.main(["efficiency", fig1, "w2", "--source", spec, "--json"]) == 1
        assert capsys.readouterr().out == ""

    def test_nan_mass_gen_trace_is_one(self, tmp_path):
        spec, out = self.spec(tmp_path, self.NAN_SPEC), tmp_path / "t.trace"
        assert cli.main(["gen-trace", spec, "--n", "10", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("states", ["[1, 2]", '"ab"'])
    def test_markov_states_must_be_a_list_of_strings(self, tmp_path, capsys, states):
        spec = self.spec(
            tmp_path,
            f'{{"type": "markov", "states": {states}, "transitions": [[0.5, 0.5], [0.5, 0.5]]}}',
        )
        out = tmp_path / "t.trace"
        assert cli.main(["gen-trace", spec, "--n", "10", "--out", str(out)]) == 1
        assert "'states'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"transitions": ["10", "01"]', "'transitions' row 0 must be an array"),
            ('"transitions": {"a": [1, 0], "b": [0, 1]}', "'transitions' must be an array"),
            ('"transitions": [[0.5, 0.5], 1]', "'transitions' row 1 must be an array"),
            ('"transitions": [[1, 0], [0, 1]], "initial": "ab"', "'initial' must be an array"),
            ('"transitions": [[1, 0], [0, 1]], "initial": {"a": 1, "b": 0}', "'initial' must be an array"),
        ],
        ids=["row-string", "transitions-object", "row-number", "initial-string", "initial-object"],
    )
    def test_markov_vectors_must_be_arrays(self, tmp_path, capsys, fields, message):
        spec = self.spec(tmp_path, f'{{"type": "markov", "states": ["a", "b"], {fields}}}')
        out = tmp_path / "t.trace"
        assert cli.main(["gen-trace", spec, "--n", "10", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("mass", ['[["own", 0.9], ["lib", 0.1]]', '[[1, 0.5], ["a", 0.5]]'])
    def test_class_mass_must_be_an_object(self, tmp_path, capsys, mass):
        spec = self.spec(tmp_path, f'{{"type": "iid", "class_mass": {mass}}}')
        fig1, out = str(scenario_path("fig1.json")), tmp_path / "t.trace"
        assert cli.main(["efficiency", fig1, "w2", "--source", spec, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "'class_mass'" in captured.err
        assert cli.main(["gen-trace", spec, "--n", "10", "--out", str(out)]) == 1
        assert "'class_mass'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "stores, link, message",
        [
            (["a", "a", "b"], {}, "node 'n' stores class 'a' twice"),
            (["a", "b"], {"classes": ["b", "b"]}, "link n->n: class 'b' listed twice"),
        ],
        ids=["stores", "link-classes"],
    )
    def test_class_listed_twice_is_one(self, tmp_path, capsys, stores, link, message):
        scenario = tmp_path / "twice.json"
        doc = {
            "classes": [{"id": "a"}, {"id": "b"}],
            "nodes": [{"id": "n", "stores": stores}],
            "links": [{"reader": "n", "provider": "n", "time": 1, **link}],
        }
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_scenario_nested_too_deep_to_parse_is_one(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert cli.main(["validate", str(deep)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid JSON" in captured.err

    def test_source_spec_nested_too_deep_to_parse_is_one(self, tmp_path, capsys):
        spec = self.spec(tmp_path, '{"type": ' * 100_000 + "1" + "}" * 100_000)
        out = tmp_path / "t.trace"
        assert cli.main(["gen-trace", spec, "--n", "10", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid JSON in source spec" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, vector",
        [
            ('{"type": "iid", "class_mass": {"a": "1"}}', "class_mass: probability '1'"),
            (
                '{"type": "markov", "states": ["a", "b"], "transitions": [[1, 0], [null, 1]]}',
                "transition row 1: probability None",
            ),
        ],
        ids=["iid-string", "markov-null"],
    )
    def test_probability_that_is_not_a_number_names_its_vector(
        self, tmp_path, capsys, spec, vector
    ):
        spec = self.spec(tmp_path, spec)
        out = tmp_path / "t.trace"
        assert cli.main(["gen-trace", spec, "--n", "5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"{vector} is not a finite number" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "99999999999999999999999"])
    def test_seed_outside_64_bits_is_one(self, tmp_path, capsys, seed):
        spec = self.spec(tmp_path, '{"type": "iid", "class_mass": {"a": 0.5, "b": 0.5}}')
        out = tmp_path / "t.trace"
        assert cli.main(["gen-trace", spec, "--n", "5", "--seed", seed, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must be an integer in [0, 2**64)" in captured.err
        assert not out.exists()

    def test_negative_length_is_one(self, tmp_path, capsys):
        spec = self.spec(tmp_path, '{"type": "iid", "class_mass": {"a": 0.5, "b": 0.5}}')
        out = tmp_path / "t.trace"
        assert cli.main(["gen-trace", spec, "--n", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: n must be >= 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("[1]", "must be an object with a 'type' field"), ('{"type": "zipf"}', "unknown type 'zipf'")],
        ids=["not-an-object", "unknown-type"],
    )
    def test_source_spec_without_a_known_type_is_one(self, tmp_path, capsys, text, message):
        spec, out = self.spec(tmp_path, text), tmp_path / "t.trace"
        fig1 = str(scenario_path("fig1.json"))
        runs = [["gen-trace", spec, "--n", "5", "--out", str(out)], ["efficiency", fig1, "w2", "--source", spec]]
        for args in runs:
            assert cli.main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err
        assert not out.exists()

    def test_mean_read_time_that_underflows_to_zero_is_one(self, tmp_path, capsys):
        doc = {
            "classes": [{"id": "a"}, {"id": "b"}],
            "nodes": [{"id": "n", "stores": ["a", "b"]}],
            "links": [{"reader": "n", "provider": "n", "time": 5e-324}],
        }
        scenario = tmp_path / "tiny.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        spec = self.spec(tmp_path, '{"type": "iid", "class_mass": {"a": 0.5, "b": 0.5}}')
        assert cli.main(["efficiency", str(scenario), "n", "--source", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mean read time at node 'n' is not positive\n"

    def test_ids_that_would_not_read_back_are_not_written(self, tmp_path, capsys):
        spec = self.spec(tmp_path, '{"type": "iid", "class_mass": {"#a": 0.5, " b": 0.25, "": 0.25}}')
        out = tmp_path / "t.trace"
        assert cli.main(["gen-trace", spec, "--n", "8", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot be written" in captured.err
        assert not out.exists()

    def test_integer_time_beyond_float_range_is_one(self, tmp_path, capsys):
        text = scenario_path("fig1.json").read_text(encoding="utf-8")
        assert text.count('"time": 10}') == 1
        scenario = tmp_path / "huge.json"
        scenario.write_text(text.replace('"time": 10}', f'"time": {10**400}}}'), encoding="utf-8")
        for verb in ("validate", "capacity"):
            assert cli.main([verb, str(scenario), "--json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: link w2->w1: time is too large for a float" in captured.err

    @pytest.mark.parametrize(
        "body",
        [
            f'"type": "iid", "class_mass": {{"own": {10**400}, "lib": 0.0}}',
            '"type": "markov", "states": ["own", "lib"], '
            f'"transitions": [[{10**400}, 0], [0.5, 0.5]]',
            '"type": "markov", "states": ["own", "lib"], "transitions": [[0.5, 0.5], [0.5, 0.5]], '
            f'"initial": [0, {10**400}]',
        ],
        ids=["class_mass", "transitions", "initial"],
    )
    def test_integer_probability_beyond_float_range_is_one(self, tmp_path, capsys, body):
        spec = self.spec(tmp_path, "{" + body + "}")
        fig1, out = str(scenario_path("fig1.json")), tmp_path / "t.trace"
        assert cli.main(["efficiency", fig1, "w2", "--source", spec, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "is not a finite number" in captured.err
        assert cli.main(["gen-trace", spec, "--n", "10", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "is not a finite number" in captured.err
        assert not out.exists()

    def test_oracle_names_a_time_too_small_for_a_grid(self, tmp_path, capsys):
        scenario = tmp_path / "tiny.json"
        scenario.write_text(
            json.dumps(
                {
                    "classes": [{"id": "a", "count": 2}],
                    "nodes": [{"id": "n", "stores": ["a"]}],
                    "links": [{"reader": "n", "provider": "n", "time": 1e-7}],
                }
            ),
            encoding="utf-8",
        )
        assert cli.main(["oracle", str(scenario), "n"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "time 1e-07 has no grid with denominator <= 1000000; pass --grid" in captured.err

    def test_oracle_grid_too_fine_for_a_float_is_one(self, capsys):
        three = str(scenario_path("three-file.json"))
        assert cli.main(["oracle", three, "n", "--grid", "1e-320", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "class 'fast': time 1.0 / grid 1e-320 is not a finite number" in captured.err

    def test_duplicate_key_in_source_spec_is_one(self, tmp_path, capsys):
        spec = self.spec(tmp_path, '{"type": "iid", "class_mass": {"own": 1.0, "own": 1.0}}')
        fig1 = str(scenario_path("fig1.json"))
        assert cli.main(["efficiency", fig1, "w2", "--source", spec]) == 1
        assert "duplicate key 'own'" in capsys.readouterr().err

    def test_digest_is_of_the_bytes_parsed(self, tmp_path, monkeypatch, capsys):
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
        assert cli.main(["validate", str(scenario), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nodes"] == 2
        assert report["scenario"]["digest"] == hashlib.sha256(parsed).hexdigest()


@pytest.fixture
def work(monkeypatch):
    """Counts catalog builds (``EffectiveCatalog`` constructions) and characteristic solves."""
    counts = {"catalogs": 0, "solves": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # ``effective_catalog`` builds every catalog, through the class's name in ``model``.
    catalog_class = cachecap.model.EffectiveCatalog
    monkeypatch.setattr(cachecap.model, "EffectiveCatalog", counting("catalogs", catalog_class))
    solve = cachecap.capacity.solve_characteristic_full
    counted_solve = counting("solves", solve)
    for module in [cachecap, cachecap.capacity, cachecap.oracle, cachecap.entropy, cli]:
        if getattr(module, solve.__name__, None) is solve:
            monkeypatch.setattr(module, solve.__name__, counted_solve)
    return counts


class TestWorkPerCall:
    """One effective catalog and one solve per node result."""

    FIG1 = str(scenario_path("fig1.json"))
    THREE = str(scenario_path("three-file.json"))

    def run(self, work, capsys, *args: str) -> tuple[int, int]:
        work.update(catalogs=0, solves=0)
        assert cli.main([*args, "--json"]) == 0
        capsys.readouterr()
        return work["catalogs"], work["solves"]

    def test_optimal(self, work, capsys):
        assert self.run(work, capsys, "optimal", self.FIG1, "w2") == (1, 1)

    def test_efficiency_source_and_trace(self, work, capsys, tmp_path):
        spec = tmp_path / "src.json"
        spec.write_text(json.dumps({"type": "iid", "class_mass": {"own": 0.9, "lib": 0.1}}))
        args = ("efficiency", self.FIG1, "w2", "--source", str(spec))
        assert self.run(work, capsys, *args) == (1, 1)
        trace = tmp_path / "t.trace"
        write_trace(sample_iid({"fast": 0.5, "slow": 0.5}, 100, seed=1), trace)
        args = ("efficiency", self.THREE, "n", "--trace", str(trace))
        assert self.run(work, capsys, *args) == (1, 1)

    def test_efficiency_optimal(self, work, capsys):
        assert self.run(work, capsys, "efficiency", self.FIG1, "w2", "--optimal") == (1, 1)

    def test_oracle(self, work, capsys):
        assert self.run(work, capsys, "oracle", self.THREE, "n", "--tmax", "60") == (1, 1)


def test_queries_after_analyze_build_and_solve_nothing(work):
    net = load_scenario(scenario_path("fig2.json"))
    result = analyze_network(net)
    assert (work["catalogs"], work["solves"]) == (3, 3)
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
    assert (work["catalogs"], work["solves"]) == (3, 3)


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
    assert (work["catalogs"], work["solves"]) == (1, 2)


def test_a_kept_catalog_is_the_same_object(work):
    net = load_scenario(scenario_path("fig2.json"))
    for node in net.nodes:
        assert cachecap.effective_catalog(net, node.id) is cachecap.effective_catalog(net, node.id)
    assert work["catalogs"] == len(net.nodes)


def test_oracle_digits_are_computed_only_when_a_report_is_serialized(monkeypatch, capsys):
    """The decimal rerun belongs to ``series``; ``convergence_report`` never pays for it."""
    calls = []
    real = cachecap.oracle._decimal_series

    def counted(q, t_max):
        calls.append(t_max)
        return real(q, t_max)

    monkeypatch.setattr(cachecap.oracle, "_decimal_series", counted)
    q = cachecap.oracle.QuantizedCatalog(int_times=((2, 1), (1, 2)), grid=1.0)
    report = cachecap.convergence_report(q, 60, 1 + 2**0.5)
    assert calls == []
    report.series()
    assert calls == [60]
    three = str(scenario_path("three-file.json"))
    for extra in ([], ["--json"]):
        calls.clear()
        assert cli.main(["oracle", three, "n", "--tmax", "60", *extra]) == 0
        capsys.readouterr()
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
        ["capacity", str(scenario)],
        ["optimal", str(scenario), "n"],
        ["efficiency", str(scenario), "n", "--optimal"],
        ["oracle", str(scenario), "n", "--tmax", "60"],
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for args in runs:
        outputs = set()
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "cachecap", *args, "--json"],
                env=env | {"PYTHONHASHSEED": seed},
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, args


def test_cli_import_does_not_load_numpy():
    code = "import sys, cachecap.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_trace_verbs_do_not_load_numpy(tmp_path):
    # `import numpy` alone costs more than sampling a 10^5-symbol trace in a
    # fresh interpreter, so neither trace verb may pull it in.
    spec, trace = tmp_path / "src.json", tmp_path / "t.trace"
    spec.write_text('{"type": "iid", "class_mass": {"fast": 0.6, "slow": 0.4}}', encoding="utf-8")
    three = scenario_path("three-file.json")
    code = (
        "import sys, cachecap.cli as cli\n"
        f"assert cli.main(['gen-trace', {str(spec)!r}, '--n', '500', '--out', {str(trace)!r}]) == 0\n"
        f"assert cli.main(['efficiency', {str(three)!r}, 'n', '--trace', {str(trace)!r}, '--order', '1']) == 0\n"
        "sys.exit(3 if 'numpy' in sys.modules else 0)"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def verb_runs(tmp_path_factory) -> dict[str, list[list[str]]]:
    """The ``cli.main`` argument lists that exercise each verb, by verb."""
    tmp_path = tmp_path_factory.mktemp("verb-runs")
    chain, trace = tmp_path / "chain.json", tmp_path / "t.trace"
    chain.write_text(
        '{"type": "markov", "states": ["fast", "slow"], "transitions": [[0.75, 0.25], [0.25, 0.75]]}',
        encoding="utf-8",
    )
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
        "gen-trace": [["gen-trace", str(chain), "--n", "500", "--out", str(tmp_path / "gen.trace")]],
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


def modules_after_verbs(runs: list[list[str]], tmp_path: Path) -> set[str]:
    code = f"import cachecap.cli as cli\nfor words in {runs!r}:\n    assert cli.main(words) == 0, words"
    return modules_after(code, tmp_path)


@pytest.fixture(scope="module")
def modules_after_every_verb(verb_runs, tmp_path_factory) -> set[str]:
    """The ``sys.modules`` names of one fresh interpreter that has run every verb."""
    assert set(verb_runs) == set(cli._COMMANDS)
    runs = [words for verb_words in verb_runs.values() for words in verb_words]
    return modules_after_verbs(runs, tmp_path_factory.mktemp("every-verb"))


def test_no_verb_loads_numpy(modules_after_every_verb):
    """numpy is a test and bench dependency only: no verb may import it,
    the Markov stationary solve included."""
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
