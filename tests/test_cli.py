import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cachecap
import cachecap.cli as cli
from cachecap import (
    analyze_network,
    load_scenario,
    markov_entropy_rate,
    MarkovSource,
    sample_iid,
    write_trace,
)

from conftest import FIXTURE_DIR, REPO_ROOT, scenario_path

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


FIXTURES = [
    ("fig1.capacity.json", ["capacity", "scenarios/fig1.json", "--json"]),
    ("fig2.capacity.json", ["capacity", "scenarios/fig2.json", "--json"]),
    ("fig2-shared.capacity.json", ["capacity", "scenarios/fig2-shared.json", "--json"]),
    ("three-file.capacity.json", ["capacity", "scenarios/three-file.json", "--json"]),
    ("empty.capacity.json", ["capacity", "scenarios/empty.json", "--json"]),
    ("fig1.optimal-w2.json", ["optimal", "scenarios/fig1.json", "w2", "--json"]),
    (
        "fig1.efficiency-optimal-w2.json",
        ["efficiency", "scenarios/fig1.json", "w2", "--optimal", "--json"],
    ),
    ("three-file.oracle-n.json", ["oracle", "scenarios/three-file.json", "n", "--tmax", "60", "--json"]),
    (
        "fig2-vs-shared.compare.json",
        ["compare", "scenarios/fig2.json", "scenarios/fig2-shared.json", "--json"],
    ),
]


@pytest.mark.parametrize("fixture,args", FIXTURES, ids=[f for f, _ in FIXTURES])
def test_json_reports_match_shipped_fixtures(fixture, args):
    expected = (FIXTURE_DIR / fixture).read_text(encoding="utf-8")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert mask_digests(proc.stdout) == mask_digests(expected)


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


class TestEfficiencyCommand:
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
        trace = tmp_path / "t.trace"
        run_cli("gen-trace", str(spec), "--n", "100", "--seed", "1", "--out", str(trace))
        commands = [
            ["capacity", "scenarios/fig1.json"],
            ["optimal", "scenarios/fig1.json", "w2"],
            ["efficiency", "scenarios/fig1.json", "w2", "--optimal"],
            ["oracle", "scenarios/three-file.json", "n", "--tmax", "20"],
            ["compare", "scenarios/fig1.json", "scenarios/fig2.json"],
            ["validate", "scenarios/fig1.json"],
        ]
        for args in commands:
            proc = run_cli(*args, "--json")
            assert proc.returncode == 0, (args, proc.stderr)
            report = json.loads(proc.stdout)
            assert report["command"] == args[0]
            blob = json.dumps(report)
            assert '"digest"' in blob

    def test_oracle_series_uses_decimal_strings(self):
        report = json.loads(
            run_cli("oracle", "scenarios/three-file.json", "n", "--tmax", "30", "--json").stdout
        )
        assert all(isinstance(row["nu"], str) for row in report["series"])
        assert report["final_gap"] < 0.05


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
    """Counts catalog builds and characteristic solves at every cachecap reference."""
    counts = {"catalogs": 0, "solves": 0}
    modules = [cachecap, cachecap.model, cachecap.capacity, cachecap.oracle, cachecap.entropy, cli]
    for key, fn in [
        ("catalogs", cachecap.model.effective_catalog),
        ("solves", cachecap.capacity.solve_characteristic_full),
    ]:

        def counted(*args, _key=key, _fn=fn, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
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
        catalogs, solves = self.run(work, capsys, "efficiency", self.FIG1, "w2", "--optimal")
        assert catalogs <= 2 and solves <= 2

    def test_oracle(self, work, capsys):
        assert self.run(work, capsys, "oracle", self.THREE, "n", "--tmax", "60") == (1, 1)
