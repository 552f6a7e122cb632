"""Property tests of the command line, run in process through ``cli.main``:
the streamed ``--json`` writer against ``json.dumps``, and the exit codes of
every verb on random documents, and of the source-spec verbs on source
specs, with at most one junk value."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import cachecap.cli as cli
import cachecap.oracle as oracle
from cachecap import Network, convergence_report
from cachecap.oracle import QuantizedCatalog

from conftest import link_networks, scenario_path


def run_main(*args: str) -> tuple[int, str]:
    """``cli.main(args)``: its exit code and stdout; stderr is dropped. stdout
    is strict UTF-8, as a real one is, so text it cannot encode raises."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(args))
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8")


# --- the --json writer --------------------------------------------------------


@st.composite
def oracle_inputs(draw) -> tuple[QuantizedCatalog, int]:
    """A hand-built catalog (times may repeat) and a horizon at or above its largest time."""
    pairs = st.tuples(st.integers(1, 10**7), st.integers(1, 6))
    q = QuantizedCatalog(
        int_times=tuple(draw(st.lists(pairs, min_size=1, max_size=5))),
        grid=draw(st.floats(1e-6, 1e6)),
    )
    return q, draw(st.integers(q.max_time, 150))


def oracle_document(q: QuantizedCatalog, t_max: int, x0: float | None) -> dict:
    """A report with the oracle verb's fields, counted from ``q``."""
    report = convergence_report(q, t_max, x0)
    return {
        "command": "oracle",
        "scenario": {"path": "scenarios/n.json", "digest": "0" * 64},
        "node": "n",
        "grid": q.grid,
        "t_max": t_max,
        "solver_x0": x0,
        "solver_capacity_bits_per_time": report.solver_capacity,
        "final_gap": report.final_gap,
        "series": report.series(),
    }


@settings(max_examples=60, deadline=None)
@given(oracle_inputs(), st.one_of(st.none(), st.floats(0.0, 1e9)))
@example((QuantizedCatalog(int_times=(), grid=1.0), 0), None)  # empty series
@example((QuantizedCatalog(int_times=((3, 1),), grid=1.0), 1), 3.0)  # one row
@example((QuantizedCatalog(int_times=((3, 1), (5, 1), (7, 3), (2, 3)), grid=1.0), 60), 9.0)
def test_json_writer_prints_what_json_dumps_prints(inputs, x0):
    doc = oracle_document(*inputs, x0)
    with mock.patch.dict(cli._COMMANDS, {"oracle": (lambda args: doc, cli._render_oracle)}):
        code, out = run_main("oracle", "scenarios/n.json", "n", "--json")
    assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"


def test_a_rate_that_is_not_finite_exits_two_with_nothing_printed(monkeypatch, capsys):
    real = oracle.convergence_report

    def last_rate_infinite(q, t_max, x0):
        report = real(q, t_max, x0)
        last = report.points[-1]._replace(rate=math.inf)
        return report._replace(points=(*report.points[:-1], last))

    monkeypatch.setattr(oracle, "convergence_report", last_rate_infinite)
    three = str(scenario_path("three-file.json"))
    assert cli.main(["oracle", three, "n", "--tmax", "60", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "computation failed: oracle rate at T=60 is not finite: inf" in captured.err


# --- exit codes of every verb -------------------------------------------------

JUNK = [math.nan, math.inf, -math.inf, True, 10**400, -(10**400), None, "1", [], {}, "ghost", "\ud800"]


def network_document(net: Network) -> dict:
    return {
        "classes": [{"id": c.id, "count": c.count} for c in net.classes],
        "nodes": [{"id": n.id, "stores": sorted(n.stores)} for n in net.nodes],
        "links": [
            {"reader": l.reader, "provider": l.provider, "time": l.time}
            | ({} if l.classes is None else {"classes": sorted(l.classes)})
            for l in net.links
        ],
    }


def value_paths(value, path=()) -> list[tuple]:
    """The path of every value below the document root."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    paths = []
    for key, child in children:
        paths.append((*path, key))
        if isinstance(child, (dict, list)):
            paths.extend(value_paths(child, (*path, key)))
    return paths


def draw_junk_into(draw, doc) -> dict:
    """``doc``, edited in place: zero or one of its values, drawn from
    ``value_paths``, replaced by junk."""
    path = draw(st.one_of(st.none(), st.sampled_from(value_paths(doc))))
    if path is not None:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = draw(st.sampled_from(JUNK))
    return doc


@st.composite
def mutated_documents(draw) -> tuple[dict, list[str]]:
    """A ``link_networks`` document with zero or one value replaced by junk, and its node ids."""
    net = draw(link_networks())
    return draw_junk_into(draw, network_document(net)), [n.id for n in net.nodes]


def source_specs() -> list[dict]:
    """One valid spec of each type, over the classes of fig1's reader ``w2``;
    new dicts on each call, since ``draw_junk_into`` edits in place."""
    return [
        {"type": "iid", "class_mass": {"own": 0.9, "lib": 0.1}},
        {
            "type": "markov",
            "states": ["own", "lib"],
            "transitions": [[0.9, 0.1], [0.5, 0.5]],
            "initial": [1.0, 0.0],
        },
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_source_specs_with_junk_exit_0_1_or_2_and_raise_nothing(data):
    spec_doc = draw_junk_into(data.draw, data.draw(st.sampled_from(source_specs())))
    fig1 = str(scenario_path("fig1.json"))
    with tempfile.TemporaryDirectory() as tmp:
        spec, trace = str(Path(tmp, "src.json")), Path(tmp, "t.trace")
        Path(spec).write_text(json.dumps(spec_doc), encoding="utf-8")
        code, _ = run_main("gen-trace", spec, "--n", "50", "--out", str(trace))
        assert code in (0, 1, 2), spec_doc
        assert trace.exists() == (code == 0), spec_doc
        code, _ = run_main("efficiency", fig1, "w2", "--source", spec)
        assert code in (0, 1, 2), spec_doc


def check_report(args: list[str], report: dict) -> None:
    """What every report that exits 0 must hold."""

    def capacities(value):
        if isinstance(value, dict):
            for key, child in value.items():
                if "capacity" in key and isinstance(child, float):
                    yield child
                yield from capacities(child)
        elif isinstance(value, list):
            for child in value:
                yield from capacities(child)

    assert all(c >= 0 for c in capacities(report)), (args, report)
    if "--optimal" in args:
        assert abs(report["utilization_ratio"] - 1) <= 1e-9, (args, report)
    if args[0] == "oracle":
        assert math.isfinite(report["final_gap"]), (args, report)


@settings(max_examples=50, deadline=None)
@given(mutated_documents())
@example(  # a node id that is not text, which the capacity report would print
    ({"classes": [{"id": "a", "count": 1}], "nodes": [{"id": "\ud800", "stores": ["a"]}], "links": []}, ["\ud800"])
)
def test_every_verb_exits_0_1_or_2_and_raises_nothing(drawn):
    doc, node_ids = drawn
    with tempfile.TemporaryDirectory() as tmp:
        scenario = str(Path(tmp, "s.json"))
        Path(scenario).write_text(json.dumps(doc), encoding="utf-8")
        runs = [["capacity", scenario], ["validate", scenario]]
        runs.append(["compare", str(scenario_path("fig2.json")), scenario])
        for node in node_ids:
            runs.append(["optimal", scenario, node])
            runs.append(["oracle", scenario, node, "--tmax", "40"])
            runs.append(["efficiency", scenario, node, "--optimal"])
        for args in runs:  # grows: an optimal that exits 0 adds the trace verbs
            for fmt in ([], ["--json"]):
                code, out = run_main(*args, *fmt)
                assert code in (0, 1, 2), (args, fmt)
                if code != 0 or not fmt:
                    continue
                report = json.loads(out)
                check_report(args, report)
                if args[0] == "optimal":
                    node = args[2]
                    spec, trace = str(Path(tmp, f"{node}.src.json")), str(Path(tmp, f"{node}.trace"))
                    masses = {row["class"]: row["class_mass"] for row in report["classes"]}
                    Path(spec).write_text(json.dumps({"type": "iid", "class_mass": masses}))
                    runs.append(["gen-trace", spec, "--n", "300", "--out", trace])
                    runs.append(["efficiency", scenario, node, "--source", spec])
                    runs.append(["efficiency", scenario, node, "--trace", trace, "--force"])
