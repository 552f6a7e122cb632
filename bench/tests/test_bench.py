"""Tests of the benchmark itself: generator, checker and tracer.

    python -m pytest bench/tests -q
"""

import hashlib
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.PARAMS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    a = _files(tmp_path / "a")
    assert a == _files(tmp_path / "b")
    assert a != _files(tmp_path / "c")


# sha256 of write_trace(sample_iid({"c00": .1, "c01": .2, "c02": .3, "c03": .4}, 1000, 42))
# as the program produced it when the benchmark was defined.
PINNED_IID_SHA256 = "a2224b73d6b31bc21e6dece68ab11b564a203b6f74afa57416e9f99547a1f017"


def test_reference_trace_hash_is_pinned():
    ids = gen.class_ids(4)
    masses = [0.1, 0.2, 0.3, 0.4]
    data = gen.trace_bytes(ids, gen.iid_indices(masses, 1000, 42))
    assert data.startswith(b"#cachecap-trace v1\n")
    assert hashlib.sha256(data).hexdigest() == PINNED_IID_SHA256


def test_checker_flags_a_perturbed_x0():
    # 2*x**-1 + x**-2 = 1 has the root 1 + sqrt(2).
    terms = [(2, 1.0), (1, 2.0)]
    x0 = 1.0 + math.sqrt(2.0)
    assert checks.node_solution(terms, x0, math.log2(x0)) == [("char_residual", True)]
    bad = x0 * (1.0 + 1e-6)
    assert checks.node_solution(terms, bad, math.log2(bad)) == [("char_residual", False)]


def test_checker_flags_a_trace_with_one_flipped_byte(tmp_path):
    data = gen.trace_bytes(gen.class_ids(3), gen.iid_indices([0.5, 0.25, 0.25], 500, 7))
    expected = hashlib.sha256(data).hexdigest()
    path = tmp_path / "t.trace"
    path.write_bytes(data)
    assert checks.file_sha256(path, expected) == [("trace_sha256", True)]
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    path.write_bytes(bytes(flipped))
    assert checks.file_sha256(path, expected) == [("trace_sha256", False)]


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1, "j", None],
        ["a", 1.0, 4.0, 0, "j", None],
        ["a.child", 2.0, 3.0, 1, "j", None],
        ["b", 5.0, 9.0, 0, "j", None],
        ["lone", 20.0, 21.5, -1, "k", None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    tree = [
        ["root", 0.0, 10.0, -1, None, None],
        ["x", 1.0, 5.0, 0, None, None],
        ["y", 3.0, 7.0, 0, None, None],
        ["z", 9.0, 12.0, 0, None, None],  # clipped at the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_every_public_function_is_wrapped_and_then_restored():
    modules = spans.cachecap_modules()
    before = [dict(vars(m)) for m in modules]
    public = spans.public_functions()
    assert {name.split(".")[0] for name in public} == set(spans.LAYERS)

    tracer = spans.Tracer()
    with tracer:
        for name in public:
            layer, func = name.split(".")
            assert getattr(sys.modules[f"cachecap.{layer}"], func).__bench_traced__
        import cachecap

        # Cross-layer references are wrapped too.
        assert cachecap.capacity.effective_catalog.__bench_traced__
        assert cachecap.cli.analyze_network.__bench_traced__
        assert cachecap.analyze_network.__bench_traced__
        net = cachecap.load_scenario(BENCH.parent / "scenarios" / "fig1.json")
        cachecap.analyze_network(net)

    for module, saved in zip(modules, before):
        for attr, value in saved.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr} not restored"
    names = [s[0] for s in tracer.spans]
    assert names[0] == "model.load_scenario" and names[1] == "model.build_network"
    assert tracer.spans[1][3] == 0
    top = names.index("capacity.analyze_network")
    catalog = names.index("model.effective_catalog", top)
    parent = tracer.spans[catalog][3]
    while tracer.spans[parent][3] != -1:
        parent = tracer.spans[parent][3]
    assert parent == top
