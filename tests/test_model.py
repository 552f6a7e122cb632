import gc
import hashlib
import json
import math
import random
from enum import IntEnum
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecap import (
    ScenarioError,
    build_network,
    effective_catalog,
    load_scenario,
    read_scenario,
    scenario_digest,
)
from cachecap.capacity import CapacityResult, NodeCapacity, OptimalDistribution
from cachecap.entropy import (
    EfficiencyResult,
    EmpiricalSource,
    EntropyEstimate,
    IIDSource,
    MarkovSource,
)
from cachecap.model import EffectiveCatalog, FileClass, Link, Network, Node
from cachecap.oracle import OraclePoint, OracleReport, QuantizedCatalog
from cachecap.traces import Trace

from conftest import SCENARIO_DIR, link_networks, scenario_path


def doc(classes=(), nodes=(), links=()):
    return {"classes": list(classes), "nodes": list(nodes), "links": list(links)}


class TestBuildNetwork:
    def test_fig1_scenario_is_valid(self, fig1):
        assert [n.id for n in fig1.nodes] == ["w1", "w2"]
        assert effective_catalog(fig1, "w2").counts == {"lib": 10**7, "own": 10}
        assert len(fig1.links) == 2

    def test_empty_document_is_valid(self):
        net = build_network(doc())
        assert net.nodes == ()

    def test_zero_link_time_rejected(self):
        bad = doc(
            classes=[{"id": "a", "count": 1}],
            nodes=[{"id": "n", "stores": ["a"]}],
            links=[{"reader": "n", "provider": "n", "time": 0}],
        )
        with pytest.raises(ScenarioError, match="non-positive time"):
            build_network(bad)

    @pytest.mark.parametrize("time", [-1, float("inf"), float("nan"), "fast", None])
    def test_bad_link_times_rejected(self, time):
        bad = doc(
            classes=[{"id": "a", "count": 1}],
            nodes=[{"id": "n", "stores": ["a"]}],
            links=[{"reader": "n", "provider": "n", "time": time}],
        )
        with pytest.raises(ScenarioError):
            build_network(bad)

    def test_duplicate_class_id_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate class id 'a'"):
            build_network(doc(classes=[{"id": "a", "count": 1}, {"id": "a", "count": 2}]))

    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate node id 'n'"):
            build_network(doc(nodes=[{"id": "n"}, {"id": "n"}]))

    def test_unknown_stored_class_rejected(self):
        with pytest.raises(ScenarioError, match="node 'n' stores unknown class 'ghost'"):
            build_network(doc(nodes=[{"id": "n", "stores": ["ghost"]}]))

    def test_dangling_link_endpoints_rejected(self):
        with pytest.raises(ScenarioError, match="unknown reader"):
            build_network(doc(links=[{"reader": "x", "provider": "y", "time": 1}]))
        with pytest.raises(ScenarioError, match="unknown provider 'y'"):
            build_network(
                doc(nodes=[{"id": "x"}], links=[{"reader": "x", "provider": "y", "time": 1}])
            )

    def test_zero_count_class_rejected(self):
        with pytest.raises(ScenarioError, match="non-positive count"):
            build_network(doc(classes=[{"id": "a", "count": 0}]))

    def test_fractional_count_rejected(self):
        with pytest.raises(ScenarioError, match="count must be an integer"):
            build_network(doc(classes=[{"id": "a", "count": 2.5}]))

    def test_integral_float_count_accepted(self):
        net = build_network(doc(classes=[{"id": "a", "count": 1e7}]))
        assert net.classes[0].count == 10**7

    def test_link_classes_must_be_stored_by_provider(self):
        bad = doc(
            classes=[{"id": "a", "count": 1}, {"id": "b", "count": 1}],
            nodes=[{"id": "p", "stores": ["a"]}, {"id": "r"}],
            links=[{"reader": "r", "provider": "p", "time": 1, "classes": ["b"]}],
        )
        with pytest.raises(ScenarioError, match="class 'b' is not stored by provider 'p'"):
            build_network(bad)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    # Every id-valued field of a document that is valid with string ids.
    ID_FIELDS = [
        ("classes", 0, "id"),
        ("nodes", 0, "id"),
        ("nodes", 0, "stores", 0),
        ("links", 0, "reader"),
        ("links", 0, "provider"),
        ("links", 0, "classes", 0),
    ]

    @pytest.mark.parametrize("field", ID_FIELDS, ids=["/".join(map(str, f)) for f in ID_FIELDS])
    def test_non_string_ids_rejected_not_coerced(self, field):
        good = doc(
            classes=[{"id": "1", "count": 1}],
            nodes=[{"id": "1", "stores": ["1"]}],
            links=[{"reader": "1", "provider": "1", "time": 1, "classes": ["1"]}],
        )
        build_network(good)
        *path, last = field
        target = good
        for key in path:
            target = target[key]
        target[last] = 1
        with pytest.raises(ScenarioError, match="must be a string, got 1"):
            build_network(good)

    @pytest.mark.parametrize(
        "text",
        [
            '{"classes": [], "classes": [{"id": "a"}]}',
            '{"classes": [{"id": "a", "count": 1, "count": 2}]}',
        ],
    )
    def test_duplicate_json_keys_rejected(self, tmp_path, text):
        path = tmp_path / "dup.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ScenarioError, match="duplicate key 'c"):
            load_scenario(path)

    def test_read_scenario_digest_is_of_the_parsed_file(self):
        path = scenario_path("fig1.json")
        net, digest = read_scenario(path)
        assert net == load_scenario(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("name", [p.name for p in sorted(SCENARIO_DIR.iterdir())])
    def test_scenario_digest_is_that_of_read_scenario_and_of_the_bytes(self, name):
        path = scenario_path(name)
        digest = scenario_digest(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        if name != "bad-time.json":  # invalid on purpose: it has a digest, but no network
            assert digest == read_scenario(path)[1]


def assert_each_id_and_time_kept_once(net: Network) -> None:
    """Every id a node or link names is its ``Node``'s or ``FileClass``'s own
    object, and links of one read time share one float."""
    class_ids = {fc.id: fc.id for fc in net.classes}
    node_ids = {node.id: node.id for node in net.nodes}
    for node in net.nodes:
        assert all(cid is class_ids[cid] for cid in node.stores), node.id
    times: dict[float, float] = {}
    for link in net.links:
        assert link.reader is node_ids[link.reader], link
        assert link.provider is node_ids[link.provider], link
        assert all(cid is class_ids[cid] for cid in link.classes or ()), link
        assert link.time is times.setdefault(link.time, link.time), link


def seeded_document(seed: int, links: int = 2_500) -> dict:
    """A scenario with 200 nodes, 40 classes and ``links`` links over 8 read
    times, some given as ints; about a third of the links list classes. Each
    mention of an id or a time is a fresh object, as a JSON parser makes it."""
    rng = random.Random(seed)
    n_nodes, n_classes = 200, 40
    stores = [rng.sample(range(n_classes), rng.randint(0, 6)) for _ in range(n_nodes)]
    out = doc(
        classes=[{"id": f"class-{j}", "count": rng.randint(1, 10**6)} for j in range(n_classes)],
        nodes=[{"id": f"node-{i}", "stores": [f"class-{j}" for j in stores[i]]} for i in range(n_nodes)],
    )
    for _ in range(links):
        reader, provider = rng.randrange(n_nodes), rng.randrange(n_nodes)
        time = rng.choice([1, 2, 3, 20, 0.5, 1.5, 2.5, 7.25])
        # ``time * 1`` is a new float object each time (an int stays an int).
        link = {"reader": f"node-{reader}", "provider": f"node-{provider}", "time": time * 1}
        if stores[provider] and rng.random() < 0.35:
            listed = rng.sample(stores[provider], rng.randint(1, len(stores[provider])))
            link["classes"] = [f"class-{j}" for j in listed]
        out["links"].append(link)
    return out


class TestEachIdAndTimeKeptOnce:
    @pytest.mark.parametrize(
        "name", [p.name for p in sorted(SCENARIO_DIR.glob("*.json")) if p.name != "bad-time.json"]
    )  # bad-time.json is invalid on purpose
    def test_every_shipped_scenario(self, name):
        assert_each_id_and_time_kept_once(load_scenario(scenario_path(name)))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_seeded_document_built_in_memory_and_from_a_file(self, seed, tmp_path):
        document = seeded_document(seed)
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        built, loaded = build_network(document), load_scenario(path)
        assert built == loaded
        assert len(loaded.links) >= 2_000
        assert sum(link.classes is not None for link in loaded.links) > 500
        for net in (built, loaded):
            assert_each_id_and_time_kept_once(net)
            assert len({id(link.time) for link in net.links}) == 8

    def test_a_str_subclass_id_is_bound_to_the_kept_plain_str(self):
        class Tag(str):
            pass

        net = build_network(
            doc(
                classes=[{"id": "a", "count": 1}],
                nodes=[{"id": "n", "stores": [Tag("a")]}],
                links=[{"reader": Tag("n"), "provider": "n", "time": 1, "classes": [Tag("a")]}],
            )
        )
        assert_each_id_and_time_kept_once(net)
        assert type(net.links[0].reader) is str and type(next(iter(net.nodes[0].stores))) is str

    def test_a_number_subclass_time_builds_as_the_kept_plain_float(self):
        # numpy.float64 is a float and an IntEnum an int, but neither is the
        # exact type JSON gives, so each goes through the general time check.
        import numpy as np

        class Ticks(IntEnum):
            TWO = 2

        links = [
            {"reader": "n", "provider": "n", "time": time}
            for time in (np.float64(2.5), 2.5, 2.0, Ticks.TWO)
        ]
        net = build_network(doc(nodes=[{"id": "n", "stores": []}], links=links))
        times = [link.time for link in net.links]
        assert times == [2.5, 2.5, 2.0, 2.0]
        assert all(type(time) is float for time in times)
        assert times[0] is times[1] and times[2] is times[3]
        assert_each_id_and_time_kept_once(net)


class TestCollectorPausedWhileLoading:
    @pytest.fixture
    def big_file(self, tmp_path):
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(seeded_document(3)), encoding="utf-8")
        return path

    @pytest.fixture
    def collections(self):
        """The generations collected while the test runs, as gc reports them."""
        seen: list[int] = []

        def note(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        gc.callbacks.append(note)
        yield seen
        gc.callbacks.remove(note)

    def test_no_collection_runs_during_a_load(self, big_file, collections):
        # Each network is dropped at once: one kept would count toward the
        # young generation and start a collection just after the load.
        assert gc.isenabled()
        load_scenario(big_file)
        read_scenario(big_file)
        assert collections == []
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"classes": [], "classes": []}', "duplicate key 'classes'"),
            (
                json.dumps(doc(nodes=[{"id": "r"}], links=[{"reader": "r", "provider": "p", "time": 1}])),
                "unknown provider 'p'",
            ),
        ],
        ids=["duplicate-key", "unknown-provider"],
    )
    def test_a_rejected_load_turns_the_collector_back_on(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert gc.isenabled()
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)
        assert gc.isenabled()

    def test_a_collector_the_caller_turned_off_stays_off(self, big_file):
        gc.disable()
        try:
            load_scenario(big_file)
            assert not gc.isenabled()
            with pytest.raises(ScenarioError):
                load_scenario(scenario_path("bad-time.json"))
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestRecords:
    @pytest.mark.parametrize(
        "record, field",
        # Each case has an explicit id, so removing one leaves the others' ids
        # as they are. These keep the ids they were first run under; a new case
        # names its record and field, e.g. "NodeCapacity-x0".
        [
            pytest.param(FileClass(id="a", count=1), "count", id="record0-count"),
            pytest.param(Node(id="n", stores=frozenset({"a"})), "stores", id="record1-stores"),
            pytest.param(Link(reader="r", provider="p", time=1.0), "time", id="record2-time"),
            pytest.param(Network(classes=(), nodes=(), links=()), "links", id="record3-links"),
            pytest.param(
                EffectiveCatalog(entries={}, counts={}),
                "entries",
                id="record4-entries",
            ),
            pytest.param(
                NodeCapacity(x0=2.0, capacity_bits_per_time=1.0, iterations=1, residual=0.0),
                "capacity_bits_per_time",
                id="record5-capacity_bits_per_time",
            ),
            pytest.param(
                NodeCapacity(x0=2.0, capacity_bits_per_time=1.0, iterations=1, residual=0.0),
                "x0",
                id="record6-x0",
            ),
            pytest.param(
                CapacityResult(per_node={}, network_capacity=0.0),
                "network_capacity",
                id="record7-network_capacity",
            ),
            pytest.param(
                OptimalDistribution(
                    node="n", x0=2.0, class_mass={"a": 1.0}, file_probability={"a": 0.5}
                ),
                "x0",
                id="record8-x0",
            ),
            pytest.param(
                QuantizedCatalog(int_times=((1, 1),), grid=1.0),
                "grid",
                id="record9-grid",
            ),
            pytest.param(
                OraclePoint(time_steps=1, count=2, rate=1.0),
                "count",
                id="record10-count",
            ),
            pytest.param(
                OracleReport(
                    points=(),
                    solver_capacity=1.0,
                    final_gap=0.0,
                    catalog=QuantizedCatalog(int_times=((1, 1),), grid=1.0),
                ),
                "points",
                id="record11-points",
            ),
            pytest.param(IIDSource(class_mass={"a": 1.0}), "class_mass", id="record12-class_mass"),
            pytest.param(
                MarkovSource(states=("a",), transitions=((1.0,),)),
                "initial",
                id="record13-initial",
            ),
            pytest.param(
                EmpiricalSource(trace=Trace(symbols=("a",))),
                "order",
                id="record14-order",
            ),
            pytest.param(EntropyEstimate(order=0, value=1.0), "value", id="record15-value"),
            pytest.param(
                EfficiencyResult(
                    node="n",
                    entropy_bits_per_file=1.0,
                    mean_read_time=1.0,
                    efficiency_bits_per_time=1.0,
                    capacity_bits_per_time=1.0,
                    utilization_ratio=1.0,
                ),
                "utilization_ratio",
                id="record16-utilization_ratio",
            ),
            pytest.param(Trace(symbols=("a",)), "symbols", id="record17-symbols"),
        ],
    )
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    @pytest.mark.parametrize(
        "make, fields, message",
        [
            (IIDSource, {"class_mass": {"a": 0.5}}, "class_mass: probabilities sum to 0.5, not 1"),
            (
                MarkovSource,
                {"states": ("a",), "transitions": ((0.5,),)},
                "transition row 0: probabilities sum to 0.5, not 1",
            ),
            (
                MarkovSource,
                {"states": ("a",), "transitions": ((1.0,),), "initial": (0.5,)},
                "initial distribution: probabilities sum to 0.5, not 1",
            ),
        ],
        ids=["iid", "markov-row", "markov-initial"],
    )
    def test_checked_records_reject_by_position_and_by_keyword(self, make, fields, message):
        for build in (lambda: make(*fields.values()), lambda: make(**fields)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    def test_link_covers_every_stored_class_by_default(self):
        link = Link(reader="r", provider="p", time=2.0)
        assert link.classes is None
        assert link == Link("r", "p", 2.0, None)


class TestEffectiveCatalog:
    def test_fig1_reader(self, fig1):
        catalog = effective_catalog(fig1, "w2")
        assert catalog.entries == {"own": 1.0, "lib": 10.0}

    def test_node_without_incoming_links_has_empty_catalog(self, fig1):
        assert effective_catalog(fig1, "w1").entries == {}

    def test_shared_content_takes_the_faster_provider(self, fig2_shared):
        # 'own' is stored locally (time 1) and at the peer (time 2)
        assert effective_catalog(fig2_shared, "w2").entries["own"] == 1.0

    def test_equal_times_tie_break_on_provider_id(self):
        net = build_network(
            doc(
                classes=[{"id": "c", "count": 1}],
                nodes=[{"id": "pb", "stores": ["c"]}, {"id": "pa", "stores": ["c"]}, {"id": "r"}],
                links=[
                    {"reader": "r", "provider": "pb", "time": 2},
                    {"reader": "r", "provider": "pa", "time": 2},
                ],
            )
        )
        assert effective_catalog(net, "r").entries == {"c": 2.0}

    def test_link_class_subset_restricts_coverage(self, three_file):
        catalog = effective_catalog(three_file, "n")
        assert catalog.entries == {"fast": 1.0, "slow": 2.0}

    def test_unknown_node_rejected(self, fig1):
        with pytest.raises(ScenarioError, match="unknown node 'nope'"):
            effective_catalog(fig1, "nope")

    def test_link_to_a_provider_the_network_lacks_raises_every_time(self):
        # build_network rejects such a link; a hand-built Network can still hold one
        net = Network(
            classes=(FileClass(id="c", count=1),),
            nodes=(Node(id="r", stores=frozenset()),),
            links=(Link(reader="r", provider="ghost", time=1.0),),
        )
        for _ in range(2):
            with pytest.raises(ScenarioError, match="unknown node 'ghost'"):
                effective_catalog(net, "r")

    def test_entries_are_read_only(self, fig1):
        catalog = effective_catalog(fig1, "w2")
        with pytest.raises(TypeError):
            catalog.entries["own"] = 0.5
        with pytest.raises(TypeError):
            del catalog.entries["lib"]
        assert effective_catalog(fig1, "w2").entries == {"own": 1.0, "lib": 10.0}

    def test_catalogs_share_one_read_only_count_map(self):
        net = load_scenario(scenario_path("fig1.json"))
        w1, w2 = effective_catalog(net, "w1"), effective_catalog(net, "w2")
        assert w2.counts == {"lib": 10**7, "own": 10}
        assert w1.counts is w2.counts
        with pytest.raises(TypeError):
            w2.counts["own"] = 0
        assert effective_catalog(net, "w2").counts == {"lib": 10**7, "own": 10}


# --- randomized invariants ----------------------------------------------------

def exhaustive_catalog(net: Network, node_id: str) -> dict[str, float]:
    """Independent recomputation: scan every (provider, class, link) triple of the
    network; per class the least time."""
    best: dict[str, float] = {}
    for provider in net.nodes:
        for cid in provider.stores:
            for link in net.links:
                covers = link.classes is None or cid in link.classes
                if link.reader == node_id and link.provider == provider.id and covers:
                    best[cid] = min(best.get(cid, link.time), link.time)
    return best


@settings(max_examples=150, deadline=None)
@given(link_networks())
def test_catalog_matches_exhaustive_pair_scan(net):
    for node in net.nodes:
        assert effective_catalog(net, node.id).entries == exhaustive_catalog(net, node.id)


@settings(max_examples=100, deadline=None)
@given(link_networks())
def test_catalog_entries_come_in_class_id_order(net):
    for node in net.nodes:
        catalog = effective_catalog(net, node.id)
        assert list(catalog.entries) == sorted(catalog.entries)


@settings(max_examples=50, deadline=None)
@given(link_networks(), st.floats(0.1, 10.0, allow_nan=False), st.data())
def test_adding_a_link_never_increases_read_times(net, time, data):
    providers = [n for n in net.nodes if n.stores]
    if not providers:
        return
    provider = data.draw(st.sampled_from(providers))
    reader = data.draw(st.sampled_from(net.nodes))
    before = {n.id: effective_catalog(net, n.id).entries for n in net.nodes}
    bigger = Network(
        classes=net.classes,
        nodes=net.nodes,
        links=net.links + (Link(reader=reader.id, provider=provider.id, time=time),),
    )
    for node in net.nodes:
        after = effective_catalog(bigger, node.id).entries
        for cid, old in before[node.id].items():
            assert after[cid] <= old
    # and symmetrically: dropping that link never decreases any entry
    for node in net.nodes:
        after = effective_catalog(bigger, node.id).entries
        for cid, new in after.items():
            if cid in before[node.id]:
                assert before[node.id][cid] >= new


def test_package_exposes_exactly_the_layer_exports():
    import inspect

    import cachecap
    from cachecap import capacity, entropy, model, oracle, traces

    layers = (model, capacity, oracle, entropy, traces)
    exported = {name for layer in layers for name in layer.__all__}
    # The package binds the names on first use (a PEP 562 ``__getattr__``),
    # so read ``__all__`` before ``vars``.
    assert set(cachecap.__all__) == exported
    public = {
        name
        for name, obj in vars(cachecap).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == exported
    for layer in layers:
        for name in layer.__all__:
            assert getattr(cachecap, name) is getattr(layer, name)


# --- every rejection of build_network, on dict and on read-only mapping input ---


def _valid() -> dict:
    return doc(
        classes=[{"id": "a", "count": 1}, {"id": "b", "count": 2}],
        nodes=[{"id": "p", "stores": ["a"]}, {"id": "r", "stores": []}],
        links=[{"reader": "r", "provider": "p", "time": 1, "classes": ["a"]}],
    )


def _with(path: tuple, value) -> dict:
    """The valid document with the entry at ``path`` set (or, for ``...``, deleted)."""
    root = target = _valid()
    *parents, last = path
    for key in parents:
        target = target[key]
    if value is ...:
        del target[last]
    else:
        target[last] = value
    return root


REJECTIONS = [
    ("doc-not-object", [], "scenario document must be a JSON object"),
    ("classes-not-array", _with(("classes",), {}), "'classes' must be an array"),
    ("nodes-not-array", _with(("nodes",), "n"), "'nodes' must be an array"),
    ("links-not-array", _with(("links",), None), "'links' must be an array"),
    ("class-missing-id", _with(("classes", 0, "id"), ...), "class entry missing 'id'"),
    ("class-not-object", _with(("classes", 0), "a"), "class entry missing 'id'"),
    ("class-id-not-string", _with(("classes", 0, "id"), 1), "class id must be a string, got 1"),
    ("class-id-not-text", _with(("classes", 0, "id"), "a\ud800"), "class id 'a\\ud800' is not valid Unicode text"),
    ("duplicate-class", _with(("classes", 1, "id"), "a"), "duplicate class id 'a'"),
    ("count-bool", _with(("classes", 1, "count"), True), "class 'b': count must be an integer, got boolean"),
    ("count-float", _with(("classes", 1, "count"), 2.5), "class 'b': count must be an integer, got 2.5"),
    ("count-string", _with(("classes", 1, "count"), "2"), "class 'b': count must be an integer"),
    ("count-zero", _with(("classes", 1, "count"), 0), "class 'b': non-positive count 0"),
    ("count-negative", _with(("classes", 1, "count"), -3), "class 'b': non-positive count -3"),
    ("count-negative-float", _with(("classes", 1, "count"), -3.0), "class 'b': non-positive count -3"),
    ("node-missing-id", _with(("nodes", 1, "id"), ...), "node entry missing 'id'"),
    ("node-not-object", _with(("nodes", 1), ["r"]), "node entry missing 'id'"),
    ("node-id-not-string", _with(("nodes", 1, "id"), 7), "node id must be a string, got 7"),
    ("node-id-not-text", _with(("nodes", 1, "id"), "r\udc80"), "node id 'r\\udc80' is not valid Unicode text"),
    ("duplicate-node", _with(("nodes", 1, "id"), "p"), "duplicate node id 'p'"),
    ("stores-not-array", _with(("nodes", 0, "stores"), "a"), "node 'p': 'stores' must be an array"),
    ("stored-id-not-string", _with(("nodes", 0, "stores"), ["a", None]), "node 'p': stored class id must be a string, got None"),
    ("stores-unknown-class", _with(("nodes", 0, "stores"), ["a", "ghost", "b"]), "node 'p' stores unknown class 'ghost'"),
    ("stores-class-twice", _with(("nodes", 0, "stores"), ["a", "b", "b", "a"]), "node 'p' stores class 'b' twice"),
    ("link-not-object", _with(("links", 0), "r->p"), "link entry must be an object"),
    ("link-missing-reader", _with(("links", 0, "reader"), ...), "link entry missing 'reader'"),
    ("link-missing-provider", _with(("links", 0, "provider"), ...), "link entry missing 'provider'"),
    ("link-missing-time", _with(("links", 0, "time"), ...), "link entry missing 'time'"),
    ("reader-not-string", _with(("links", 0, "reader"), 1), "link reader must be a string, got 1"),
    ("provider-not-string", _with(("links", 0, "provider"), ["p"]), "link provider must be a string, got ['p']"),
    ("unknown-reader", _with(("links", 0, "reader"), "x"), "link x->p: unknown reader 'x'"),
    ("unknown-provider", _with(("links", 0, "provider"), "y"), "link r->y: unknown provider 'y'"),
    ("time-bool", _with(("links", 0, "time"), True), "link r->p: time must be a number"),
    ("time-string", _with(("links", 0, "time"), "1"), "link r->p: time must be a number"),
    ("time-null", _with(("links", 0, "time"), None), "link r->p: time must be a number"),
    ("time-nan", _with(("links", 0, "time"), math.nan), "link r->p: non-finite time nan"),
    ("time-inf", _with(("links", 0, "time"), math.inf), "link r->p: non-finite time inf"),
    ("time-minus-inf", _with(("links", 0, "time"), -math.inf), "link r->p: non-finite time -inf"),
    ("time-zero", _with(("links", 0, "time"), 0), "link r->p: non-positive time 0"),
    ("time-zero-float", _with(("links", 0, "time"), 0.0), "link r->p: non-positive time 0.0"),
    ("time-negative", _with(("links", 0, "time"), -2.5), "link r->p: non-positive time -2.5"),
    ("time-huge-int", _with(("links", 0, "time"), 10**400), "link r->p: time is too large for a float"),
    ("time-huge-negative-int", _with(("links", 0, "time"), -(10**400)), "link r->p: time is too large for a float"),
    ("link-classes-not-array", _with(("links", 0, "classes"), "a"), "link r->p: 'classes' must be an array"),
    ("link-class-id-not-string", _with(("links", 0, "classes"), ["a", 2]), "link r->p: class id must be a string, got 2"),
    ("link-class-twice", _with(("links", 0, "classes"), ["a", "a"]), "link r->p: class 'a' listed twice"),
    ("link-class-not-stored", _with(("links", 0, "classes"), ["b", "a"]), "link r->p: class 'b' is not stored by provider 'p'"),
    ("link-classes-first-sorted", _with(("links", 0, "classes"), ["z", "b"]), "link r->p: class 'b' is not stored by provider 'p'"),
]


def _read_only(value):
    """``value`` with every JSON object in it wrapped in a ``MappingProxyType``."""
    if isinstance(value, dict):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    if isinstance(value, list):
        return [_read_only(v) for v in value]
    return value


def test_the_valid_base_document_builds_from_both_mapping_kinds():
    assert build_network(_valid()) == build_network(_read_only(_valid()))


@pytest.mark.parametrize("wrap", [lambda d: d, _read_only], ids=["dict", "mappingproxy"])
@pytest.mark.parametrize("bad, message", [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS])
def test_every_rejection_keeps_its_message(bad, message, wrap):
    with pytest.raises(ScenarioError) as caught:
        build_network(wrap(bad))
    assert str(caught.value) == message
