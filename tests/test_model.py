import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecap import (
    ScenarioError,
    build_network,
    effective_catalog,
    load_scenario,
    read_scenario,
    task_time,
)
from cachecap.model import FileClass, Link, Network, Node

from conftest import scenario_path


def doc(classes=(), nodes=(), links=()):
    return {"classes": list(classes), "nodes": list(nodes), "links": list(links)}


class TestBuildNetwork:
    def test_fig1_scenario_is_valid(self, fig1):
        assert [n.id for n in fig1.nodes] == ["w1", "w2"]
        assert fig1.class_counts() == {"lib": 10**7, "own": 10}
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


class TestEffectiveCatalog:
    def test_fig1_reader(self, fig1):
        catalog = effective_catalog(fig1, "w2")
        assert catalog.min_times() == {"own": 1.0, "lib": 10.0}
        assert catalog.entries["own"].provider == "w2"
        assert catalog.entries["lib"].provider == "w1"

    def test_node_without_incoming_links_has_empty_catalog(self, fig1):
        assert effective_catalog(fig1, "w1").entries == {}

    def test_shared_content_takes_the_faster_provider(self, fig2_shared):
        # 'own' is stored locally (time 1) and at the peer (time 2)
        entry = effective_catalog(fig2_shared, "w2").entries["own"]
        assert entry.min_time == 1.0
        assert entry.provider == "w2"

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
        entry = effective_catalog(net, "r").entries["c"]
        assert (entry.min_time, entry.provider) == (2.0, "pa")

    def test_link_class_subset_restricts_coverage(self, three_file):
        catalog = effective_catalog(three_file, "n")
        assert catalog.min_times() == {"fast": 1.0, "slow": 2.0}

    def test_unknown_node_rejected(self, fig1):
        with pytest.raises(ScenarioError, match="unknown node 'nope'"):
            effective_catalog(fig1, "nope")


class TestTaskTime:
    def test_fig1_task(self, fig1):
        catalog = effective_catalog(fig1, "w2")
        assert task_time(catalog, ["own", "own", "lib"]) == 12.0

    def test_empty_task(self, fig1):
        assert task_time(effective_catalog(fig1, "w2"), []) == 0.0

    def test_repeated_library_reads(self, fig1):
        assert task_time(effective_catalog(fig1, "w2"), ["lib"] * 3) == 30.0

    def test_unreachable_class_rejected(self, fig1):
        with pytest.raises(ScenarioError, match="unreachable"):
            task_time(effective_catalog(fig1, "w1"), ["own"])


# --- randomized invariants ----------------------------------------------------

_ids = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def networks(draw):
    class_ids = draw(st.sets(_ids, min_size=1, max_size=4))
    node_ids = draw(st.sets(st.sampled_from(["n1", "n2", "n3"]), min_size=1, max_size=3))
    classes = [FileClass(id=c, count=draw(st.integers(1, 5))) for c in sorted(class_ids)]
    nodes = [
        Node(id=n, stores=frozenset(draw(st.sets(st.sampled_from(sorted(class_ids))))))
        for n in sorted(node_ids)
    ]
    links = []
    for _ in range(draw(st.integers(0, 6))):
        provider = draw(st.sampled_from(nodes))
        if not provider.stores:
            continue
        links.append(
            Link(
                reader=draw(st.sampled_from(sorted(node_ids))),
                provider=provider.id,
                time=draw(st.floats(0.1, 10.0, allow_nan=False)),
                classes=None,
            )
        )
    return Network(classes=tuple(classes), nodes=tuple(nodes), links=tuple(links))


def exhaustive_min_times(net: Network, node_id: str) -> dict[str, float]:
    """Independent recomputation: scan every (provider, class) pair."""
    best: dict[str, float] = {}
    for provider in net.nodes:
        for cid in provider.stores:
            for link in net.links:
                covers = link.classes is None or cid in link.classes
                if link.reader == node_id and link.provider == provider.id and covers:
                    if cid not in best or link.time < best[cid]:
                        best[cid] = link.time
    return best


@settings(max_examples=50, deadline=None)
@given(networks())
def test_catalog_matches_exhaustive_pair_scan(net):
    for node in net.nodes:
        assert effective_catalog(net, node.id).min_times() == exhaustive_min_times(net, node.id)


@settings(max_examples=50, deadline=None)
@given(networks(), st.floats(0.1, 10.0, allow_nan=False), st.data())
def test_adding_a_link_never_increases_read_times(net, time, data):
    providers = [n for n in net.nodes if n.stores]
    if not providers:
        return
    provider = data.draw(st.sampled_from(providers))
    reader = data.draw(st.sampled_from(net.nodes))
    before = {n.id: effective_catalog(net, n.id).min_times() for n in net.nodes}
    bigger = Network(
        classes=net.classes,
        nodes=net.nodes,
        links=net.links + (Link(reader=reader.id, provider=provider.id, time=time),),
    )
    for node in net.nodes:
        after = effective_catalog(bigger, node.id).min_times()
        for cid, old in before[node.id].items():
            assert after[cid] <= old
    # and symmetrically: dropping that link never decreases any entry
    for node in net.nodes:
        after = effective_catalog(bigger, node.id).min_times()
        for cid, new in after.items():
            if cid in before[node.id]:
                assert before[node.id][cid] >= new


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from(["own", "lib"]), max_size=6),
    st.lists(st.sampled_from(["own", "lib"]), max_size=6),
)
def test_task_time_is_additive(fragment_a, fragment_b):
    net = load_scenario(scenario_path("fig1.json"))
    catalog = effective_catalog(net, "w2")
    combined = task_time(catalog, fragment_a + fragment_b)
    assert math.isclose(
        combined, task_time(catalog, fragment_a) + task_time(catalog, fragment_b), rel_tol=1e-12
    )
