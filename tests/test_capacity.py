import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecap import (
    CharEquation,
    ScenarioError,
    SolverError,
    analyze_network,
    effective_catalog,
    equation_for_node,
    network_capacity,
    node_capacity,
    optimal_distribution,
    solve_characteristic_full,
)
from cachecap.model import FileClass, Link, Network, Node

from conftest import (
    FAR_ROOT_TERMS,
    SHORT_STEP_TERMS,
    link_networks,
    random_terms,
    scale_times,
    single_node_network,
)

FIG1_TERMS = ((10, 1.0), (10**7, 10.0))
FIG2_TERMS = ((10, 1.0), (10, 2.0), (10**7, 10.0))
QUAD_TERMS = ((2, 1.0), (1, 2.0))
SQRT2P1 = 1 + math.sqrt(2)


def residual(terms, x: float) -> float:
    """``sum(count * x**-tau) - 1``, summed exactly by fsum."""
    return math.fsum([*(count * x**-tau for count, tau in terms), -1.0])


class TestCharEquationChecks:
    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_rejected(self, count):
        with pytest.raises(ValueError) as exc:
            CharEquation(terms=((2, 1.0), (count, 2.0)))
        assert str(exc.value) == f"term count must be >= 1, got {count}"

    @pytest.mark.parametrize("time", [0.0, -2.0, math.inf, math.nan])
    def test_time_not_positive_and_finite_is_rejected(self, time):
        with pytest.raises(ValueError) as exc:
            CharEquation(terms=((2, 1.0), (1, time)))
        assert str(exc.value) == f"term time must be positive and finite, got {time}"

    def test_a_generator_is_read_once_and_kept_as_a_tuple(self):
        eq = CharEquation(terms=(pair for pair in QUAD_TERMS))
        assert eq.terms == QUAD_TERMS
        assert solve_characteristic_full(eq).x0 == pytest.approx(SQRT2P1, rel=1e-12)

    def test_lists_are_kept_as_tuples_so_later_edits_do_not_reach_the_equation(self):
        terms = [list(pair) for pair in QUAD_TERMS]
        eq = CharEquation(terms=terms)
        terms[0][0] = 0
        assert eq.terms == QUAD_TERMS
        assert hash(eq) == hash(CharEquation(terms=QUAD_TERMS))
        assert solve_characteristic_full(eq).x0 == pytest.approx(SQRT2P1, rel=1e-12)


class TestCharEqValue:
    def test_fig1_equation_near_one_at_published_root(self):
        x0 = solve_characteristic_full(CharEquation(terms=FIG1_TERMS)).x0
        assert abs(x0 - 10.01) < 0.01
        assert abs(residual(FIG1_TERMS, 10.01)) < 1e-3
        assert abs(residual(FIG1_TERMS, x0)) < 1e-12

    def test_quadratic_root_hits_one(self):
        x0 = solve_characteristic_full(CharEquation(terms=QUAD_TERMS)).x0
        assert x0 == pytest.approx(SQRT2P1, rel=1e-12)
        assert abs(residual(QUAD_TERMS, SQRT2P1)) < 1e-12
        assert abs(residual(QUAD_TERMS, x0)) < 1e-12


class TestSolveCharacteristic:
    def test_fig1_root(self):
        assert solve_characteristic_full(CharEquation(terms=FIG1_TERMS)).x0 == pytest.approx(
            10.01, abs=0.01
        )

    def test_fig2_root(self):
        assert solve_characteristic_full(CharEquation(terms=FIG2_TERMS)).x0 == pytest.approx(
            2**3.449, abs=0.05
        )

    def test_single_file_root_is_one(self):
        assert solve_characteristic_full(CharEquation(terms=((1, 5.0),))).x0 == 1.0

    def test_single_class_closed_form(self):
        assert solve_characteristic_full(CharEquation(terms=((4, 2.0),))).x0 == 2.0

    def test_empty_equation_has_no_root(self):
        assert solve_characteristic_full(CharEquation(terms=())).x0 is None

    def test_residual_within_bound_on_random_equations(self):
        rng = random.Random(7)
        for _ in range(200):
            terms = tuple(random_terms(rng))
            solve = solve_characteristic_full(CharEquation(terms=terms))
            if solve.x0 is not None and solve.x0 > 1.0:
                assert solve.residual <= 1e-9


def bisect_root(terms) -> float:
    """Reference root: bisection on s = log2(x) until no float lies between the ends.

    g(0) = files - 1 >= 0, and at s = log2(files)/min(tau) every term is at
    most count/files, so the sum is at most 1: the root lies in between.
    """

    def g(s: float) -> float:
        return math.fsum(count * 2.0 ** (-tau * s) for count, tau in terms) - 1.0

    lo, hi = 0.0, math.log2(sum(c for c, _ in terms)) / min(t for _, t in terms)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    return 2.0**lo


# Read times down to 0.05 keep every root below 2**1024 (50 classes of 10**7
# files: log2(5e8)/0.05 = 578); larger roots raise SolverError, tested below.
_times = st.one_of(st.integers(1, 20).map(float), st.floats(0.05, 20.0))
_terms = st.lists(st.tuples(st.integers(1, 10**7), _times), min_size=1, max_size=50)


class TestNewtonSolver:
    @settings(max_examples=300, deadline=None)
    @given(_terms)
    def test_agrees_with_bisection(self, terms):
        solve = solve_characteristic_full(CharEquation(terms=tuple(terms)))
        reference = bisect_root(terms)
        assert abs(solve.x0 - reference) <= 1e-12 * reference
        assert solve.residual <= 1e-9
        assert solve.iterations <= 15

    @pytest.mark.parametrize("tau", [0.05, 1.0, 7.3, 20.0])
    def test_single_file_is_one_without_a_step(self, tau):
        solve = solve_characteristic_full(CharEquation(terms=((1, tau),)))
        assert (solve.x0, solve.iterations, solve.residual) == (1.0, 0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10**7), _times)
    def test_single_class_is_the_closed_form(self, count, tau):
        solve = solve_characteristic_full(CharEquation(terms=((count, tau),)))
        assert solve.x0 == pytest.approx(count ** (1.0 / tau), rel=1e-12)
        assert solve.iterations <= 1

    def test_no_overflow_at_ten_million_files(self):
        for terms in [((10**7, 20.0),), ((10**7, 20.0),) * 50, ((10**7, 20.0), (1, 0.05))]:
            solve = solve_characteristic_full(CharEquation(terms=terms))
            assert math.isfinite(solve.x0) and solve.residual <= 1e-9
            assert solve.x0 == pytest.approx(bisect_root(terms), rel=1e-12)

    @pytest.mark.parametrize(
        "terms", [((10**7, 1e-3),), ((2, 1e-3), (3, 1e-3)), ((2, 5e-324),), FAR_ROOT_TERMS]
    )
    def test_root_beyond_float_range_raises(self, terms):
        with pytest.raises(SolverError, match="^root exceeds the representable range$"):
            solve_characteristic_full(CharEquation(terms=terms))

    def test_wide_random_catalogs_solve_or_overflow(self):
        """2,000 seeded catalogs: 2-30 classes, counts up to 10**7, times over
        five decades. Each either solves, to the pinned reprs, or raises that
        its root is out of range; none runs out of Newton steps."""
        rng = random.Random(2026)
        digest, outcomes = hashlib.sha256(), {"solved": 0, "overflow": 0}
        for i in range(2000):
            classes, scale = rng.randint(2, 30), 10 ** rng.uniform(-4, 1)
            terms = tuple(
                (max(1, round(10 ** rng.uniform(0, 7))), rng.uniform(0.05, 20) * scale)
                for _ in range(classes)
            )
            try:
                solve = solve_characteristic_full(CharEquation(terms=terms))
            except SolverError as exc:
                assert str(exc) == "root exceeds the representable range"
                outcomes["overflow"] += 1
                continue
            outcomes["solved"] += 1
            digest.update(f"{i}:{solve!r}\n".encode())
        assert outcomes == {"solved": 1158, "overflow": 842}
        assert digest.hexdigest() == (
            "d87d1dcde9520048f4c46e2d91b7a3d3e86266a80a7fbefc90502c748547a556"
        )

    def test_short_step_far_below_the_root_is_solved_in_eight_steps(self):
        solve = solve_characteristic_full(CharEquation(terms=SHORT_STEP_TERMS))
        assert solve.x0 == pytest.approx(3.4849274653538407, rel=1e-12)
        assert solve.iterations == 8


class TestNodeCapacity:
    def test_fig1_reader(self, fig1):
        assert node_capacity(fig1, "w2") == pytest.approx(3.324, abs=1e-3)

    def test_fig1_server_cannot_read(self, fig1):
        assert node_capacity(fig1, "w1") == 0.0

    def test_quadratic_catalog(self):
        net, node = single_node_network(QUAD_TERMS)
        assert node_capacity(net, node) == pytest.approx(math.log2(SQRT2P1), abs=1e-5)

    def test_unknown_node_rejected(self, fig1):
        with pytest.raises(ScenarioError):
            node_capacity(fig1, "nope")


class TestNetworkCapacity:
    def test_fig2_total(self, fig2):
        assert network_capacity(fig2) == pytest.approx(6.898, abs=2e-3)

    def test_fig1_total_is_the_single_reader(self, fig1):
        assert network_capacity(fig1) == pytest.approx(3.324, abs=1e-3)

    def test_empty_network(self):
        assert network_capacity(Network(classes=(), nodes=(), links=())) == 0.0

    def test_analyze_network_sums_per_node(self, fig2):
        result = analyze_network(fig2)
        total = sum(nc.capacity_bits_per_time for nc in result.per_node.values())
        assert result.network_capacity == total
        for nc in result.per_node.values():
            if nc.x0 is not None and nc.x0 > 1.0:
                assert nc.capacity_bits_per_time == math.log2(nc.x0)
                assert nc.residual <= 1e-9
            else:
                assert nc.capacity_bits_per_time == 0.0


@settings(max_examples=100, deadline=None)
@given(link_networks())
def test_analyze_network_equals_the_per_node_calls(net):
    result = analyze_network(net)
    assert list(result.per_node) == [n.id for n in net.nodes]
    for node in net.nodes:
        expected = solve_characteristic_full(equation_for_node(net, node.id))
        assert result.per_node[node.id] == expected


class TestOptimalDistribution:
    def test_quadratic_per_file_probabilities(self):
        net, node = single_node_network(QUAD_TERMS)
        dist = optimal_distribution(net, node)
        assert dist.file_probability["c0"] == pytest.approx(0.414214, abs=1e-6)
        assert dist.file_probability["c1"] == pytest.approx(0.171573, abs=1e-6)
        # class c0 has two files at the same probability
        assert dist.class_mass["c0"] == pytest.approx(2 * 0.414214, abs=2e-6)

    def test_single_class_is_uniform(self):
        net, node = single_node_network([(4, 2.0)])
        dist = optimal_distribution(net, node)
        assert dist.file_probability["c0"] == pytest.approx(0.25, abs=1e-12)
        assert dist.class_mass["c0"] == pytest.approx(1.0, abs=1e-12)

    def test_fig1_reader_masses(self, fig1):
        dist = optimal_distribution(fig1, "w2")
        assert dist.class_mass["own"] == pytest.approx(0.999001, abs=1e-4)
        assert dist.class_mass["lib"] == pytest.approx(0.000999, abs=1e-4)

    def test_zero_capacity_node_rejected(self, fig1):
        with pytest.raises(ScenarioError, match="zero capacity"):
            optimal_distribution(fig1, "w1")

    def test_masses_sum_to_one_on_random_catalogs(self):
        rng = random.Random(11)
        for _ in range(100):
            net, node = single_node_network(random_terms(rng))
            try:
                dist = optimal_distribution(net, node)
            except ScenarioError:
                continue  # one-file catalogs have no optimum
            assert abs(sum(dist.class_mass.values()) - 1.0) <= 1e-9

    def test_distribution_invariant_under_class_relabeling(self):
        terms = [(3, 1.5), (2, 4.0), (1, 0.5)]
        net, node = single_node_network(terms)
        renamed = Network(
            classes=tuple(FileClass(id="x" + fc.id, count=fc.count) for fc in net.classes),
            nodes=(Node(id=node, stores=frozenset("x" + c for c in net.nodes[0].stores)),),
            links=tuple(
                Link(
                    reader=l.reader,
                    provider=l.provider,
                    time=l.time,
                    classes=frozenset("x" + c for c in l.classes),
                )
                for l in net.links
            ),
        )
        base = optimal_distribution(net, node)
        relabeled = optimal_distribution(renamed, node)
        for cid, mass in base.class_mass.items():
            assert relabeled.class_mass["x" + cid] == mass


class TestStructuralProperties:
    def test_slower_replica_leaves_capacity_unchanged(self):
        base = {
            "classes": [{"id": "c", "count": 3}],
            "nodes": [{"id": "p", "stores": ["c"]}, {"id": "q", "stores": ["c"]}, {"id": "r"}],
            "links": [{"reader": "r", "provider": "p", "time": 5}],
        }
        from cachecap import build_network

        before = node_capacity(build_network(base), "r")
        base["links"].append({"reader": "r", "provider": "q", "time": 7})
        assert node_capacity(build_network(base), "r") == before

    def test_faster_replica_strictly_increases_capacity(self):
        from cachecap import build_network

        base = {
            "classes": [{"id": "c", "count": 3}],
            "nodes": [{"id": "p", "stores": ["c"]}, {"id": "q", "stores": ["c"]}, {"id": "r"}],
            "links": [{"reader": "r", "provider": "p", "time": 5}],
        }
        before = node_capacity(build_network(base), "r")
        base["links"].append({"reader": "r", "provider": "q", "time": 3})
        assert node_capacity(build_network(base), "r") > before

    def test_shared_content_degenerates_to_the_two_node_value(self, fig1, fig2_shared):
        # identical peer content: each peer's equation collapses to the
        # two-node one, so the capacities agree exactly
        expected = node_capacity(fig1, "w2")
        assert node_capacity(fig2_shared, "w2") == expected
        assert node_capacity(fig2_shared, "w3") == expected
        assert node_capacity(fig2_shared, "w2") == pytest.approx(3.324, abs=1e-3)

    def test_time_scaling_rescales_capacity(self, fig1, fig2, three_file):
        rng = random.Random(23)
        nets = [fig1, fig2, three_file]
        for _ in range(20):
            nets.append(single_node_network(random_terms(rng))[0])
        for net in nets:
            base = network_capacity(net)
            for s in (0.5, 2.0, 3.7):
                scaled = network_capacity(scale_times(net, s))
                assert scaled == pytest.approx(base / s, rel=1e-9, abs=1e-12)


def test_equation_for_node_uses_minimal_times(fig2_shared):
    eq = equation_for_node(fig2_shared, "w2")
    assert sorted(eq.terms) == [(10, 1.0), (10**7, 10.0)]
    catalog = effective_catalog(fig2_shared, "w2")
    assert catalog.entries == {"own": 1.0, "lib": 10.0}


def _optimum_or_refusal(net: Network, node_id: str) -> str:
    try:
        return repr(optimal_distribution(net, node_id))
    except ScenarioError as exc:  # zero capacity
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(link_networks())
def test_kept_results_equal_those_of_a_fresh_network(net):
    """Per-node results read after ``analyze_network`` equal those of an equal, unused Network."""
    analyze_network(net)
    fresh = Network(classes=net.classes, nodes=net.nodes, links=net.links)
    for node in net.nodes:
        assert repr(node_capacity(net, node.id)) == repr(node_capacity(fresh, node.id))
        assert _optimum_or_refusal(net, node.id) == _optimum_or_refusal(fresh, node.id)
