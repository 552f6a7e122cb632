import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecap import (
    ScenarioError,
    SolverError,
    analyze_network,
    effective_catalog,
    network_capacity,
    node_capacity,
    node_solution,
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
            solve_characteristic_full(((2, 1.0), (count, 2.0)))
        assert str(exc.value) == f"term count must be >= 1, got {count}"

    @pytest.mark.parametrize("time", [0.0, -2.0, math.inf, math.nan])
    def test_time_not_positive_and_finite_is_rejected(self, time):
        with pytest.raises(ValueError) as exc:
            solve_characteristic_full(((2, 1.0), (1, time)))
        assert str(exc.value) == f"term time must be positive and finite, got {time}"

    @pytest.mark.parametrize(
        "terms, message",
        [
            (((0, 1.0),), "term count must be >= 1, got 0"),
            (((1, -2.0),), "term time must be positive and finite, got -2.0"),
        ],
        ids=["char-count", "char-time"],
    )
    def test_rejects_by_position_and_by_keyword(self, terms, message):
        for solve in (
            lambda: solve_characteristic_full(terms),
            lambda: solve_characteristic_full(terms=terms),
        ):
            with pytest.raises(ValueError) as exc:
                solve()
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "terms, message",
        [
            (((2, -1.0),), "term time must be positive and finite, got -1.0"),
            (((3, 0.0),), "term time must be positive and finite, got 0.0"),
        ],
        ids=["negative-time", "zero-time"],
    )
    def test_no_way_around_the_check(self, terms, message):
        # The check is part of the solve: in whatever container, each pair is
        # checked as it is read, a bad one after a good one too.
        for form in (tuple, list, iter):
            with pytest.raises(ValueError) as exc:
                solve_characteristic_full(form(((2, 1.0), *terms)))
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "make",
        [lambda: (pair for pair in QUAD_TERMS), lambda: [list(pair) for pair in QUAD_TERMS]],
        ids=["generator", "list-of-lists"],
    )
    def test_any_iterable_of_pairs_solves_alike(self, make):
        solve = solve_characteristic_full(make())
        assert solve == solve_characteristic_full(QUAD_TERMS)
        assert solve.x0 == pytest.approx(SQRT2P1, rel=1e-12)


class TestCharEqValue:
    def test_fig1_equation_near_one_at_published_root(self):
        x0 = solve_characteristic_full(FIG1_TERMS).x0
        assert abs(x0 - 10.01) < 0.01
        assert abs(residual(FIG1_TERMS, 10.01)) < 1e-3
        assert abs(residual(FIG1_TERMS, x0)) < 1e-12

    def test_quadratic_root_hits_one(self):
        x0 = solve_characteristic_full(QUAD_TERMS).x0
        assert x0 == pytest.approx(SQRT2P1, rel=1e-12)
        assert abs(residual(QUAD_TERMS, SQRT2P1)) < 1e-12
        assert abs(residual(QUAD_TERMS, x0)) < 1e-12


class TestSolveCharacteristic:
    def test_fig1_root(self):
        assert solve_characteristic_full(FIG1_TERMS).x0 == pytest.approx(10.01, abs=0.01)

    def test_fig2_root(self):
        assert solve_characteristic_full(FIG2_TERMS).x0 == pytest.approx(2**3.449, abs=0.05)

    def test_single_file_root_is_one(self):
        assert solve_characteristic_full(((1, 5.0),)).x0 == 1.0

    def test_single_class_closed_form(self):
        assert solve_characteristic_full(((4, 2.0),)).x0 == 2.0

    def test_empty_equation_has_no_root(self):
        assert solve_characteristic_full(()).x0 is None

    def test_residual_within_bound_on_random_equations(self):
        rng = random.Random(7)
        for _ in range(200):
            terms = tuple(random_terms(rng))
            solve = solve_characteristic_full(terms)
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
        solve = solve_characteristic_full(terms)
        reference = bisect_root(terms)
        assert abs(solve.x0 - reference) <= 1e-12 * reference
        assert solve.residual <= 1e-9
        assert solve.iterations <= 15

    @pytest.mark.parametrize("tau", [0.05, 1.0, 7.3, 20.0])
    def test_single_file_is_one_without_a_step(self, tau):
        solve = solve_characteristic_full(((1, tau),))
        assert (solve.x0, solve.iterations, solve.residual) == (1.0, 0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 10**7), _times)
    def test_single_class_is_the_closed_form(self, count, tau):
        solve = solve_characteristic_full(((count, tau),))
        assert solve.x0 == pytest.approx(count ** (1.0 / tau), rel=1e-12)
        assert solve.iterations <= 1

    def test_no_overflow_at_ten_million_files(self):
        for terms in [((10**7, 20.0),), ((10**7, 20.0),) * 50, ((10**7, 20.0), (1, 0.05))]:
            solve = solve_characteristic_full(terms)
            assert math.isfinite(solve.x0) and solve.residual <= 1e-9
            assert solve.x0 == pytest.approx(bisect_root(terms), rel=1e-12)

    @pytest.mark.parametrize(
        "terms", [((10**7, 1e-3),), ((2, 1e-3), (3, 1e-3)), ((2, 5e-324),), FAR_ROOT_TERMS]
    )
    def test_root_beyond_float_range_raises(self, terms):
        with pytest.raises(SolverError, match="^root exceeds the representable range$"):
            solve_characteristic_full(terms)

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
                solve = solve_characteristic_full(terms)
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
        solve = solve_characteristic_full(SHORT_STEP_TERMS)
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
        kinds = effective_catalog(net, node.id).kinds
        expected = solve_characteristic_full((count, time) for time, count in kinds.items())
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

    def test_masses_are_the_capacity_sensitivities(self):
        """Differentiating sum(N_k * x0**-t_k) = 1 gives dC/dt_k = -C * m_k / T
        and dC/dlog2(N_k) = m_k / T, with m_k the optimal class masses and
        T = sum(t_k * m_k) their mean read time. Central differences of the
        solver on 2,000 seeded catalogs (1-8 classes, counts 2..10**7, times
        in [0.2, 12]) agree within 1e-6 of C / T and of 1 / T."""
        rng, h = random.Random(22), 1e-6

        def capacity(terms) -> float:
            return solve_characteristic_full(terms).capacity_bits_per_time

        def nudged(terms, k, count_factor, time_factor):
            count, time = terms[k]
            return terms[:k] + [(count * count_factor, time * time_factor)] + terms[k + 1 :]

        for _ in range(2000):
            terms = [
                (round(10 ** rng.uniform(0.31, 7)), rng.uniform(0.2, 12))
                for _ in range(rng.randint(1, 8))
            ]
            net, node = single_node_network(terms)
            mass = optimal_distribution(net, node).class_mass
            m = [mass[f"c{k}"] for k in range(len(terms))]
            mean_time = sum(time * m_k for (_, time), m_k in zip(terms, m))
            c = capacity(terms)
            for k, (_, time) in enumerate(terms):
                by_time = (
                    capacity(nudged(terms, k, 1, 1 + h)) - capacity(nudged(terms, k, 1, 1 - h))
                ) / (2 * h * time)
                assert abs(by_time + c * m[k] / mean_time) <= 1e-6 * c / mean_time
                by_log_count = (
                    capacity(nudged(terms, k, 2**h, 1)) - capacity(nudged(terms, k, 2**-h, 1))
                ) / (2 * h)
                assert abs(by_log_count - m[k] / mean_time) <= 1e-6 / mean_time

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


def test_kinds_sum_the_classes_on_one_time_in_first_class_order(fig2_shared):
    catalog = effective_catalog(fig2_shared, "w2")
    assert catalog.entries == {"own": 1.0, "lib": 10.0}
    assert list(catalog.kinds.items()) == [(10.0, 10**7), (1.0, 10)]
    # c0 and c2 share time 2, c1 and c3 time 1: two kinds, keyed as c0 then c1 come
    net, node = single_node_network([(3, 2.0), (5, 1.0), (7, 2.0), (11, 1.0)])
    assert list(effective_catalog(net, node).kinds.items()) == [(2.0, 10), (1.0, 16)]


@settings(max_examples=100, deadline=None)
@given(link_networks())
def test_per_kind_solve_agrees_with_the_per_class_solve(net):
    """The reference sums one term per class; ``node_solution`` one per memory kind.

    Where no two classes share a time the terms are the same, in the same
    order, so the solutions are equal; otherwise only the rounding differs.
    """
    for node in net.nodes:
        catalog = effective_catalog(net, node.id)
        per_class = solve_characteristic_full(
            (catalog.counts[cid], time) for cid, time in catalog.entries.items()
        )
        solution = node_solution(net, node.id)
        if len(catalog.kinds) == len(catalog.entries):
            assert solution == per_class
        else:
            assert abs(solution.x0 - per_class.x0) <= 1e-14 * per_class.x0


def test_every_root_on_an_integer_grid_is_certified_exactly():
    """With integer times, f(x) = sum N_k * x**-t_k - 1 is strictly decreasing
    for x > 0, so f > 0 just below x0 and f < 0 just above, evaluated in exact
    rationals over the classes as drawn, prove the true root within 2**-44 of
    x0 without trusting a float or the grouping into kinds."""
    rng = random.Random(44)
    margin = Fraction(1, 2**44)
    for _ in range(2000):
        terms = [
            (int(10 ** rng.uniform(0, 7)), float(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 30))
        ]
        x0 = Fraction(node_solution(*single_node_network(terms)).x0)

        def f(x: Fraction) -> Fraction:
            return sum(count * x ** -int(time) for count, time in terms) - 1

        assert f(x0 * (1 - margin)) > 0 > f(x0 * (1 + margin)), terms


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
