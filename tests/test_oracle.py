import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cachecap import (
    Network,
    Node,
    analyze_network,
    convergence_report,
    count_series,
    effective_catalog,
    infer_grid,
    node_solution,
    quantize,
    quantize_node,
    solve_characteristic_full,
)
from cachecap import oracle
from cachecap.oracle import QuantizedCatalog

from conftest import link_networks, random_terms, single_node_network

PELL = QuantizedCatalog(int_times=((2, 1), (1, 2)), grid=1.0)
PELL_RATE = math.log2(1 + math.sqrt(2))


def enumerate_count(file_times: list[int], total: int) -> int:
    """Independent oracle: count sequences over individual files by recursion."""
    if total == 0:
        return 1
    return sum(enumerate_count(file_times, total - t) for t in file_times if t <= total)


class TestQuantize:
    def test_exact_half_grid(self, three_file):
        catalog = effective_catalog(three_file, "n")
        q = quantize(catalog, 0.5)
        assert q.int_times == ((2, 2), (1, 4))
        assert q.grid == 0.5

    def test_mixed_times_on_half_grid(self):
        # per-file times [1.0, 1.0, 2.5] on grid 0.5 -> steps [2, 2, 5]
        net, node = single_node_network([(2, 1.0), (1, 2.5)])
        q = quantize_node(net, node, grid=0.5)
        assert q.int_times == ((2, 2), (1, 5))

    def test_identity_grid(self, fig1):
        q = quantize_node(fig1, "w2", grid=1.0)
        assert sorted(q.int_times) == [(10, 1), (10**7, 10)]

    def test_classes_on_one_time_form_one_kind(self):
        # a:3, b:5 at time 1 and c:7, d:2 at time 3: two memory kinds of 8 and 9 files
        net, node = single_node_network([(3, 1.0), (5, 1.0), (7, 3.0), (2, 3.0)])
        q = quantize_node(net, node)
        assert q.int_times == ((8, 1), (9, 3))
        per_class = QuantizedCatalog(int_times=((3, 1), (5, 1), (7, 3), (2, 3)), grid=1.0)
        assert count_series(q, 60) == count_series(per_class, 60)
        assert count_series(q, 4)[1:] == [8, 64, 8 * 64 + 9, 8 * 521 + 9 * 8]

    def test_off_grid_time_names_the_class(self):
        net, node = single_node_network([(1, 1.0), (1, 1 / 3)])
        with pytest.raises(ValueError, match="class 'c1'"):
            quantize_node(net, node, grid=0.5)

    def test_gcd_recorded(self):
        net, node = single_node_network([(1, 2.0), (1, 4.0)])
        x0 = node_solution(net, node).x0
        report = convergence_report(quantize_node(net, node, grid=1.0), 40, x0)
        assert [p.time_steps for p in report.points] == list(range(2, 41, 2))

    def test_invalid_grid_rejected(self, three_file):
        catalog = effective_catalog(three_file, "n")
        with pytest.raises(ValueError, match="grid"):
            quantize(catalog, 0.0)

    def test_grid_too_fine_for_a_float_is_named(self, three_file):
        # 1.0 / 1e-320 overflows to inf, which round() cannot take
        catalog = effective_catalog(three_file, "n")
        with pytest.raises(ValueError, match=r"class 'fast': time 1.0 / grid 1e-320 is not"):
            quantize(catalog, 1e-320)

    def test_capacity_is_preserved_across_grids(self):
        # capacity in grid units must equal (capacity per time unit) * grid
        net, node = single_node_network([(1, 1.0), (1, 2.5)])
        q = quantize_node(net, node)  # inferred grid 0.5
        assert q.grid == 0.5
        x_time = solve_characteristic_full(((1, 1.0), (1, 2.5))).x0
        x_grid = solve_characteristic_full((c, float(t)) for c, t in q.int_times).x0
        assert math.log2(x_grid) == pytest.approx(math.log2(x_time) * q.grid, rel=1e-9)


class TestInferGrid:
    def test_integer_times(self):
        assert infer_grid([1.0, 10.0]) == 1.0

    def test_half_unit(self):
        assert infer_grid([1.0, 2.5]) == 0.5

    def test_tenths(self):
        assert infer_grid([0.2, 0.3]) == pytest.approx(0.1, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="cannot infer a grid from an empty catalog"):
            infer_grid([])

    def test_time_without_a_grid_is_named(self):
        for times in ([1e-7], [1.0, 4e-7]):
            with pytest.raises(ValueError, match=r"time \d\.?\d*e-07 has no grid .*pass --grid"):
                infer_grid(times)


def pairwise_grid(times: list[float]) -> float:
    """Reference for ``infer_grid``: the rational gcd folded in one time at a time."""
    gcd = Fraction(0)
    for t in times:
        r = Fraction(t).limit_denominator(10**6)
        if r == 0:
            raise ValueError(f"time {t} has no grid with denominator <= {10**6}; pass --grid")
        gcd = Fraction(
            math.gcd(gcd.numerator * r.denominator, r.numerator * gcd.denominator),
            gcd.denominator * r.denominator,
        )
    if gcd == 0:
        raise ValueError("cannot infer a grid from an empty catalog")
    return float(gcd)


def grid_or_error(infer, times: list[float]) -> float | str:
    try:
        return infer(times)
    except ValueError as exc:
        return str(exc)


rational_times = st.builds(Fraction, st.integers(1, 10**7), st.integers(1, 10**6)).map(float)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(rational_times, st.floats(1e-8, 1e4)), max_size=6))
@example([0.5, 1e-7, 4e-7, 2.5])  # two times round to 0: the first is named
@example([0.2, 0.3, 0.7])
@example([])
def test_infer_grid_is_the_pairwise_rational_gcd(times):
    assert grid_or_error(infer_grid, times) == grid_or_error(pairwise_grid, times)


class TestCountTasks:
    def test_empty_task_convention(self):
        assert count_series(PELL, 0)[0] == 1

    def test_small_counts(self):
        assert count_series(PELL, 2)[2] == 5  # aa ab ba bb c
        assert count_series(PELL, 3)[3] == 12  # 8 unit triples + 4 mixes with c

    def test_unreachable_time_is_zero(self):
        even = QuantizedCatalog(int_times=((2, 2),), grid=1.0)
        assert count_series(even, 3)[3] == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            count_series(PELL, -1)

    @pytest.mark.parametrize(
        "pair, message",
        [
            ((2, 0), "quantized step must be an int >= 1, got 0"),
            ((2, -1), "quantized step must be an int >= 1, got -1"),
            ((2, 1.5), "quantized step must be an int >= 1, got 1.5"),
            ((2, True), "quantized step must be an int >= 1, got True"),
            ((0, 1), "quantized count must be an int >= 1, got 0"),
            ((2.0, 1), "quantized count must be an int >= 1, got 2.0"),
            ((True, 1), "quantized count must be an int >= 1, got True"),
        ],
        ids=[
            "step-0", "step-neg", "step-float", "step-bool", "count-0", "count-float", "count-bool"
        ],
    )
    def test_hand_built_pairs_are_checked(self, pair, message):
        q = QuantizedCatalog(int_times=((1, 2), pair), grid=1.0)
        empty = oracle.OracleReport(points=(), solver_capacity=0.0, final_gap=0.0, catalog=q)
        for count in (lambda: count_series(q, 5), empty.series):  # ints, then decimal digits
            with pytest.raises(ValueError) as exc:
                count()
            assert str(exc.value) == message

    def test_counts_are_exact_integers_satisfying_the_recurrence(self):
        nu = count_series(PELL, 200)
        for t in range(2, 201):
            assert nu[t] == 2 * nu[t - 1] + nu[t - 2]
        assert all(isinstance(v, int) for v in nu)
        assert nu[200].bit_length() > 64  # far beyond double precision

    def test_dp_matches_exhaustive_enumeration_on_random_catalogs(self):
        rng = random.Random(3)
        random_catalogs = [
            random_terms(rng, max_classes=3, max_files=4, time_range=(1, 4), integer_times=True)
            for _ in range(40)
        ]
        # first an empty catalog, a single kind and a repeated time
        for terms in [[], [(3, 2)], [(2, 1), (1, 3), (2, 3)], *random_catalogs]:
            q = QuantizedCatalog(
                int_times=tuple((c, int(t)) for c, t in terms),
                grid=1.0,
            )
            file_times = [int(t) for c, t in terms for _ in range(c)]
            for total in range(0, 9):
                assert count_series(q, total)[total] == enumerate_count(file_times, total)


class TestConvergenceReport:
    def test_three_file_rate_converges(self):
        report = convergence_report(PELL, 60, 1 + math.sqrt(2))
        assert report.points[-1].time_steps == 60
        assert abs(report.points[-1].rate - PELL_RATE) < 0.02
        assert report.final_gap < 0.02

    def test_single_file_rate_is_zero(self):
        q = QuantizedCatalog(int_times=((1, 3),), grid=1.0)
        report = convergence_report(q, 30, 1.0)
        assert [p.time_steps for p in report.points] == [3, 6, 9, 12, 15, 18, 21, 24, 27, 30]
        assert all(p.count == 1 and p.rate == 0.0 for p in report.points)

    def test_two_unit_files_rate_is_exactly_one(self):
        q = QuantizedCatalog(int_times=((2, 1),), grid=1.0)
        report = convergence_report(q, 80, 2.0)
        assert all(p.rate == 1.0 for p in report.points)
        assert report.final_gap == 0.0

    def test_gap_shrinks_with_horizon(self):
        x0 = 1 + math.sqrt(2)
        assert convergence_report(PELL, 200, x0).final_gap < convergence_report(PELL, 20, x0).final_gap

    def test_points_only_on_the_time_lattice(self):
        q = QuantizedCatalog(int_times=((2, 2), (1, 4)), grid=0.5)
        x0 = solve_characteristic_full(((2, 1.0), (1, 2.0))).x0
        report = convergence_report(q, 40, x0**2)
        assert all(p.time_steps % 2 == 0 for p in report.points)

    def test_rate_is_in_original_time_units(self):
        # same catalog on a finer grid must report the same rates
        coarse = QuantizedCatalog(int_times=((2, 1), (1, 2)), grid=1.0)
        fine = QuantizedCatalog(int_times=((2, 2), (1, 4)), grid=0.5)
        r_coarse = convergence_report(coarse, 100, 1 + math.sqrt(2))
        r_fine = convergence_report(fine, 200, 1 + math.sqrt(2))
        assert r_fine.points[-1].rate == pytest.approx(r_coarse.points[-1].rate, rel=1e-12)

    def test_horizon_below_largest_time_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            convergence_report(PELL, 1, 2.0)

    def test_a_negative_horizon_is_refused_as_negative_before_counting(self, monkeypatch):
        # compared first, it read "t_max -1 is below the largest quantized time 2"
        def no_count(q, t_max):
            raise AssertionError("count_series ran")

        monkeypatch.setattr(oracle, "count_series", no_count)
        assert PELL.max_time == 2
        with pytest.raises(ValueError, match="^t_max must be >= 0, got -1$"):
            convergence_report(PELL, -1, 2.0)

    @pytest.mark.parametrize("t_max", ["5", None, True, False, 5.0], ids=repr)
    def test_horizon_not_an_int_rejected_before_it_is_compared(self, t_max):
        # compared first, "5" and None raised TypeError and True was below the largest time
        for call in (lambda: convergence_report(PELL, t_max, 2.0), lambda: count_series(PELL, t_max)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"t_max must be an int, got {t_max!r}"

    def test_a_step_beyond_the_horizon_is_refused_before_counting(self, monkeypatch):
        # counting first would allocate a window of 2,000,000,000 values
        def no_count(q, t_max):
            raise AssertionError("count_series ran")

        monkeypatch.setattr(oracle, "count_series", no_count)
        wide = QuantizedCatalog(int_times=((2, 1), (1, 2_000_000_000)), grid=1e-9)
        message = "t_max 200 is below the largest quantized time 2000000000"
        with pytest.raises(ValueError, match=f"^{message}$"):
            convergence_report(wide, 200, 2.0)

    @pytest.mark.parametrize(
        "grid", [0.0, -1.0, math.inf, math.nan, pytest.param(10**400, id="10**400"), True, "1"]
    )
    def test_grid_not_positive_and_finite_rejected(self, grid, three_file):
        # a bool would be read as 1, and a string is no number at all
        q = QuantizedCatalog(int_times=PELL.int_times, grid=grid)
        for call in (
            lambda: convergence_report(q, 10, 1 + math.sqrt(2)),
            lambda: quantize(effective_catalog(three_file, "n"), grid),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"grid must be positive and finite, got {grid!r}"

    @pytest.mark.parametrize("x0", [math.nan, True, False, "2"], ids=repr)
    def test_solver_x0_bool_nan_or_no_number_rejected(self, x0):
        # NaN > 0 is False and True > 0 is True, so neither may fall through
        with pytest.raises(ValueError) as exc:
            convergence_report(PELL, 10, x0)
        assert str(exc.value) == f"solver_x0 must be a number or None, got {x0!r}"

    @pytest.mark.parametrize("x0", [None, 0, 0.0, -1.0, -math.inf])
    def test_solver_x0_none_or_not_positive_is_capacity_zero(self, x0):
        report = convergence_report(PELL, 10, x0)
        assert report.solver_capacity == 0.0
        assert report.final_gap == report.points[-1].rate

    def test_nothing_reachable_is_capacity_zero(self):
        net = Network(classes=(), nodes=(Node(id="n", stores=frozenset()),), links=())
        q = quantize(effective_catalog(net, "n"), 1.0)
        report = convergence_report(q, 10, node_solution(net, "n").x0)  # x0 is None
        assert report.points == ()
        assert report.solver_capacity == 0.0 and report.final_gap == 0.0
        assert report.series() == []

    def test_repr_shows_a_count_too_long_for_str_as_its_bit_length(self, three_file):
        x0 = node_solution(three_file, "n").x0
        report = convergence_report(quantize_node(three_file, "n", grid=1.0), 12000, x0)
        text = repr(report)
        assert repr(report.points[0]) == "OraclePoint(time_steps=1, count=2, rate=1.0)"
        assert "OraclePoint(time_steps=12000, count=<15259-bit int>, rate=" in text

    def test_json_serialization_uses_decimal_strings(self):
        report = convergence_report(PELL, 10, 1 + math.sqrt(2))
        series = report.series()
        assert series[0] == {"T": 1, "nu": "2", "rate": 1.0}
        assert all(isinstance(row["nu"], str) for row in series)


@st.composite
def quantized_catalogs(draw) -> QuantizedCatalog:
    """1-5 classes, counts up to 10**7, times 1-20 scaled by 1-3 (so some T are skipped)."""
    scale = draw(st.integers(1, 3))
    term = st.tuples(st.integers(1, 10**7), st.integers(1, 20))
    terms = draw(st.lists(term, min_size=1, max_size=5))
    return QuantizedCatalog(int_times=tuple((c, tau * scale) for c, tau in terms), grid=1.0)


@settings(max_examples=100, deadline=None)
@given(quantized_catalogs(), st.integers(60, 300))
@example(QuantizedCatalog(int_times=(), grid=1.0), 0)
@example(QuantizedCatalog(int_times=(), grid=1.0), 60)
@example(QuantizedCatalog(int_times=((3, 2),), grid=1.0), 2)
@example(QuantizedCatalog(int_times=((2, 1), (1, 3), (2, 3)), grid=1.0), 60)
def test_report_digits_are_the_exact_counts(q, t_max):
    report = convergence_report(q, t_max, 2.0)
    series = report.series()
    assert [row["T"] for row in series] == [p.time_steps for p in report.points]
    assert [row["nu"] for row in series] == [str(p.count) for p in report.points]
    assert oracle._decimal_series(q, t_max) == [str(v) for v in count_series(q, t_max)]


def test_oracle_agrees_with_solver_on_integer_catalogs():
    rng = random.Random(17)
    for _ in range(10):
        terms = random_terms(rng, max_classes=4, max_files=10, time_range=(1, 5), integer_times=True)
        if sum(c for c, _ in terms) < 2:
            continue
        net, node = single_node_network(terms)
        q = quantize_node(net, node, grid=1.0)
        x0 = solve_characteristic_full(terms).x0
        report = convergence_report(q, 200, x0)
        assert report.final_gap < 0.02


@pytest.mark.parametrize(
    "scenario,nodes",
    [
        ("fig1", ["w2"]),
        ("fig2", ["w2", "w3"]),
        ("fig2_shared", ["w2", "w3"]),
        ("three_file", ["n"]),
    ],
)
def test_oracle_agrees_with_solver_on_all_golden_scenarios(scenario, nodes, request):
    net = request.getfixturevalue(scenario)
    for node in nodes:
        x0 = node_solution(net, node).x0
        report = convergence_report(quantize_node(net, node, grid=1.0), 200, x0)
        assert report.final_gap < 0.02


@settings(max_examples=100, deadline=None)
@given(link_networks())
def test_oracle_rates_never_exceed_the_solver_capacity(net):
    """nu(T) <= X0**T by induction on the recurrence, since sum(count * X0**-tau) = 1."""
    for node, nc in analyze_network(net).per_node.items():
        if sum(effective_catalog(net, node).kinds.values()) < 2:
            continue
        report = convergence_report(quantize_node(net, node), 200, nc.x0)
        assert report.points
        for point in report.points:
            assert point.rate <= nc.capacity_bits_per_time + 1e-12


def per_class_series(catalog, grid: float, t_max: int) -> list[int]:
    """Reference DP with one term per class, in class-id order."""
    terms = [(catalog.counts[cid], round(time / grid)) for cid, time in sorted(catalog.entries.items())]
    nu = [1] + [0] * t_max
    for t in range(1, t_max + 1):
        nu[t] = sum(count * nu[t - tau] for count, tau in terms if tau <= t)
    return nu


@settings(max_examples=100, deadline=None)
@given(link_networks())
def test_counting_per_kind_equals_counting_per_class(net):
    """Merging classes that share a time changes no count, orders the times and keeps every file."""
    for node in net.nodes:
        catalog = effective_catalog(net, node.id)
        if not catalog.entries:
            continue
        q = quantize(catalog, None)
        taus = [tau for _, tau in q.int_times]
        assert all(a < b for a, b in zip(taus, taus[1:]))
        assert sum(count for count, _ in q.int_times) == sum(catalog.counts[c] for c in catalog.entries)
        assert count_series(q, 40) == per_class_series(catalog, q.grid, 40)
