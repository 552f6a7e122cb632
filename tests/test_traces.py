import pytest

from cachecap import (
    SplitMix64,
    Trace,
    empirical_distribution,
    read_trace,
    sample_iid,
    sample_markov,
    write_trace,
)
from cachecap.traces import TRACE_HEADER


class TestSplitMix64:
    def test_known_answers_seed_zero(self):
        # cross-checked against a C build of the reference algorithm
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == [
            1146525961936471366,
            3148508648786604803,
            3908612155999415981,
            4991726496119994406,
            15525681886729249158,
        ]

    def test_known_answers_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            13760290453583727665,
            6379938252351549573,
            14661389201477993513,
        ]

    def test_floats_are_in_unit_interval(self):
        rng = SplitMix64(99)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert min(values) < 0.1 and max(values) > 0.9

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()


class TestSampleIid:
    def test_degenerate_distribution(self):
        trace = sample_iid({"only": 1.0}, 5, seed=1)
        assert trace.symbols == ("only",) * 5

    def test_zero_length(self):
        trace = sample_iid({"a": 0.5, "b": 0.5}, 0, seed=1)
        assert trace.symbols == ()
        assert trace.length == 0

    def test_frequencies_concentrate(self):
        trace = sample_iid({"a": 0.5, "b": 0.5}, 10**5, seed=7)
        emp = empirical_distribution(trace)
        assert abs(emp["a"] - 0.5) < 0.01
        assert abs(emp["b"] - 0.5) < 0.01

    def test_deterministic_in_the_seed(self):
        a = sample_iid({"a": 0.3, "b": 0.7}, 500, seed=42)
        b = sample_iid({"a": 0.3, "b": 0.7}, 500, seed=42)
        c = sample_iid({"a": 0.3, "b": 0.7}, 500, seed=43)
        assert a.symbols == b.symbols
        assert a.symbols != c.symbols

    def test_golden_prefix_pinned(self):
        # freezes the draw order (sorted ids, one draw per symbol)
        trace = sample_iid({"a": 0.5, "b": 0.5}, 8, seed=0)
        assert trace.symbols == ("a", "a", "a", "a", "b", "a", "b", "a")

    def test_provenance_recorded(self):
        assert sample_iid({"a": 1.0}, 3, seed=9).provenance == "iid(seed=9, n=3)"

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            sample_iid({"a": 0.4, "b": 0.4}, 10, seed=1)
        with pytest.raises(ValueError):
            sample_iid({}, 10, seed=1)
        with pytest.raises(ValueError):
            sample_iid({"a": 1.0}, -1, seed=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), True])
    def test_non_finite_or_boolean_mass_rejected(self, bad):
        with pytest.raises(ValueError, match="not a finite number"):
            sample_iid({"a": bad, "b": 0.0}, 10, seed=1)
        with pytest.raises(ValueError, match="not a finite number"):
            sample_markov(("a", "b"), ((1.0, 0.0), (bad, 0.0)), (1.0, 0.0), 5, seed=1)


class TestSampleMarkov:
    CYCLE = (("a", "b"), ((0.0, 1.0), (1.0, 0.0)))

    def test_deterministic_cycle(self):
        states, matrix = self.CYCLE
        trace = sample_markov(states, matrix, (1.0, 0.0), 4, seed=3)
        assert trace.symbols == ("a", "b", "a", "b")

    def test_single_symbol_comes_from_initial_distribution(self):
        states, matrix = self.CYCLE
        assert sample_markov(states, matrix, (1.0, 0.0), 1, seed=3).symbols == ("a",)
        assert sample_markov(states, matrix, (0.0, 1.0), 1, seed=3).symbols == ("b",)

    def test_transition_frequencies_concentrate(self):
        states = ("a", "b")
        matrix = ((0.75, 0.25), (0.25, 0.75))
        trace = sample_markov(states, matrix, (0.5, 0.5), 10**5, seed=33)
        pairs: dict[tuple[str, str], int] = {}
        for prev, cur in zip(trace.symbols, trace.symbols[1:]):
            pairs[(prev, cur)] = pairs.get((prev, cur), 0) + 1
        for i, a in enumerate(states):
            row_total = sum(c for (p, _), c in pairs.items() if p == a)
            for j, b in enumerate(states):
                freq = pairs.get((a, b), 0) / row_total
                assert abs(freq - matrix[i][j]) < 0.01

    def test_deterministic_in_the_seed(self):
        states = ("a", "b")
        matrix = ((0.9, 0.1), (0.5, 0.5))
        t1 = sample_markov(states, matrix, (1.0, 0.0), 200, seed=5)
        t2 = sample_markov(states, matrix, (1.0, 0.0), 200, seed=5)
        assert t1.symbols == t2.symbols

    def test_shape_and_stochasticity_validated(self):
        with pytest.raises(ValueError, match="shape"):
            sample_markov(("a", "b"), ((1.0,),), (1.0, 0.0), 5, seed=1)
        with pytest.raises(ValueError, match="row"):
            sample_markov(("a", "b"), ((0.5, 0.6), (0.5, 0.5)), (1.0, 0.0), 5, seed=1)
        with pytest.raises(ValueError, match="initial"):
            sample_markov(("a", "b"), ((0.5, 0.5), (0.5, 0.5)), (1.0,), 5, seed=1)


class TestEmpiricalDistribution:
    def test_direct_count(self):
        assert empirical_distribution(("a", "a", "b", "b")) == {"a": 0.5, "b": 0.5}

    def test_single_symbol(self):
        assert empirical_distribution(("a",)) == {"a": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_distribution(())

    @pytest.mark.parametrize("n,tol", [(10**3, 0.05), (10**4, 0.02), (10**5, 0.01)])
    def test_round_trip_tightens_with_length(self, n, tol):
        p = {"x": 0.3, "y": 0.7}
        emp = empirical_distribution(sample_iid(p, n, seed=202))
        assert all(abs(emp[k] - p[k]) < tol for k in p)


class TestTraceFiles:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "t.trace"
        trace = Trace(symbols=("a", "b", "a"), provenance="test")
        write_trace(trace, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == TRACE_HEADER
        back = read_trace(path)
        assert back.symbols == trace.symbols

    def test_reader_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# anything\n\na\n b \n#x\nb\n", encoding="utf-8")
        assert read_trace(path).symbols == ("a", "b", "b")

    def test_rewrite_is_byte_identical(self, tmp_path):
        trace = sample_iid({"a": 0.5, "b": 0.5}, 1000, seed=11)
        p1, p2 = tmp_path / "1.trace", tmp_path / "2.trace"
        write_trace(trace, p1)
        write_trace(sample_iid({"a": 0.5, "b": 0.5}, 1000, seed=11), p2)
        assert p1.read_bytes() == p2.read_bytes()
