import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecap import (
    EmpiricalSource,
    IIDSource,
    QuantizedCatalog,
    Trace,
    block_entropy_estimate,
    count_series,
    empirical_distribution,
    entropy_efficiency,
    read_trace,
    sample_iid,
    sample_markov,
    write_trace,
)
from cachecap.traces import _CHUNK, TRACE_HEADER, _draws

from conftest import exactly

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# First outputs of SplitMix64 by seed, cross-checked against a C build of the
# reference algorithm.
KNOWN_ANSWERS = {
    0: [
        1146525961936471366,
        3148508648786604803,
        3908612155999415981,
        4991726496119994406,
        15525681886729249158,
    ],
    1234567: [13760290453583727665, 6379938252351549573, 14661389201477993513],
}


class SplitMix64:
    """Scalar SplitMix64, one draw at a time: the reference that the bulk
    draws of ``cachecap.traces`` are pinned to. The state advances by a
    fixed odd constant; the output is a mix of it.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1F4EE2B5) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def reference_walk(states, first, rows, n, seed):
    """Test-only reference for the sampling walk: ``SplitMix64.next_float``
    and a linear inverse-transform scan per draw, as the walk was first
    written. ``first`` and ``rows`` are plain mass lists."""

    def pick(masses, u):
        acc = 0.0
        last = 0
        for i, mass in enumerate(masses):
            if mass <= 0.0:
                continue
            last = i
            acc += mass
            if u < acc:
                return i
        return last  # u landed in the rounding slack at the top

    rng = SplitMix64(seed)
    symbols = []
    row = first
    for _ in range(n):
        i = pick(row, rng.next_float())
        symbols.append(states[i])
        row = rows[i]
    return tuple(symbols)


def _unshift_xor(z, k):
    x = z
    for _ in range(64 // k + 1):
        x = z ^ (x >> k)
    return x


def seed_whose_first_draw_is(out):
    """The seed whose first ``SplitMix64.next_u64()`` is ``out``: the output
    mix is a bijection on 64-bit words, so it can be run backwards."""
    z = _unshift_xor(out, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = _unshift_xor(z, 27)
    z = (z * pow(0xBF58476D1F4EE2B5, -1, 1 << 64)) & MASK64
    z = _unshift_xor(z, 30)
    return (z - GAMMA) & MASK64


@st.composite
def mass_rows(draw, k):
    """A distribution over k slots: about 20 % zeros, some of them turned
    into 1e-300 masses that do not move a running sum, and sometimes every
    mass scaled so the row sums to about 1 - 1e-10."""
    flags = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
    weights = [draw(st.integers(1, 1000)) if flag else 0 for flag in flags]
    total = sum(weights)
    masses = [w / total if w else draw(st.sampled_from([0.0, 1e-300])) for w in weights]
    if draw(st.booleans()):
        masses = [m * (1 - 1e-10) for m in masses]
    return masses


# Seeds anywhere in the 64-bit range, or seeds whose first draw lies within
# 2**-36 of 1, above a row total of 1 - 1e-10, so it falls in the top slack.
WALK_SEEDS = st.integers(0, MASK64) | st.integers(MASK64 - 2**28, MASK64).map(
    seed_whose_first_draw_is
)

# Lengths that end just before, on and just after a chunk of bulk draws.
CHUNK_EDGES = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]
WALK_LENGTHS = st.integers(0, 3000) | st.sampled_from(CHUNK_EDGES)


class TestSplitMix64:
    def test_known_answers_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == KNOWN_ANSWERS[0]

    def test_known_answers_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == KNOWN_ANSWERS[1234567]

    @pytest.mark.parametrize("seed", KNOWN_ANSWERS)
    def test_known_answers_pin_the_draws_of_sample_iid(self, seed):
        # Draw k + 1 of a seed is the first draw of seed + k * GAMMA. A first
        # mass of exactly u = (top 53 bits) * 2**-53 is not above the draw,
        # so the draw picks "b"; one more ulp of mass and it picks "a".
        for k, out in enumerate(KNOWN_ANSWERS[seed]):
            shifted = (seed + k * GAMMA) & MASK64
            u = (out >> 11) * 2.0**-53
            assert sample_iid({"a": u, "b": 1.0 - u}, 1, shifted).symbols == ("b",)
            above = {"a": u + 2.0**-53, "b": 1.0 - u - 2.0**-53}
            assert sample_iid(above, 1, shifted).symbols == ("a",)

    @pytest.mark.parametrize("n", [0, 1, *CHUNK_EDGES])
    @pytest.mark.parametrize(
        "seed", [0, MASK64, seed_whose_first_draw_is(MASK64)], ids=["0", "2**64-1", "top-slack"]
    )
    def test_bulk_draws_equal_the_scalar_stream(self, seed, n):
        rng = SplitMix64(seed)
        expected = [rng.next_u64() >> 11 for _ in range(n)]
        assert [v for draws in _draws(seed, n) for v in draws] == expected

    def test_floats_are_in_unit_interval(self):
        rng = SplitMix64(99)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert min(values) < 0.1 and max(values) > 0.9

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()

    @pytest.mark.parametrize("out", [0, 1, 2**63, MASK64 - 2**28, MASK64])
    def test_first_draw_can_be_chosen_by_running_the_mix_backwards(self, out):
        assert SplitMix64(seed_whose_first_draw_is(out)).next_u64() == out


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

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError, match=exactly("p: probabilities sum to 0.8, not 1")):
            sample_iid({"a": 0.4, "b": 0.4}, 10, seed=1)
        with pytest.raises(ValueError, match=exactly("p: probabilities sum to 0.0, not 1")):
            sample_iid({}, 10, seed=1)
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            sample_iid({"a": 1.0}, -1, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            True,
            pytest.param(10**400, id="int-10**400"),
            pytest.param("1", id="str-1"),
            None,
            pytest.param([0.5], id="list"),
        ],
    )
    def test_non_finite_or_boolean_mass_rejected(self, bad):
        with pytest.raises(ValueError, match=exactly(f"p: probability {bad!r} is not a finite number")):
            sample_iid({"a": bad, "b": 0.0}, 10, seed=1)
        message = f"transition row 1: probability {bad!r} is not a finite number"
        with pytest.raises(ValueError, match=exactly(message)):
            sample_markov(("a", "b"), ((1.0, 0.0), (bad, 0.0)), (1.0, 0.0), 5, seed=1)

    @pytest.mark.parametrize("mass", [{1: 0.5, "a": 0.5}, {1: 1.0}], ids=["mixed", "int-only"])
    def test_class_ids_must_be_strings(self, mass):
        with pytest.raises(ValueError, match=exactly("class ids must be strings, got 1")):
            sample_iid(mass, 5, seed=1)
        with pytest.raises(ValueError, match=exactly("class ids must be strings, got 1")):
            IIDSource(mass)

    @pytest.mark.parametrize("seed", [-1, 2**64, 99999999999999999999999, True, 1.0, "3"])
    def test_seed_outside_64_bits_or_not_an_int_rejected(self, seed):
        message = f"seed must be an integer in [0, 2**64), got {seed!r}"
        with pytest.raises(ValueError, match=exactly(message)):
            sample_iid({"a": 0.5, "b": 0.5}, 5, seed=seed)
        with pytest.raises(ValueError, match=exactly(message)):
            sample_markov(("a", "b"), ((0.5, 0.5), (0.5, 0.5)), (1.0, 0.0), 0, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_both_ends_of_the_range_accepted(self, seed):
        expected = reference_walk(("a", "b"), [0.5, 0.5], [[0.5, 0.5]] * 2, 50, seed)
        assert sample_iid({"a": 0.5, "b": 0.5}, 50, seed=seed).symbols == expected

    @pytest.mark.parametrize("n", [2**61, 2**62, 10**20])
    def test_a_length_too_large_to_hold_fails_before_any_draw(self, n):
        # The output list is allocated first; from 2**61 entries on, its size
        # check fails before any memory is taken, and past the index range
        # (10**20) the length cannot even be a list size.
        message = f"trace length {n} is too large to hold"
        with pytest.raises(MemoryError, match=exactly(message)):
            sample_iid({"a": 0.5, "b": 0.5}, n, seed=0)
        with pytest.raises(MemoryError, match=exactly(message)):
            sample_markov(("a", "b"), ((0.5, 0.5), (0.5, 0.5)), (1.0, 0.0), n, seed=0)

    def test_a_draw_in_the_top_slack_picks_the_last_positive_mass(self):
        p = {"a": 0.5, "b": 0.5 - 1e-10, "c": 0.0}
        seed = seed_whose_first_draw_is(MASK64)  # first draw 1 - 2**-53
        assert sample_iid(p, 1, seed=seed).symbols == ("b",)

    def test_a_draw_equal_to_a_running_sum_picks_the_next_positive_mass(self):
        p = {"a": 0.5, "b": 1e-300, "c": 0.5}
        seed = seed_whose_first_draw_is(2**63)  # first draw exactly 0.5
        assert sample_iid(p, 1, seed=seed).symbols == ("c",)


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(st.integers(0, 1000), min_size=1, max_size=8).filter(any),
    n=st.integers(0, 300),
    seed=st.integers(0, 2**64 - 1),
)
def test_iid_sampling_is_the_walk_with_identical_rows(weights, n, seed):
    total = sum(weights)
    masses = [w / total for w in weights]
    ids = [f"c{i}" for i in range(len(masses))]  # already in sorted order
    expected = sample_markov(ids, [masses] * len(ids), masses, n, seed).symbols
    assert sample_iid(dict(zip(ids, masses)), n, seed).symbols == expected


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 10),
    n=WALK_LENGTHS,
    seed=WALK_SEEDS,
)
def test_iid_sampling_equals_the_reference_walk(data, k, n, seed):
    masses = data.draw(mass_rows(k))
    ids = [f"c{i:02d}" for i in range(k)]  # already in sorted order
    expected = reference_walk(ids, masses, [masses] * k, n, seed)
    assert sample_iid(dict(zip(ids, masses)), n, seed).symbols == expected


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 8),
    n=WALK_LENGTHS,
    seed=WALK_SEEDS,
)
def test_markov_sampling_equals_the_reference_walk(data, k, n, seed):
    states = [f"s{i}" for i in range(k)]
    rows = [data.draw(mass_rows(k)) for _ in range(k)]
    initial = data.draw(mass_rows(k))
    expected = reference_walk(states, initial, rows, n, seed)
    assert sample_markov(states, rows, initial, n, seed).symbols == expected


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
        message = "transition matrix shape does not match the state list"
        with pytest.raises(ValueError, match=exactly(message)):
            sample_markov(("a", "b"), ((1.0,),), (1.0, 0.0), 5, seed=1)
        with pytest.raises(ValueError, match=exactly("transition row 0: probabilities sum to 1.1, not 1")):
            sample_markov(("a", "b"), ((0.5, 0.6), (0.5, 0.5)), (1.0, 0.0), 5, seed=1)
        message = "initial distribution length does not match the state list"
        with pytest.raises(ValueError, match=exactly(message)):
            sample_markov(("a", "b"), ((0.5, 0.5), (0.5, 0.5)), (1.0,), 5, seed=1)

    def test_states_must_be_unique_strings(self):
        rows = ((0.5, 0.5), (0.5, 0.5))
        with pytest.raises(ValueError, match=exactly("Markov states must be unique")):
            sample_markov(("a", "a"), rows, (1.0, 0.0), 5, seed=1)
        with pytest.raises(ValueError, match=exactly("Markov 'states' must be strings, got 1")):
            sample_markov((1, 2), rows, (1.0, 0.0), 5, seed=1)

    def test_negative_length_rejected(self):
        states, matrix = self.CYCLE
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            sample_markov(states, matrix, (1.0, 0.0), -1, 0)

    @pytest.mark.parametrize(
        "states, transitions, initial, message",
        [
            ("ab", ((1.0, 0.0), (0.0, 1.0)), (1.0, 0.0), "'states' must be an array"),
            (("a", "b"), {"a": (1.0,), "b": (1.0,)}, (1.0, 0.0), "'transitions' must be an array"),
            (("a", "b"), ("10", "01"), (1.0, 0.0), "'transitions' row 0 must be an array"),
            (("a", "b"), ((1.0, 0.0), (0.0, 1.0)), "ab", "'initial' must be an array"),
            (("a", "b"), ((1.0, 0.0), (0.0, 1.0)), None, "'initial' must be an array"),
        ],
        ids=["states-string", "transitions-mapping", "row-string", "initial-string", "initial-none"],
    )
    def test_fields_that_are_not_arrays_rejected(self, states, transitions, initial, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_markov(states, transitions, initial, 5, 0)


class TestEmpiricalDistribution:
    def test_direct_count(self):
        assert empirical_distribution(("a", "a", "b", "b")) == {"a": 0.5, "b": 0.5}

    def test_single_symbol(self):
        assert empirical_distribution(("a",)) == {"a": 1.0}

    def test_empty_rejected(self):
        message = "cannot take the empirical distribution of an empty trace"
        with pytest.raises(ValueError, match=exactly(message)):
            empirical_distribution(())

    @pytest.mark.parametrize("n,tol", [(10**3, 0.05), (10**4, 0.02), (10**5, 0.01)])
    def test_round_trip_tightens_with_length(self, n, tol):
        p = {"x": 0.3, "y": 0.7}
        emp = empirical_distribution(sample_iid(p, n, seed=202))
        assert all(abs(emp[k] - p[k]) < tol for k in p)


def read_trace_reference(path: Path) -> tuple[str, ...] | str:
    """The reader as a loop over lines, one strip and one test per line: the
    symbols, or the reader's message for a file it rejects, one with a line
    whose stripped text starts with a byte order mark."""
    text = path.read_text(encoding="utf-8")
    symbols: list[str] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith("\ufeff"):
            where = "" if text.startswith("\ufeff") else f": line {number}"
            return f"trace file {path}{where} starts with a UTF-8 byte order mark"
        if not line or line.startswith("#"):
            continue
        symbols.append(line)
    return tuple(symbols)


# Every break str.splitlines knows, "\r\n" included, and whitespace that
# str.strip removes around an id.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_PAD = st.text(st.sampled_from(" \t\x1f\xa0\u2003\u3000"), max_size=2)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
TRACE_LINES = st.one_of(
    st.just(TRACE_HEADER),
    _PAD,  # blank
    st.builds(lambda a, body, b: f"{a}#{body}{b}", _PAD, _TEXT, _PAD),  # comment
    st.builds(lambda a, cid, b: f"{a}{cid}{b}", _PAD, _TEXT.filter(bool), _PAD),  # id
    st.builds(lambda a, rest: f"{a}\ufeff{rest}", _PAD, st.sampled_from([TRACE_HEADER, "a", ""])),
)


class TestTraceFiles:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "t.trace"
        trace = Trace(symbols=("a", "b", "a"))
        write_trace(trace, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == TRACE_HEADER
        back = read_trace(path)
        assert back.symbols == trace.symbols

    def test_reader_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# anything\n\na\n b \n#x\nb\n", encoding="utf-8")
        assert read_trace(path).symbols == ("a", "b", "b")

    @pytest.mark.parametrize(
        "bad", ["#a", " b", "b ", "", "a\nb", "a\rb", "a\u2028b", "a\ud800", "\ufeffa"]
    )
    def test_ids_that_would_not_read_back_are_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "t.trace"
        message = (
            f"trace id {bad!r} cannot be written: ids must be one non-empty line of UTF-8 text "
            "without surrounding whitespace, not starting with '#' or U+FEFF"
        )
        with pytest.raises(ValueError, match=exactly(message)):
            write_trace(Trace(symbols=("ok", bad, "ok")), path)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.text(st.sampled_from("a #\t\n\r\x0b\x85\u2028") | st.characters(), max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_every_trace_written_reads_back_unchanged(self, symbols):
        trace = Trace(symbols=tuple(symbols))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.trace"
            try:
                write_trace(trace, path)
            except ValueError:
                assert not path.exists()
                return
            assert read_trace(path).symbols == trace.symbols

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(TRACE_LINES, st.sampled_from(LINE_BREAKS)), max_size=12))
    def test_reader_equals_the_line_by_line_reference(self, lines):
        text = "".join(line + end for line, end in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.trace"
            path.write_text(text, encoding="utf-8", newline="")
            expected = read_trace_reference(path)
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=exactly(expected)):
                    read_trace(path)
            else:
                assert read_trace(path).symbols == expected

    @pytest.mark.parametrize("text", [f"{TRACE_HEADER}\na\nb\n", "a\nb\n"], ids=["header", "first-id"])
    def test_a_byte_order_mark_is_rejected_naming_the_path(self, tmp_path, text):
        # read as text, the mark would join the header or the first id
        path = tmp_path / "t.trace"
        path.write_text("\ufeff" + text, encoding="utf-8")
        message = f"trace file {path} starts with a UTF-8 byte order mark"
        with pytest.raises(ValueError, match=exactly(message)):
            read_trace(path)

    @pytest.mark.parametrize(
        "text, number",
        [
            (f"{TRACE_HEADER}\na\n\ufeff{TRACE_HEADER}\nb\n", 3),
            ("a\n  \ufeffb\n", 2),
            (" \ufeffa\n", 1),
        ],
        ids=["joined-files", "padded-id", "padded-first-line"],
    )
    def test_a_later_line_that_starts_with_a_byte_order_mark_is_rejected(self, tmp_path, text, number):
        # joined files would otherwise read as ('a', '\ufeff#cachecap-trace v1', 'b')
        path = tmp_path / "t.trace"
        path.write_text(text, encoding="utf-8")
        message = f"trace file {path}: line {number} starts with a UTF-8 byte order mark"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trace(path)

    def test_a_mark_inside_or_after_an_id_reads_back(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(Trace(symbols=("a\ufeff", "b\ufeffc")), path)
        assert read_trace(path).symbols == ("a\ufeff", "b\ufeffc")

    def test_rewrite_is_byte_identical(self, tmp_path):
        trace = sample_iid({"a": 0.5, "b": 0.5}, 1000, seed=11)
        p1, p2 = tmp_path / "1.trace", tmp_path / "2.trace"
        write_trace(trace, p1)
        write_trace(sample_iid({"a": 0.5, "b": 0.5}, 1000, seed=11), p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("bad", [True, False, 5.0, "5", None], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: sample_iid({"a": 0.5, "b": 0.5}, v, 0), "n"),
        (lambda v: sample_markov(("a", "b"), ((0.5, 0.5), (0.5, 0.5)), (1.0, 0.0), v, 0), "n"),
        (lambda v: block_entropy_estimate(("a", "b") * 100, v), "order"),
        (lambda v: count_series(QuantizedCatalog(int_times=((2, 1), (1, 2)), grid=1.0), v), "t_max"),
        (lambda v: EmpiricalSource(Trace(("a", "b") * 100), v).entropy({}), "order"),
        (lambda v: block_entropy_estimate(("a", "b") * 5, 3, force=v), "force"),
        (lambda v: EmpiricalSource(Trace(("a", "b") * 5), 3, v).entropy({}), "force"),
    ],
    ids=[
        "sample_iid",
        "sample_markov",
        "block_entropy_estimate",
        "count_series",
        "EmpiricalSource",
        "block_entropy_estimate-force",
        "EmpiricalSource-force",
    ],
)
def test_a_length_order_or_horizon_that_is_not_an_int_is_rejected(call, name, bad):
    # a bool is an int to Python, but True would be read as 1. force takes a
    # bool and nothing else: any truthy value would force, so a bool's int
    # twin, 1 or 0, stands in for it there.
    kind = "an int"
    if name == "force":
        kind = "a bool"
        bad = int(bad) if isinstance(bad, bool) else bad
    with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize(
    "symbols, kind",
    [("aab", "str"), ({"a": 1, "b": 2}, "dict"), ({"a", "b"}, "set"), (Trace("aab"), "str"),
     (Trace({"a": 1, "b": 2}), "dict")],
    ids=["str", "dict", "set", "Trace-of-str", "Trace-of-dict"],
)
@pytest.mark.parametrize(
    "call, name",
    [
        (empirical_distribution, "trace"),
        (lambda v: block_entropy_estimate(v, 0, force=True), "symbols"),
        (lambda v: EmpiricalSource(v, 0, force=True), "trace"),
    ],
    ids=["empirical_distribution", "block_entropy_estimate", "EmpiricalSource"],
)
def test_symbols_that_are_not_a_trace_list_or_tuple_are_rejected(call, name, symbols, kind):
    # iterating a string or a mapping would count its characters or keys,
    # whether a Trace holds it or not
    with pytest.raises(ValueError, match=exactly(f"'{name}' must be a Trace, a list or a tuple, got {kind}")):
        call(symbols)


@pytest.mark.parametrize(
    "call",
    [
        lambda net: empirical_distribution([1, "a"]),
        lambda net: block_entropy_estimate([1, "a"] * 20, 0),
        lambda net: entropy_efficiency(net, "n", EmpiricalSource((1, 2) * 20)),
        lambda net: EmpiricalSource((1, "a") * 20).marginal(),
    ],
    ids=["empirical_distribution", "block_entropy_estimate", "entropy_efficiency", "marginal"],
)
def test_a_trace_symbol_that_is_not_a_string_is_rejected(call, three_file):
    # unchecked, sorting the ids fails on mixed types, an estimate counts 1
    # as an id, and an efficiency names '1' as an unknown class
    with pytest.raises(ValueError, match="^trace symbols must be strings, got 1$"):
        call(three_file)
