import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecap import (
    EmpiricalSource,
    IIDSource,
    MarkovSource,
    ScenarioError,
    Trace,
    block_entropy_estimate,
    entropy_efficiency,
    node_capacity,
    optimal_distribution,
    sample_iid,
)

from conftest import exactly, random_terms, record_calls, single_node_network

FLIP = MarkovSource(states=("a", "b"), transitions=((0.75, 0.25), (0.25, 0.75)))
FLIP_TRACE = MarkovSource(
    states=("fast", "slow"), transitions=((0.75, 0.25), (0.25, 0.75))
).sample(20000, seed=3)


def reference_marginal(symbols):
    """Test-only reference for an empirical marginal: a ``Counter`` of the
    symbols, each count divided by the length, in sorted id order."""
    counts = Counter(symbols)
    return {cid: counts[cid] / len(symbols) for cid in sorted(counts)}


FLIP_MARGINAL = reference_marginal(FLIP_TRACE.symbols)


def reference_block_estimate(symbols, n):
    """Test-only reference for ``block_entropy_estimate(..., force=True)``:
    one ``tuple(symbols[i:i+m])`` slice per position, counted by ``Counter``,
    as the plug-in estimate was first written."""

    def block_entropy(m):
        n_blocks = len(symbols) - m + 1
        counts = Counter(tuple(symbols[i : i + m]) for i in range(n_blocks))
        h = 0.0
        for c in counts.values():
            p = c / n_blocks
            h -= p * math.log2(p)
        return h

    raw = block_entropy(1) if n == 0 else block_entropy(n + 1) - block_entropy(n)
    alphabet = len(set(symbols))
    bound = math.log2(alphabet) if alphabet > 1 else 0.0
    return min(max(raw, 0.0), bound)


@st.composite
def traces_with_order(draw):
    """A trace over 1-40 ids drawn from short strings over "ab1", so many ids
    are prefixes of others, and an order 0-3 it is long enough for."""
    ids = draw(st.lists(st.text("ab1", min_size=1, max_size=3), min_size=1, max_size=40, unique=True))
    order = draw(st.integers(0, 3))
    symbols = draw(st.lists(st.sampled_from(ids), min_size=order + 1, max_size=2000))
    return tuple(symbols), order


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IIDSource([("a", 1.0)]), "'class_mass' must be a mapping, got list"),
        (lambda: IIDSource(None), "'class_mass' must be a mapping, got NoneType"),
        (lambda: sample_iid([("a", 1.0)], 3, 0), "'p' must be a mapping, got list"),
    ],
    ids=["source-list", "source-none", "sample-list"],
)
def test_class_mass_that_is_not_a_mapping_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=exactly(message)):
        call()


class TestIidEntropy:
    def test_fair_coin(self):
        assert IIDSource({"a": 0.5, "b": 0.5}).entropy({"a": 1, "b": 1}).value == 1.0

    def test_degenerate(self):
        assert IIDSource({"a": 1.0, "b": 0.0}).entropy({"a": 1, "b": 1}).value == 0.0

    def test_class_counts_add_uniform_spread(self):
        # all mass on one class of 8 files: 3 bits of file choice
        assert IIDSource({"c": 1.0}).entropy({"c": 8}).value == pytest.approx(3.0, abs=1e-12)

    def test_estimate_metadata(self):
        est = IIDSource({"a": 0.5, "b": 0.5}).entropy({"a": 1, "b": 1})
        assert est.order == 0

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError, match=exactly("class_mass: probabilities sum to 1.2, not 1")):
            IIDSource({"a": 0.6, "b": 0.6})
        with pytest.raises(ValueError, match=exactly("class_mass: negative probability -0.5")):
            IIDSource({"a": 1.5, "b": -0.5})

    @pytest.mark.parametrize(
        "rebuild, message",
        [
            (lambda src: src._replace(class_mass={"own": 1.8}), "class_mass: probabilities sum to 1.8, not 1"),
            (lambda src: src._replace(class_mass=[("own", 1.0)]), "'class_mass' must be a mapping, got list"),
            (lambda src: IIDSource._make([{"own": 1.8}]), "class_mass: probabilities sum to 1.8, not 1"),
        ],
        ids=["replace-sum-1.8", "replace-list", "make-sum-1.8"],
    )
    def test_a_source_rebuilt_with_replace_or_make_is_checked(self, rebuild, message):
        src = IIDSource(class_mass={"own": 1.0})
        with pytest.raises(ValueError, match=f"^{message}$"):
            rebuild(src)

    def test_replace_keeps_a_valid_source_and_names_an_unknown_field(self):
        src = IIDSource(class_mass={"own": 1.0})
        assert src._replace(class_mass={"own": 0.25, "b": 0.75}) == ({"own": 0.25, "b": 0.75},)
        with pytest.raises(ValueError, match=r"^Got unexpected field names: \['mass'\]$"):
            src._replace(mass={"own": 1.0})


class TestMarkovEntropyRate:
    def test_deterministic_cycle_has_zero_rate(self):
        cycle = MarkovSource(states=("a", "b"), transitions=((0.0, 1.0), (1.0, 0.0)))
        assert cycle.entropy({}).value == 0.0

    def test_symmetric_flip(self):
        assert FLIP.entropy({}).value == pytest.approx(0.811278, abs=1e-6)

    def test_identical_rows_reduce_to_iid(self):
        row = {"a": 0.2, "b": 0.3, "c": 0.5}
        chain = MarkovSource(
            states=("a", "b", "c"),
            transitions=((0.2, 0.3, 0.5),) * 3,
        )
        assert chain.entropy({}).value == pytest.approx(
            IIDSource(row).entropy(dict.fromkeys(row, 1)).value, rel=1e-12
        )

    def test_reducible_chain_rejected(self):
        # two closed classes, then a transient state 'a' (pi = (0, 1) is unique there)
        for transitions in (((1.0, 0.0), (0.0, 1.0)), ((0.5, 0.5), (0.0, 1.0))):
            chain = MarkovSource(states=("a", "b"), transitions=transitions)
            message = "Markov chain is not irreducible: some state cannot reach another"
            with pytest.raises(ValueError, match=exactly(message)):
                chain.entropy({})

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(ValueError, match=exactly("transition row 0: probabilities sum to 1.1, not 1")):
            MarkovSource(states=("a", "b"), transitions=((0.5, 0.6), (0.5, 0.5)))

    def test_non_string_states_rejected(self):
        with pytest.raises(ValueError, match=exactly("Markov 'states' must be strings, got 1")):
            MarkovSource(states=(1, 2), transitions=((0.5, 0.5), (0.5, 0.5)))

    def test_a_chain_without_states_rejected(self):
        with pytest.raises(ValueError, match="^Markov source needs at least one state$"):
            MarkovSource(states=(), transitions=())

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"states": "ab"}, "'states' must be an array"),
            ({"transitions": {"a": (0.5, 0.5), "b": (0.5, 0.5)}}, "'transitions' must be an array"),
            ({"initial": "ab"}, "'initial' must be an array"),
        ],
        ids=["states-string", "transitions-mapping", "initial-string"],
    )
    def test_fields_that_are_not_arrays_rejected(self, fields, message):
        # "ab" would otherwise be kept as the two states "a" and "b"
        chain = {"states": ("a", "b"), "transitions": ((0.5, 0.5), (0.5, 0.5))} | fields
        with pytest.raises(ValueError, match=f"^{message}$"):
            MarkovSource(**chain)

    def test_lists_are_kept_as_tuples_so_later_edits_do_not_reach_the_source(self):
        rows = [[0.9, 0.1], [0.1, 0.9]]
        initial = [1.0, 0.0]
        chain = MarkovSource(["a", "b"], rows, initial)
        marginal, rate = chain.marginal(), chain.entropy({})
        rows[0][:] = [0.5, 0.5]
        initial[:] = [0.0, 1.0]
        assert chain == (("a", "b"), ((0.9, 0.1), (0.1, 0.9)), (1.0, 0.0))
        assert chain.marginal() == marginal == pytest.approx({"a": 0.5, "b": 0.5})
        assert chain.entropy({}) == rate
        assert rate.value == pytest.approx(0.468996, abs=1e-6)

    @pytest.mark.parametrize("through", ["replace", "make"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"transitions": ((0.9, 0.9), (0.25, 0.75))}, "transition row 0: probabilities sum to 1.8, not 1"),
            ({"transitions": ((0.75, 0.25),)}, "transition matrix shape does not match the state list"),
            (
                {"transitions": ((0.75, 0.25, 0.0), (0.25, 0.75, 0.0))},
                "transition matrix shape does not match the state list",
            ),
            ({"states": ("fast", "fast")}, "Markov states must be unique"),
        ],
        ids=["row-sum-1.8", "missing-row", "wide-rows", "repeated-state"],
    )
    def test_a_chain_rebuilt_without_its_checks_is_checked_when_used(self, fields, message, through):
        # _replace builds through _make, and _make through MarkovSource.__new__,
        # so a rebuilt chain is rejected as it is built, before any use
        chain = MarkovSource(states=("fast", "slow"), transitions=((0.75, 0.25), (0.25, 0.75)))
        with pytest.raises(ValueError, match=exactly(message)):
            if through == "replace":
                chain._replace(**fields)
            else:
                MarkovSource._make((chain._asdict() | fields).values())

    def test_stationary_distribution_solves_pi_p_equals_pi(self):
        chain = MarkovSource(
            states=("a", "b", "c"),
            transitions=((0.1, 0.6, 0.3), (0.4, 0.4, 0.2), (0.5, 0.25, 0.25)),
        )
        pi = chain.marginal()
        vec = np.array([pi["a"], pi["b"], pi["c"]])
        p = np.array(chain.transitions)
        assert np.abs(vec @ p - vec).max() <= 1e-12
        assert sum(pi.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("coupled", [False, True], ids=["plain", "coupled-blocks"])
    def test_stationary_distribution_matches_exact_solve(self, coupled):
        # 2**-30 couplings make the chain nearly decomposable: an LU solve
        # loses about 30 bits there, state reduction loses none.
        for seed in range(100):
            rng = random.Random(seed)
            rows = dyadic_chain(rng, rng.randint(2, 6), coupled)
            chain = MarkovSource(states=tuple("abcdef"[: len(rows)]), transitions=rows)
            got = chain.marginal()
            for state, exact in zip(chain.states, exact_stationary(rows)):
                assert abs(Fraction(got[state]) - exact) <= 1e-14 * exact, (seed, state)

    def test_underflowed_exit_sum_is_not_a_division_by_zero(self):
        # censoring 'c' leaves 'b' an exit sum of 1e-200 * 1e-200, which is 0.0 in floats
        chain = MarkovSource(
            states=("a", "b", "c"),
            transitions=((0.5, 0.25, 0.25), (0.0, 1 - 1e-200, 1e-200), (1e-200, 1 - 1e-200, 0.0)),
        )
        pi = chain.marginal()
        assert pi["b"] == pytest.approx(1.0)
        assert pi["c"] == pytest.approx(1e-200, rel=1e-12, abs=0.0)

    def test_ratios_beyond_the_float_range_do_not_overflow(self):
        # pi is about (1e-310, 1e-10, 1): unscaled, the forward pass would
        # reach pi_a = 1, pi_b = 1e300, pi_c = 1e310 = inf
        rows = ((0.0, 1.0, 0.0), (1e-300, 0.5, 0.5), (0.0, 5e-11, 1 - 5e-11))
        pi = MarkovSource(states=("a", "b", "c"), transitions=rows).marginal()
        exact = exact_stationary(rows)
        assert pi["b"] == pytest.approx(float(exact[1]), rel=1e-14, abs=0.0)
        assert pi["c"] == pytest.approx(float(exact[2]), rel=1e-14)


def dyadic_chain(rng, k, coupled):
    """A random irreducible k-state chain with entries that are multiples of
    2**-40, so every row sums to exactly 1.0 in floats. ``coupled`` splits
    the states into two blocks joined only by entries of 2**-30."""
    one = 2**40
    split = rng.randint(1, k - 1) if coupled else k
    rows = []
    for i in range(k):
        block = range(split) if i < split else range(split, k)
        numer = {j: 2**10 for j in range(k) if j not in block}
        budget = one - sum(numer.values())
        cuts = [0, *sorted(rng.sample(range(1, budget), len(block) - 1)), budget]
        numer.update(zip(block, (b - a for a, b in zip(cuts, cuts[1:]))))
        rows.append(tuple(numer[j] / one for j in range(k)))
    return tuple(rows)


def exact_stationary(rows):
    """pi P = pi with sum(pi) = 1, solved over Fractions by Gauss-Jordan elimination."""
    k = len(rows)
    p = [[Fraction(x) for x in row] for row in rows]
    m = [[p[i][j] - (i == j) for i in range(k)] + [Fraction(0)] for j in range(k - 1)]
    m.append([Fraction(1)] * (k + 1))
    for c in range(k):
        pivot = next(r for r in range(c, k) if m[r][c])
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(k):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[k] for row in m]


class TestBlockEntropyEstimate:
    def test_alternating_trace_is_deterministic_given_one_symbol(self):
        est = block_entropy_estimate(tuple("ab" * 5000), 1)
        assert est.value < 0.01

    def test_constant_trace_any_order(self):
        for n in (0, 1, 2):
            assert block_entropy_estimate(("x",) * 100, n, force=True).value == 0.0

    def test_uniform_binary_trace_near_one_bit(self):
        trace = sample_iid({"0": 0.5, "1": 0.5}, 10**5, seed=7)
        assert block_entropy_estimate(trace, 0).value == pytest.approx(1.0, abs=0.01)

    def test_short_trace_guard(self):
        trace = tuple("ab" * 10)
        message = (
            "trace of length 20 is too short for order 2 "
            "(need >= 80 symbols for alphabet size 2; pass force=True to override)"
        )
        with pytest.raises(ValueError, match=exactly(message)):
            block_entropy_estimate(trace, 2)
        assert block_entropy_estimate(trace, 2, force=True).value >= 0.0

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda trace, force=False: block_entropy_estimate(trace, 1, force),
            lambda trace, force=False: EmpiricalSource(trace, 1, force).entropy({}),
        ],
        ids=["block_entropy_estimate", "EmpiricalSource"],
    )
    def test_short_trace_guard_counts_the_whole_alphabet(self, estimate):
        # 60 symbols would be enough for order 1 over two ids (40), so only the
        # check made once the blocks are counted, over all three ids, rejects it.
        trace = ("a", "b", "c") * 20
        message = (
            "trace of length 60 is too short for order 1 "
            "(need >= 90 symbols for alphabet size 3; pass force=True to override)"
        )
        with pytest.raises(ValueError, match=exactly(message)):
            estimate(trace)
        assert estimate(trace, force=True).value >= 0.0

    @pytest.mark.parametrize("order, needed", [(0, 20), (1, 40)])
    def test_a_trace_of_exactly_the_needed_length_is_estimated(self, order, needed):
        # 10 * 2**(order + 1) symbols over two ids is enough, one fewer is not
        trace = ("a", "b") * (needed // 2)
        assert block_entropy_estimate(trace, order).value >= 0.0
        message = (
            f"trace of length {needed - 1} is too short for order {order} "
            f"(need >= {needed} symbols for alphabet size 2; pass force=True to override)"
        )
        with pytest.raises(ValueError, match=exactly(message)):
            block_entropy_estimate(trace[:-1], order)

    def test_the_alphabet_counts_symbols_not_blocks(self):
        # all four 2-blocks over two ids occur, and 40 symbols are still
        # enough for order 1: the alphabet is the two ids
        trace = ("a", "a", "b", "b") * 10
        for estimate in (block_entropy_estimate(trace, 1), EmpiricalSource(trace, 1).entropy({})):
            assert estimate.value == reference_block_estimate(trace, 1)

    def test_trace_shorter_than_a_block_rejected_even_when_forced(self):
        with pytest.raises(ValueError, match="^trace of length 1 is shorter than a block of 2$"):
            block_entropy_estimate(["a"], 1, force=True)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match=exactly("order must be >= 0, got -1")):
            block_entropy_estimate(("a", "b"), -1)

    def test_plug_in_consistency_toward_the_true_entropy(self):
        p = {"a": 0.2, "b": 0.3, "c": 0.5}
        h = -sum(v * math.log2(v) for v in p.values())
        var = sum(v * (math.log2(v) + h) ** 2 for v in p.values())
        for n in (10**3, 10**4, 10**5):
            est = block_entropy_estimate(sample_iid(p, n, seed=101), 0)
            assert abs(est.value - h) <= 3 * math.sqrt(var / n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from("abc"), min_size=3, max_size=60),
        st.integers(0, 2),
    )
    def test_estimates_stay_within_entropy_bounds(self, symbols, order):
        if len(symbols) < order + 1:
            return
        est = block_entropy_estimate(symbols, order, force=True)
        assert 0.0 <= est.value <= math.log2(len(set(symbols))) + 1e-12 or est.value == 0.0

    @settings(max_examples=200, deadline=None)
    @given(traces_with_order())
    def test_estimate_is_bit_identical_to_the_slice_counter(self, trace_and_order):
        symbols, order = trace_and_order
        value = block_entropy_estimate(symbols, order, force=True).value
        assert value == reference_block_estimate(symbols, order)


def tail_trace(order, last_is_new):
    """A trace over "a" and "b" whose last ``order``-block is new or repeats.

    The body is runs of "a" then up to ``order - 1`` "b"s, ending with "a".
    Followed by ``order`` "b"s, the last block is one the body never holds;
    followed by its own first ``order`` symbols, it is the first block again.
    """
    rng = random.Random(order)
    body = []
    while len(body) < 60:
        body += ["a"] * rng.randint(1, 3) + ["b"] * rng.randint(0, order - 1)
    body.append("a")
    tail = ["b"] * order if last_is_new else body[:order]
    return tuple(body + tail)


class TestOneCountEstimate:
    @pytest.mark.parametrize("last_is_new", [True, False], ids=["last-new", "last-repeats"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_the_last_block_is_counted_whether_new_or_not(self, order, last_is_new):
        symbols = tail_trace(order, last_is_new)
        blocks = [symbols[i : i + order] for i in range(len(symbols) - order + 1)]
        assert (blocks.count(blocks[-1]) == 1) == last_is_new
        expected = reference_block_estimate(symbols, order)
        assert block_entropy_estimate(symbols, order, force=True).value == expected
        source = EmpiricalSource(Trace(symbols), order, force=True)
        assert source.entropy({}).value == expected

    @pytest.mark.parametrize(
        "symbols",
        [
            FLIP_TRACE.symbols,
            tuple("abc" * 60) + ("a", "a", "b"),  # long enough at order 3 for two ids, not for three
            tuple("ab" * 20) + ("c",),  # too short at order 3 for any two ids
            ("a",),
        ],
        ids=["flip-chain", "sparse-after-count", "sparse-before-count", "one-symbol"],
    )
    @pytest.mark.parametrize("order", [0, 1, 2, 3, -1, "1", 10**6])
    def test_the_marginal_is_the_empirical_distribution_at_any_order(self, symbols, order):
        marginal = EmpiricalSource(Trace(symbols), order).marginal()
        assert list(marginal.items()) == list(reference_marginal(symbols).items())

    def test_the_marginal_is_in_id_order_whatever_order_the_ids_first_occur_in(self):
        # the mean read time is added in marginal order: in first-occurrence
        # order, c0 c2 c1, it would be 0.8500000000000001
        net, node = single_node_network([(1, 0.1), (1, 0.7), (1, 1.3)])
        src = EmpiricalSource(("c0", "c2", "c2", "c1"), 0, force=True)
        assert list(src.marginal()) == ["c0", "c1", "c2"]
        assert entropy_efficiency(net, node, src).mean_read_time == 0.85

    def test_a_list_is_kept_as_a_tuple(self):
        symbols = ["a", "b"] * 20
        src = EmpiricalSource(trace=symbols)
        assert src.marginal() == {"a": 0.5, "b": 0.5}
        symbols.extend(["c"] * 40)
        assert src.trace == ("a", "b") * 20
        assert src.marginal() == {"a": 0.5, "b": 0.5}
        assert src.entropy({}).value == 1.0
        assert src._replace(order=1).trace == src.trace

    def test_a_trace_of_a_list_is_kept_as_a_tuple(self):
        symbols = ["a", "b"] * 20
        src = EmpiricalSource(trace=Trace(symbols))
        assert src.marginal() == {"a": 0.5, "b": 0.5}
        symbols.extend(["c"] * 40)
        assert src.trace == ("a", "b") * 20
        assert src.marginal() == {"a": 0.5, "b": 0.5}
        assert src.entropy({}).value == 1.0

    def test_a_trace_or_a_tuple_is_kept_as_given_and_other_values_fail_as_before(self):
        # a tuple is kept as the same object, a Trace as its symbols; a string
        # or a mapping fails when the source is built, with the same message
        for trace in (FLIP_TRACE, FLIP_TRACE.symbols):
            assert EmpiricalSource(trace).trace is FLIP_TRACE.symbols
        for bad, kind in (("ab" * 20, "str"), ({"a": 1, "b": 2}, "dict")):
            with pytest.raises(
                ValueError, match=f"^'trace' must be a Trace, a list or a tuple, got {kind}$"
            ):
                EmpiricalSource(bad)

    def test_an_empty_trace_has_no_marginal(self):
        with pytest.raises(ValueError, match="^cannot take the empirical distribution of an empty trace$"):
            EmpiricalSource(Trace(())).marginal()

    @pytest.fixture
    def counted(self, monkeypatch):
        import cachecap.entropy as entropy_module

        return record_calls(monkeypatch, entropy_module, "_block_counts", lambda symbols, m: m)

    def test_a_source_counts_its_trace_once(self, three_file, counted):
        src = EmpiricalSource(trace=FLIP_TRACE, order=2)
        result = entropy_efficiency(three_file, "n", src)
        assert counted == [3]
        assert src.marginal() == FLIP_MARGINAL
        assert src.entropy({}).value == result.entropy_bits_per_file
        assert counted == [3]
        EmpiricalSource(trace=FLIP_TRACE, order=2).marginal()
        assert counted == [3, 3]

    def test_an_order_too_high_for_any_two_ids_is_rejected_before_its_blocks_are_counted(
        self, counted
    ):
        src = EmpiricalSource(trace=FLIP_TRACE, order=5000)
        assert src.marginal() == FLIP_MARGINAL
        message = (
            "trace of length 20000 is too short for order 5000 "
            f"(need >= {10 * 2**5001} symbols for alphabet size 2; pass force=True to override)"
        )
        with pytest.raises(ValueError, match=exactly(message)):
            src.entropy({})
        with pytest.raises(ValueError, match=exactly(message)):
            block_entropy_estimate(FLIP_TRACE, 5000)
        assert counted == [1]

    @pytest.mark.parametrize(
        "order, message",
        [
            (-1, "order must be >= 0, got -1"),
            ("1", "order must be an int, got '1'"),
            (10**6, "trace of length 100 is shorter than a block of 1000001"),
        ],
        ids=["-1", "1", "1000000"],
    )
    def test_an_unknown_class_fails_before_a_bad_order(self, three_file, order, message):
        src = EmpiricalSource(trace=Trace(("fast", "ghost") * 50), order=order)
        with pytest.raises(ScenarioError, match="^source references unknown class 'ghost'$"):
            entropy_efficiency(three_file, "n", src)
        with pytest.raises(ValueError, match=exactly(message)):
            src.entropy({})


class TestEntropyEfficiency:
    def test_matched_two_file_node_runs_at_capacity(self):
        net, node = single_node_network([(2, 1.0)])
        result = entropy_efficiency(net, node, IIDSource(class_mass={"c0": 1.0}))
        assert result.efficiency_bits_per_time == 1.0
        assert result.capacity_bits_per_time == 1.0
        assert result.utilization_ratio == 1.0

    def test_a_one_file_node_has_no_utilization(self):
        # one file gives x0 = 1, so capacity 0, and there is nothing to divide by
        net, node = single_node_network([(1, 2.0)])
        result = entropy_efficiency(net, node, IIDSource(class_mass={"c0": 1.0}))
        assert result.capacity_bits_per_time == 0.0
        assert result.utilization_ratio is None
        assert result == (node, 0.0, 2.0, 0.0, 0.0, None)

    def test_fig1_optimal_source_attains_capacity(self, fig1):
        dist = optimal_distribution(fig1, "w2")
        result = entropy_efficiency(fig1, "w2", IIDSource(class_mass=dist.class_mass))
        assert result.efficiency_bits_per_time == pytest.approx(3.324, abs=1e-3)
        assert result.efficiency_bits_per_time == pytest.approx(
            result.capacity_bits_per_time, rel=1e-9
        )
        assert result.utilization_ratio == pytest.approx(1.0, rel=1e-9)

    def test_uniform_over_three_files_is_strictly_suboptimal(self, three_file):
        result = entropy_efficiency(
            three_file, "n", IIDSource(class_mass={"fast": 2 / 3, "slow": 1 / 3})
        )
        assert result.entropy_bits_per_file == pytest.approx(math.log2(3), abs=1e-12)
        assert result.mean_read_time == pytest.approx(4 / 3, abs=1e-12)
        assert result.efficiency_bits_per_time == pytest.approx(1.18872, abs=1e-5)
        assert result.efficiency_bits_per_time < result.capacity_bits_per_time

    def test_mass_on_unreachable_class_rejected(self, fig1):
        message = "source assigns mass to class 'own', unreachable at node 'w1'"
        with pytest.raises(ScenarioError, match=exactly(message)):
            entropy_efficiency(fig1, "w1", IIDSource(class_mass={"own": 1.0}))

    def test_unknown_class_rejected(self, fig1):
        with pytest.raises(ScenarioError, match=exactly("source references unknown class 'ghost'")):
            entropy_efficiency(fig1, "w2", IIDSource(class_mass={"ghost": 1.0}))

    def test_class_without_mass_is_skipped_even_when_unknown(self, fig1):
        src = IIDSource(class_mass={"own": 1.0, "ghost": 0.0})
        result = entropy_efficiency(fig1, "w2", src)
        assert result == entropy_efficiency(fig1, "w2", IIDSource(class_mass={"own": 1.0}))

    def test_a_source_keeps_its_own_copy_of_the_masses(self, fig1):
        masses = {"own": 0.5, "lib": 0.5}
        src = IIDSource(class_mass=masses)
        expected = entropy_efficiency(fig1, "w2", src)
        masses["own"] = 7.0
        assert type(src.class_mass) is dict and src.class_mass == {"own": 0.5, "lib": 0.5}
        assert entropy_efficiency(fig1, "w2", src) == expected
        assert expected.mean_read_time == 5.5

    @pytest.mark.parametrize(
        "node, masses, message",
        [
            ("w2", {"zeta": 0.5, "alpha": 0.5}, "source references unknown class 'alpha'"),
            (
                "w1",
                {"zzz": 0.5, "own": 0.5},
                "source assigns mass to class 'own', unreachable at node 'w1'",
            ),
            ("w2", {"aaa": 0.0, "zeta": 0.5, "own": 0.5}, "source references unknown class 'zeta'"),
        ],
        ids=["two-unknown", "unreachable-before-unknown", "massless-first-by-id-is-skipped"],
    )
    def test_of_two_failing_classes_the_first_by_id_is_named(self, fig1, node, masses, message):
        # the marginal lists the failing classes out of id order
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            entropy_efficiency(fig1, node, IIDSource(class_mass=masses))

    def test_markov_source_uses_stationary_marginal(self, three_file):
        chain = MarkovSource(
            states=("fast", "slow"), transitions=((0.75, 0.25), (0.25, 0.75))
        )
        result = entropy_efficiency(three_file, "n", chain)
        assert result.entropy_bits_per_file == pytest.approx(0.811278, abs=1e-6)
        assert result.mean_read_time == pytest.approx(1.5, abs=1e-9)

    def test_markov_stationary_distribution_is_solved_once(self, three_file, monkeypatch):
        import cachecap.entropy as entropy_module

        calls = record_calls(monkeypatch, entropy_module, "_strongly_connected")  # once per solve
        chain = MarkovSource(states=("fast", "slow"), transitions=((0.75, 0.25), (0.25, 0.75)))
        entropy_efficiency(three_file, "n", chain)
        assert len(calls) == 1
        chain.sample(10, seed=1)
        assert len(calls) == 1

    def test_empirical_source(self, three_file):
        # traces record class ids, so the estimate is class-level:
        # H(2/3, 1/3) / E[tau] without the within-class file spread
        trace = sample_iid({"fast": 2 / 3, "slow": 1 / 3}, 20000, seed=5)
        result = entropy_efficiency(three_file, "n", EmpiricalSource(trace=trace, order=0))
        expected = (math.log2(3) - 2 / 3) / (4 / 3)
        assert result.efficiency_bits_per_time == pytest.approx(expected, abs=0.02)


class TestOptimalityProperties:
    def test_optimal_distribution_attains_capacity_on_random_catalogs(self):
        rng = random.Random(29)
        checked = 0
        while checked < 60:
            terms = random_terms(rng)
            if sum(c for c, _ in terms) < 2:
                continue
            net, node = single_node_network(terms)
            dist = optimal_distribution(net, node)
            result = entropy_efficiency(net, node, IIDSource(class_mass=dist.class_mass))
            assert result.efficiency_bits_per_time == pytest.approx(
                result.capacity_bits_per_time, rel=1e-9
            )
            checked += 1

    def test_random_iid_sources_never_beat_capacity(self):
        rng = random.Random(31)
        for _ in range(30):
            terms = random_terms(rng)
            if sum(c for c, _ in terms) < 2:
                continue
            net, node = single_node_network(terms)
            cap = node_capacity(net, node)
            class_ids = [f"c{i}" for i in range(len(terms))]
            for _ in range(50):
                raw = [rng.random() for _ in class_ids]
                total = sum(raw)
                src = IIDSource(class_mass={c: w / total for c, w in zip(class_ids, raw)})
                result = entropy_efficiency(net, node, src)
                assert result.efficiency_bits_per_time <= cap + 1e-9

    def test_the_efficiency_gap_of_an_iid_source_is_its_divergence_from_the_optimum(
        self, fig1, three_file, fig2
    ):
        """For class masses m on a node, efficiency = C - D(m || m*) / T, where
        m* is the optimal distribution's class masses, D the Kullback-Leibler
        divergence in bits and T the mean read time, sum_c m_c t_c, a mean
        because sum_c m_c = 1.

        With N_c files in class c, the efficiency is H / T, H being
        -sum_c m_c log2(m_c / N_c). The optimum gives each file x0**-t_c, so
        log2 m*_c = log2 N_c - t_c C. Expanding D,
        D = sum_c m_c log2 m_c - sum_c m_c log2 m*_c
          = sum_c m_c log2(m_c / N_c) + C sum_c m_c t_c = -H + C T,
        and so H / T = C - D / T. A class of zero mass adds nothing to D.
        The tolerance is relative to C, since the efficiency is 0 where all
        the mass is on one file.
        """
        rng = random.Random(31)
        cases = [(*single_node_network(random_terms(rng)), 50) for _ in range(30)]
        cases += [(fig1, "w2", 300), (three_file, "n", 300), (fig2, "w3", 300)]
        for net, node, sources in cases:
            best = optimal_distribution(net, node).class_mass
            ids = sorted(best)
            for _ in range(sources):
                raw = [rng.random() for _ in ids]
                if len(ids) > 1 and rng.random() < 0.3:
                    raw[rng.randrange(len(ids))] = 0.0
                total = sum(raw)
                mass = {c: w / total for c, w in zip(ids, raw)}
                result = entropy_efficiency(net, node, IIDSource(class_mass=mass))
                divergence = math.fsum(m * math.log2(m / best[c]) for c, m in mass.items() if m > 0)
                assert result.efficiency_bits_per_time + divergence / result.mean_read_time == (
                    pytest.approx(result.capacity_bits_per_time, rel=1e-12)
                )
