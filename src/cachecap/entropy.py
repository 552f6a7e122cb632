"""Entropy of access processes and the entropy efficiency of nodes.

The entropy efficiency of a node under an access process is the per-file
entropy of the process divided by the mean per-file read time: the rate, in
bits per time unit, at which the node actually turns read time into
information. It never exceeds the node's capacity, and it attains the
capacity exactly at the optimal i.i.d. access distribution.

Supported access models: i.i.d. over class ids (mass spread uniformly over
the files inside a class), first-order Markov chains over class ids, and
empirical traces with a plug-in estimator. Each source type carries its own
``kind`` and computes its own class marginal and per-file entropy.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from .capacity import SolverError, node_capacity
from .model import Network, ScenarioError, check_non_negative_int, effective_catalog
from .traces import (
    Trace,
    check_chain,
    check_class_mass,
    check_ids,
    sample_iid,
    sample_markov,
    trace_symbols,
)

__all__ = [
    "IIDSource",
    "MarkovSource",
    "EmpiricalSource",
    "EntropyEstimate",
    "EfficiencyResult",
    "block_entropy_estimate",
    "entropy_efficiency",
]

_STATIONARY_TOL = 1e-12


class IIDSource(NamedTuple("_IIDFields", [("class_mass", Mapping[str, float])])):
    """i.i.d. access: ``class_mass[c]`` is the total probability of class c.

    Within a class the mass is spread uniformly over the class's files. The
    source keeps a plain ``dict`` copy of the masses, taken once they are
    checked, so changing the caller's mapping later does not change the source.
    """

    __slots__ = ()
    kind = "iid"

    def __new__(cls, class_mass: Mapping[str, float]) -> IIDSource:
        check_class_mass(class_mass, "class_mass")
        return super().__new__(cls, dict(class_mass))

    # _replace builds through _make, so a rebuilt source is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def marginal(self) -> dict[str, float]:
        return dict(self.class_mass)

    def entropy(self, counts: Mapping[str, int]) -> EntropyEstimate:
        """Per-file entropy, ``counts[c]`` being the number of files in class c.

        A class of k files with total mass m contributes -m*log2(m/k), i.e.
        the mass is uniform over the class's files; 0*log(0) is 0.
        """
        log2 = math.log2
        h = 0.0
        for cid, mass in self.class_mass.items():
            if mass > 0.0:
                h -= mass * (log2(mass) - log2(counts[cid]))
        return EntropyEstimate(order=0, value=h + 0.0)

    def sample(self, n: int, seed: int) -> Trace:
        return sample_iid(self.class_mass, n, seed)


class _MarkovFields(NamedTuple):
    states: tuple[str, ...]
    transitions: tuple[tuple[float, ...], ...]
    initial: tuple[float, ...] | None


class MarkovSource(_MarkovFields):
    """First-order Markov chain over class ids.

    The chain models the class-level access sequence; one transition is one
    file read. ``initial`` is only used for trace generation (``None`` means
    start from the stationary distribution); entropy and efficiency always
    treat the chain as stationary. The fields are kept as tuples, so changing
    the caller's lists later does not change the source. The stationary
    distribution is solved once per source, on first use, and kept in the
    ``__dict__`` that leaving out ``__slots__`` gives each instance.
    """

    kind = "markov"

    def __new__(cls, states, transitions, initial=None) -> MarkovSource:
        check_chain(states, transitions, initial)
        if initial is not None:
            initial = tuple(initial)
        return super().__new__(cls, tuple(states), tuple(map(tuple, transitions)), initial)

    # _replace builds through _make, so a rebuilt chain is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @cached_property
    def _stationary(self) -> dict[str, float]:
        """Unique stationary distribution of an irreducible chain (to 1e-12).

        Grassmann-Taksar-Heyman state reduction: censor the states out from the
        last one down, then rebuild pi forward from the first. No step
        subtracts, so every entry keeps full relative precision and pi is
        non-negative by construction.
        """
        p = self.transitions
        if not _strongly_connected(p):
            raise ValueError("Markov chain is not irreducible: some state cannot reach another")
        k = len(p)
        a = [list(row) for row in p]
        exits = [0.0] * k
        for n in range(k - 1, 0, -1):
            s = exits[n] = math.fsum(a[n][:n])
            if s == 0.0:  # underflowed; the forward pass restarts at n
                continue
            scaled = [x / s for x in a[n][:n]]  # each <= 1; row[n] / s could overflow
            for row in a[:n]:
                f = row[n]
                for j in range(n):
                    row[j] += f * scaled[j]
        pi = [1.0]
        for n in range(1, k):
            inflow = math.fsum(pi[i] * a[i][n] for i in range(n))
            x = inflow / exits[n] if exits[n] else math.inf
            if x == math.inf:  # every earlier mass is negligible beside state n's
                pi = [0.0] * n + [1.0]
                continue
            pi.append(x)
            if x > 1.0:  # exact power-of-two rescale keeps max(pi) <= 1, so no later step overflows
                shift = -math.frexp(x)[1]
                pi = [math.ldexp(v, shift) for v in pi]
        total = math.fsum(pi)
        pi = [v / total for v in pi]
        residual = max(
            abs(math.fsum([*(pi[i] * p[i][j] for i in range(k)), -pi[j]])) for j in range(k)
        )
        if residual > _STATIONARY_TOL:
            raise SolverError("stationary distribution solve did not reach tolerance")
        return dict(zip(self.states, pi))

    def marginal(self) -> dict[str, float]:
        return dict(self._stationary)

    def entropy(self, counts: Mapping[str, int]) -> EntropyEstimate:
        """Per-file entropy rate: the stationary-weighted conditional entropy
        of the next class given the current one; equals the i.i.d. entropy
        when all rows are identical."""
        pi = self._stationary
        h = 0.0
        for state, row in zip(self.states, self.transitions):
            for p in row:
                if p > 0.0:
                    h -= pi[state] * p * math.log2(p)
        return EntropyEstimate(order=None, value=h + 0.0)

    def sample(self, n: int, seed: int) -> Trace:
        initial = self.initial
        if initial is None:
            initial = tuple(self._stationary[s] for s in self.states)
        return sample_markov(self.states, self.transitions, initial, n, seed)


class _EmpiricalFields(NamedTuple):
    trace: tuple[str, ...]
    order: int = 0
    force: bool = False


class EmpiricalSource(_EmpiricalFields):
    """Access statistics taken from a recorded trace, estimated at block order k.

    The symbols are taken once, as a tuple, when the source is built
    (``trace_symbols``), so a string or a mapping fails there and a caller's
    list changed later does not change the source. The (k+1)-blocks are
    counted once, on first use, and kept in the instance ``__dict__``, as
    ``MarkovSource`` keeps its stationary distribution. The symbol counts are
    summed from them once, and their keys checked to be strings; the marginal
    and the entropy are both read off these counts. An order or ``force`` that
    no estimate can be made with fails in ``entropy``, not in ``marginal``.
    """

    kind = "trace"

    def __new__(cls, trace, order=0, force=False) -> EmpiricalSource:
        return super().__new__(cls, trace_symbols(trace, "trace"), order, force)

    # _replace builds through _make, so a rebuilt source takes its symbols the same way
    _make = classmethod(lambda cls, fields: cls(*fields))

    @cached_property
    def _counts(self) -> tuple[Counter, dict]:
        """The trace's m-block and symbol counts; m is order + 1, or 1 if no estimate may be made."""
        try:
            _check_estimate(self.trace, self.order, self.force)
            m = self.order + 1
        except ValueError:
            m = 1
        blocks = _block_counts(self.trace, m)
        symbol_counts = _prefix_counts(blocks, self.trace, m, 1)
        check_ids(symbol_counts, "trace symbols")
        return blocks, symbol_counts

    def marginal(self) -> dict[str, float]:
        """Normalized symbol frequencies, by id: ``empirical_distribution`` of the trace."""
        symbols = self.trace
        if not symbols:
            raise ValueError("cannot take the empirical distribution of an empty trace")
        total = len(symbols)
        return {cid: c / total for cid, c in sorted(self._counts[1].items())}

    def entropy(self, counts: Mapping[str, int]) -> EntropyEstimate:
        """``block_entropy_estimate`` of the trace at the source's order and
        ``force``: the one place an estimate is made."""
        symbols = self.trace
        n, force = self.order, self.force
        _check_estimate(symbols, n, force)
        blocks, symbol_counts = self._counts
        alphabet = len(symbol_counts)
        if not force:
            _check_sparse(len(symbols), n, alphabet)
        raw = _entropy_bits(blocks, len(symbols) - n)
        if n > 0:
            raw -= _entropy_bits(_prefix_counts(blocks, symbols, n + 1, n), len(symbols) - n + 1)
        bound = math.log2(alphabet)  # alphabet >= 1, as the trace holds a block; log2(1) is 0.0
        return EntropyEstimate(order=n, value=min(max(raw, 0.0), bound))


class EntropyEstimate(NamedTuple):
    """Entropy in bits per file. ``order=None`` marks an exact limit value."""

    order: int | None
    value: float


class EfficiencyResult(NamedTuple):
    node: str
    entropy_bits_per_file: float
    mean_read_time: float
    efficiency_bits_per_time: float
    capacity_bits_per_time: float
    utilization_ratio: float | None  # None when the node has zero capacity


def _strongly_connected(transitions: Sequence[Sequence[float]]) -> bool:
    adj = [[j for j, p in enumerate(row) if p > 0.0] for row in transitions]
    k = len(adj)
    radj: list[list[int]] = [[] for _ in range(k)]
    for i, outs in enumerate(adj):
        for j in outs:
            radj[j].append(i)

    def reaches_all(graph: list[list[int]]) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for j in graph[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == k

    return reaches_all(adj) and reaches_all(radj)


def _block_counts(symbols: tuple[str, ...], m: int) -> Counter:
    """Counts of the overlapping m-blocks of ``symbols``, in one pass.

    Blocks are counted in trace order, so ``Counter`` holds them in
    first-occurrence order. The float sums of ``_entropy_bits`` depend on
    that order in their last bits, and the ``efficiency --trace`` outputs
    pin those bits. At m = 1 the symbols themselves are counted, with no
    1-tuple made per symbol.
    """
    return Counter(symbols if m == 1 else zip(*(islice(symbols, j, None) for j in range(m))))


def _prefix_counts(counts: Counter, symbols: tuple[str, ...], m: int, j: int) -> dict:
    """Counts of the j-blocks of ``symbols``, j <= m, from ``counts``, those of its m-blocks.

    The j-block at each position but the last m - j is the prefix of the
    m-block there, so each m-block's count goes to its prefix, in the
    count's order; then the last m - j j-blocks are added, in trace order.
    A j-block is first met where it first occurs, so the result is in
    first-occurrence order, as a count of the trace would be. At j = 1 the
    keys are the symbols. The work is per distinct m-block, not per symbol.
    """
    if j == m:
        return counts
    shorter: dict = {}
    get = shorter.get
    for block, c in counts.items():
        key = block[0] if j == 1 else block[:j]
        shorter[key] = get(key, 0) + c
    tail = symbols[len(symbols) - m + 1 :]
    for i in range(m - j):
        key = tail[i] if j == 1 else tail[i : i + j]
        shorter[key] = get(key, 0) + 1
    return shorter


def _entropy_bits(counts: Mapping, n_blocks: int) -> float:
    """Plug-in entropy, in bits per block, of ``n_blocks`` blocks counted in ``counts``."""
    h = 0.0
    for c in counts.values():
        p = c / n_blocks
        h -= p * math.log2(p)
    return h


def _check_sparse(length: int, n: int, alphabet: int) -> None:
    """Raise ValueError if ``length`` symbols over ``alphabet`` ids are too few for order n."""
    needed = 10 * alphabet ** (n + 1)
    if length < needed:
        raise ValueError(
            f"trace of length {length} is too short for order {n} "
            f"(need >= {needed} symbols for alphabet size {alphabet}; pass force=True to override)"
        )


def _check_estimate(symbols: tuple[str, ...], n: int, force: bool) -> None:
    """Raise ValueError unless an order-n estimate may be made from ``symbols``,
    as far as that is known before the blocks are counted.

    An unforced order that no trace over two or more ids of this length is
    long enough for is checked against the alphabet here, so its blocks,
    which could be as long as the trace, are never counted.
    """
    check_non_negative_int(n, "order")
    if not isinstance(force, bool):
        raise ValueError(f"force must be a bool, got {force!r}")
    if len(symbols) < n + 1:
        raise ValueError(f"trace of length {len(symbols)} is shorter than a block of {n + 1}")
    if not force and len(symbols) < 10 * 2 ** (n + 1):
        _check_sparse(len(symbols), n, len(set(symbols)))


def block_entropy_estimate(
    symbols: Sequence[str] | Trace, n: int, force: bool = False
) -> EntropyEstimate:
    """Plug-in estimate of the per-symbol entropy from a trace, at order n.

    Order n conditions on the previous n symbols: the estimate is the
    difference between the empirical (n+1)-block and n-block entropies
    (at n = 0, the plain symbol entropy). It decreases toward the source's
    per-symbol entropy as n grows and is already exact in expectation for
    Markov chains of order <= n. Sampling noise can push the raw difference
    marginally outside [0, log2(alphabet)]; the result is clamped to that
    range. The trace is read once, to count its (n+1)-blocks; the n-block
    counts and the alphabet are summed from those.

    A trace shorter than 10 * alphabet**(n+1) is rejected as too sparse to
    populate the block counts unless ``force`` is True; ``force`` must be a
    bool. ``symbols`` is a Trace, a list or a tuple; a string or a mapping
    raises ValueError. This is the ``EmpiricalSource`` estimate of the trace.
    """
    return EmpiricalSource(trace_symbols(symbols, "symbols"), n, force).entropy({})


def entropy_efficiency(
    net: Network, node_id: str, src: IIDSource | MarkovSource | EmpiricalSource
) -> EfficiencyResult:
    """Entropy efficiency of one node under an access process.

    The source supplies its per-file entropy (analytic for i.i.d. and
    Markov, plug-in at the chosen order for traces) and its class marginal;
    the mean read time weights the node's minimal times by that marginal.
    For i.i.d. sources the entropy additionally counts the uniform choice
    among the files inside each class. The marginal is read once: each class
    with mass is checked as its read time is added. Only when one fails are
    the classes with mass that the node cannot read gathered, so that the
    error names the first by id, whatever order the marginal comes in.
    """
    catalog = effective_catalog(net, node_id)
    times = catalog.entries
    counts = catalog.counts
    marginal = src.marginal()
    mean_time = 0  # added left to right from the int 0, as sum() did before 3.12 compensated floats
    for cid, mass in marginal.items():
        if mass <= 0.0:
            continue
        if cid not in times or cid not in counts:
            readable = times.keys() & counts.keys()
            cid = min({c for c, m in marginal.items() if not m <= 0.0} - readable)
            if cid not in counts:
                raise ScenarioError(f"source references unknown class '{cid}'")
            raise ScenarioError(f"source assigns mass to class '{cid}', unreachable at node '{node_id}'")
        if mass > 0.0:  # a NaN mass is checked but adds nothing
            mean_time += mass * times[cid]

    estimate = src.entropy(counts)
    if mean_time <= 0.0:
        raise ScenarioError(f"mean read time at node '{node_id}' is not positive")
    if mean_time == math.inf:
        raise ScenarioError(f"mean read time at node '{node_id}' is beyond the float range")

    efficiency = estimate.value / mean_time
    capacity = node_capacity(net, node_id)
    utilization = efficiency / capacity if capacity > 0 else None
    return EfficiencyResult(
        node=node_id,
        entropy_bits_per_file=estimate.value,
        mean_read_time=mean_time,
        efficiency_bits_per_time=efficiency,
        capacity_bits_per_time=capacity,
        utilization_ratio=utilization,
    )
