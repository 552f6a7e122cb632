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
from .model import Network, ScenarioError, effective_catalog
from .traces import (
    Trace,
    check_chain,
    check_class_mass,
    empirical_distribution,
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
    "stationary_distribution",
    "markov_entropy_rate",
    "block_entropy_estimate",
    "entropy_efficiency",
]

_STATIONARY_TOL = 1e-12


class IIDSource(NamedTuple("_IIDFields", [("class_mass", Mapping[str, float])])):
    """i.i.d. access: ``class_mass[c]`` is the total probability of class c.

    Within a class the mass is spread uniformly over the class's files.
    """

    __slots__ = ()
    kind = "iid"

    def __new__(cls, class_mass: Mapping[str, float]) -> IIDSource:
        check_class_mass(class_mass, "class_mass")
        return super().__new__(cls, class_mass)

    # _replace builds through _make, so a rebuilt source is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def marginal(self) -> dict[str, float]:
        return dict(self.class_mass)

    def entropy(self, counts: Mapping[str, int]) -> EntropyEstimate:
        """Per-file entropy, ``counts[c]`` being the number of files in class c.

        A class of k files with total mass m contributes -m*log2(m/k), i.e.
        the mass is uniform over the class's files; 0*log(0) is 0.
        """
        h = 0.0
        for cid, mass in self.class_mass.items():
            if mass > 0.0:
                h -= mass * (math.log2(mass) - math.log2(counts[cid]))
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
        return stationary_distribution(self)

    def marginal(self) -> dict[str, float]:
        return dict(self._stationary)

    def entropy(self, counts: Mapping[str, int]) -> EntropyEstimate:
        return markov_entropy_rate(self)

    def sample(self, n: int, seed: int) -> Trace:
        initial = self.initial
        if initial is None:
            initial = tuple(self._stationary[s] for s in self.states)
        return sample_markov(self.states, self.transitions, initial, n, seed)


class EmpiricalSource(NamedTuple):
    """Access statistics taken from a recorded trace, estimated at block order k."""

    trace: Trace
    order: int = 0
    force: bool = False
    kind = "trace"

    def marginal(self) -> dict[str, float]:
        return empirical_distribution(self.trace)

    def entropy(self, counts: Mapping[str, int]) -> EntropyEstimate:
        return block_entropy_estimate(self.trace, self.order, force=self.force)


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


def stationary_distribution(src: MarkovSource) -> dict[str, float]:
    """Unique stationary distribution of an irreducible chain (to 1e-12).

    Grassmann-Taksar-Heyman state reduction: censor the states out from the
    last one down, then rebuild pi forward from the first. No step
    subtracts, so every entry keeps full relative precision and pi is
    non-negative by construction.
    """
    p = src.transitions
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
    return dict(zip(src.states, pi))


def markov_entropy_rate(src: MarkovSource) -> EntropyEstimate:
    """Per-file entropy rate of an irreducible Markov chain.

    The stationary-weighted conditional entropy of the next class given the
    current one; equals the i.i.d. entropy when all rows are identical.
    """
    pi = src._stationary
    h = 0.0
    for i, state in enumerate(src.states):
        for p in src.transitions[i]:
            if p > 0.0:
                h -= pi[state] * p * math.log2(p)
    return EntropyEstimate(order=None, value=h + 0.0)


def _block_entropy(symbols: Sequence[str], m: int) -> float:
    """Plug-in entropy of overlapping m-blocks, in bits per block.

    Blocks are counted in trace order, so ``Counter`` holds them in
    first-occurrence order. The float sum below depends on that order in
    its last bits, and the ``efficiency --trace`` outputs pin those bits.
    At m = 1 the symbols themselves are counted, in the same order, with
    no 1-tuple made per symbol.
    """
    n_blocks = len(symbols) - m + 1
    blocks = symbols if m == 1 else zip(*(islice(symbols, j, None) for j in range(m)))
    counts = Counter(blocks)
    h = 0.0
    for c in counts.values():
        p = c / n_blocks
        h -= p * math.log2(p)
    return h


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
    range.

    A trace shorter than 10 * alphabet**(n+1) is rejected as too sparse to
    populate the block counts unless ``force`` is set. ``symbols`` is a
    Trace, a list or a tuple; a string or a mapping raises ValueError.
    """
    symbols = trace_symbols(symbols, "symbols")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"order must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if len(symbols) < n + 1:
        raise ValueError(f"trace of length {len(symbols)} is shorter than a block of {n + 1}")
    alphabet = len(set(symbols))
    needed = 10 * alphabet ** (n + 1)
    if not force and len(symbols) < needed:
        raise ValueError(
            f"trace of length {len(symbols)} is too short for order {n} "
            f"(need >= {needed} symbols for alphabet size {alphabet}; pass force=True to override)"
        )
    if n == 0:
        raw = _block_entropy(symbols, 1)
    else:
        raw = _block_entropy(symbols, n + 1) - _block_entropy(symbols, n)
    bound = math.log2(alphabet)  # alphabet >= 1, as the trace holds a block; log2(1) is 0.0
    return EntropyEstimate(order=n, value=min(max(raw, 0.0), bound))


def entropy_efficiency(
    net: Network, node_id: str, src: IIDSource | MarkovSource | EmpiricalSource
) -> EfficiencyResult:
    """Entropy efficiency of one node under an access process.

    The source supplies its per-file entropy (analytic for i.i.d. and
    Markov, plug-in at the chosen order for traces) and its class marginal;
    the mean read time weights the node's minimal times by that marginal.
    For i.i.d. sources the entropy additionally counts the uniform choice
    among the files inside each class.
    """
    catalog = effective_catalog(net, node_id)
    times = catalog.entries
    counts = catalog.counts
    marginal = src.marginal()
    for cid, mass in sorted(marginal.items()):
        if mass <= 0.0:
            continue
        if cid not in counts:
            raise ScenarioError(f"source references unknown class '{cid}'")
        if cid not in times:
            raise ScenarioError(
                f"source assigns mass to class '{cid}', unreachable at node '{node_id}'"
            )

    estimate = src.entropy(counts)
    mean_time = sum(mass * times[cid] for cid, mass in marginal.items() if mass > 0.0)
    if mean_time <= 0.0:
        raise ScenarioError(f"mean read time at node '{node_id}' is not positive")

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
