"""Entropy of access processes and the entropy efficiency of nodes.

The entropy efficiency of a node under an access process is the per-file
entropy of the process divided by the mean per-file read time: the rate, in
bits per time unit, at which the node actually turns read time into
information. It never exceeds the node's capacity, and it attains the
capacity exactly at the optimal i.i.d. access distribution.

Supported access models: i.i.d. over class ids (mass spread uniformly over
the files inside a class), first-order Markov chains over class ids, and
empirical traces with a plug-in estimator.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .capacity import DEFAULT_REL_TOL, SolverError, catalog_capacity
from .model import Network, ScenarioError, effective_catalog
from .traces import Trace, check_distribution, empirical_distribution

__all__ = [
    "IIDSource",
    "MarkovSource",
    "EmpiricalSource",
    "AccessSource",
    "EntropyEstimate",
    "EfficiencyResult",
    "NetworkEfficiency",
    "iid_entropy",
    "stationary_distribution",
    "markov_entropy_rate",
    "block_entropy_estimate",
    "entropy_efficiency",
    "network_entropy_efficiency",
]

_STATIONARY_TOL = 1e-12


@dataclass(frozen=True)
class IIDSource:
    """i.i.d. access: ``class_mass[c]`` is the total probability of class c.

    Within a class the mass is spread uniformly over the class's files.
    """

    class_mass: Mapping[str, float]

    def __post_init__(self) -> None:
        check_distribution(self.class_mass.values(), "class_mass")


@dataclass(frozen=True)
class MarkovSource:
    """First-order Markov chain over class ids.

    The chain models the class-level access sequence; one transition is one
    file read. ``initial`` is only used for trace generation (``None`` means
    start from the stationary distribution); entropy and efficiency always
    treat the chain as stationary.
    """

    states: tuple[str, ...]
    transitions: tuple[tuple[float, ...], ...]
    initial: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        k = len(self.states)
        if k == 0:
            raise ValueError("Markov source needs at least one state")
        if len(set(self.states)) != k:
            raise ValueError("Markov states must be unique")
        if len(self.transitions) != k or any(len(row) != k for row in self.transitions):
            raise ValueError("transition matrix must be square over the state list")
        for i, row in enumerate(self.transitions):
            check_distribution(row, f"transition row {i}")
        if self.initial is not None:
            if len(self.initial) != k:
                raise ValueError("initial distribution length must match the state list")
            check_distribution(self.initial, "initial distribution")


@dataclass(frozen=True)
class EmpiricalSource:
    """Access statistics taken from a recorded trace, estimated at block order k."""

    trace: Trace
    order: int = 0
    force: bool = False


AccessSource = Union[IIDSource, MarkovSource, EmpiricalSource]


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy in bits per file. ``order=None`` marks an exact limit value."""

    order: int | None
    value: float
    method: str  # "analytic" | "plug-in"


@dataclass(frozen=True)
class EfficiencyResult:
    node: str
    entropy_bits_per_file: float
    mean_read_time: float
    efficiency_bits_per_time: float
    capacity_bits_per_time: float
    utilization_ratio: float | None  # None when the node has zero capacity


@dataclass(frozen=True)
class NetworkEfficiency:
    total_bits_per_time: float
    per_node: Mapping[str, EfficiencyResult]


def iid_entropy(
    class_mass: Mapping[str, float], class_count: Mapping[str, int] | None = None
) -> EntropyEstimate:
    """Per-file entropy of an i.i.d. source given as per-class masses.

    A class of k files with total mass m contributes -m*log2(m/k), i.e. the
    mass is uniform over the class's files; 0*log(0) is 0. Without counts
    every class is a single file.
    """
    check_distribution(class_mass.values(), "class_mass")
    h = 0.0
    for cid, mass in class_mass.items():
        if mass <= 0.0:
            continue
        count = 1 if class_count is None else class_count[cid]
        h -= mass * (math.log2(mass) - math.log2(count))
    return EntropyEstimate(order=0, value=h + 0.0, method="analytic")


def _positive_adjacency(transitions: Sequence[Sequence[float]]) -> list[list[int]]:
    return [[j for j, p in enumerate(row) if p > 0.0] for row in transitions]


def _strongly_connected(adj: list[list[int]]) -> bool:
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
    """Unique stationary distribution of an irreducible chain (to 1e-12)."""
    if not _strongly_connected(_positive_adjacency(src.transitions)):
        raise ValueError("Markov chain is reducible; the stationary distribution is not unique")
    p = np.asarray(src.transitions, dtype=float)
    k = p.shape[0]
    a = p.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"stationary distribution solve failed: {exc}") from exc
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    if np.abs(pi @ p - pi).max() > _STATIONARY_TOL:
        raise SolverError("stationary distribution solve did not reach tolerance")
    return {state: float(pi[i]) for i, state in enumerate(src.states)}


def markov_entropy_rate(src: MarkovSource) -> EntropyEstimate:
    """Per-file entropy rate of an irreducible Markov chain.

    The stationary-weighted conditional entropy of the next class given the
    current one; equals the i.i.d. entropy when all rows are identical.
    """
    pi = stationary_distribution(src)
    h = 0.0
    for i, state in enumerate(src.states):
        for p in src.transitions[i]:
            if p > 0.0:
                h -= pi[state] * p * math.log2(p)
    return EntropyEstimate(order=None, value=h + 0.0, method="analytic")


def _block_entropy(symbols: Sequence[str], m: int) -> float:
    """Plug-in entropy of overlapping m-blocks, in bits per block."""
    n_blocks = len(symbols) - m + 1
    counts = Counter(tuple(symbols[i : i + m]) for i in range(n_blocks))
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
    populate the block counts unless ``force`` is set.
    """
    if isinstance(symbols, Trace):
        symbols = symbols.symbols
    symbols = tuple(symbols)
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
    bound = math.log2(alphabet) if alphabet > 1 else 0.0
    return EntropyEstimate(order=n, value=min(max(raw, 0.0), bound), method="plug-in")


def entropy_efficiency(
    net: Network,
    node_id: str,
    src: AccessSource,
    rel_tol: float = DEFAULT_REL_TOL,
) -> EfficiencyResult:
    """Entropy efficiency of one node under an access process.

    The per-file entropy depends on the source variant (analytic for i.i.d.
    and Markov, plug-in at the chosen order for traces); the mean read time
    weights the node's minimal times by the source's first-symbol class
    probabilities. For i.i.d. sources the entropy additionally counts the
    uniform choice among the files inside each class.
    """
    catalog = effective_catalog(net, node_id)
    times = catalog.min_times()
    counts = net.class_counts()

    if isinstance(src, IIDSource):
        marginal = dict(src.class_mass)
    elif isinstance(src, MarkovSource):
        marginal = stationary_distribution(src)
    elif isinstance(src, EmpiricalSource):
        marginal = empirical_distribution(src.trace)
    else:
        raise TypeError(f"unsupported access source {type(src).__name__}")

    for cid, mass in sorted(marginal.items()):
        if mass <= 0.0:
            continue
        if cid not in counts:
            raise ScenarioError(f"source references unknown class '{cid}'")
        if cid not in times:
            raise ScenarioError(
                f"source assigns mass to class '{cid}', unreachable at node '{node_id}'"
            )

    if isinstance(src, IIDSource):
        estimate = iid_entropy(src.class_mass, counts)
    elif isinstance(src, MarkovSource):
        estimate = markov_entropy_rate(src)
    else:
        estimate = block_entropy_estimate(src.trace, src.order, force=src.force)

    mean_time = sum(mass * times[cid] for cid, mass in marginal.items() if mass > 0.0)
    if mean_time <= 0.0:
        raise ScenarioError(f"mean read time at node '{node_id}' is not positive")

    efficiency = estimate.value / mean_time
    capacity = catalog_capacity(catalog, counts, rel_tol).capacity_bits_per_time
    utilization = efficiency / capacity if capacity > 0 else None
    return EfficiencyResult(
        node=node_id,
        entropy_bits_per_file=estimate.value,
        mean_read_time=mean_time,
        efficiency_bits_per_time=efficiency,
        capacity_bits_per_time=capacity,
        utilization_ratio=utilization,
    )


def network_entropy_efficiency(
    net: Network,
    sources: Mapping[str, AccessSource],
    rel_tol: float = DEFAULT_REL_TOL,
) -> NetworkEfficiency:
    """Sum of per-node entropy efficiencies; nodes without a source contribute 0."""
    per_node = {
        node_id: entropy_efficiency(net, node_id, src, rel_tol)
        for node_id, src in sorted(sources.items())
    }
    total = sum(r.efficiency_bits_per_time for r in per_node.values())
    return NetworkEfficiency(total_bits_per_time=total, per_node=per_node)
