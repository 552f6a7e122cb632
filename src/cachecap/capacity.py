"""Node and network capacity via the characteristic equation.

The number of distinct file sequences a node can read in a time budget T
grows like X0**T, where X0 > 1 is the largest real root of

    sum over reachable files f of  X ** (-tau(f))  =  1

with tau(f) the minimal read time of f. The node's capacity is log2(X0)
bits per time unit; the network capacity is the sum over nodes. The root is
isolated by bisection, which is justified because the left-hand side is
strictly decreasing in X on [1, inf).

All logarithms here are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .model import EffectiveCatalog, Network, ScenarioError, effective_catalog

__all__ = [
    "SolverError",
    "CharEquation",
    "CharSolve",
    "NodeCapacity",
    "CapacityResult",
    "char_eq_value",
    "solve_characteristic",
    "solve_characteristic_full",
    "equation_for_node",
    "catalog_capacity",
    "node_capacity",
    "network_capacity",
    "analyze_network",
    "OptimalDistribution",
    "optimal_distribution",
]

DEFAULT_REL_TOL = 1e-12
_MAX_ITERATIONS = 200
_RESIDUAL_BOUND = 1e-9


class SolverError(RuntimeError):
    """Raised when the characteristic-equation root cannot be isolated."""


@dataclass(frozen=True)
class CharEquation:
    """Left-hand side of the capacity equation: one (count, tau) term per class."""

    terms: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for count, tau in self.terms:
            if count < 1:
                raise ValueError(f"term count must be >= 1, got {count}")
            if not (tau > 0 and math.isfinite(tau)):
                raise ValueError(f"term time must be positive and finite, got {tau}")

    @property
    def total_files(self) -> int:
        return sum(count for count, _ in self.terms)


@dataclass(frozen=True)
class CharSolve:
    x0: float | None
    iterations: int
    residual: float


@dataclass(frozen=True)
class NodeCapacity:
    x0: float | None
    capacity_bits_per_time: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class CapacityResult:
    per_node: Mapping[str, NodeCapacity]
    network_capacity: float
    rel_tol: float


def char_eq_value(eq: CharEquation, x: float) -> float:
    """Evaluate ``sum(count * x**-tau)`` at ``x >= 1``.

    Terms are computed as ``exp2(log2(count) - tau*log2(x))`` so that huge
    class counts (e.g. 10**7 files) and large x never overflow.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x == 1.0:
        return float(eq.total_files)
    log2x = math.log2(x)
    return sum(2.0 ** (math.log2(count) - tau * log2x) for count, tau in eq.terms)


def solve_characteristic_full(eq: CharEquation, rel_tol: float = DEFAULT_REL_TOL) -> CharSolve:
    """Largest real root of the characteristic equation, with diagnostics.

    Returns x0 = None for an empty equation (nothing reachable: the equation
    has no solution and capacity is zero by convention). A catalog holding a
    single file is solved by x0 = 1 exactly; a single class has the closed
    form count**(1/tau). Everything else is bracketed by doubling the upper
    bound from 2 until the left-hand side drops below 1, then bisected until
    the bracket's relative width reaches ``rel_tol``.
    """
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if not eq.terms:
        return CharSolve(x0=None, iterations=0, residual=0.0)
    if eq.total_files == 1:
        return CharSolve(x0=1.0, iterations=0, residual=0.0)
    if len(eq.terms) == 1:
        count, tau = eq.terms[0]
        x0 = count ** (1.0 / tau)
        return CharSolve(x0=x0, iterations=0, residual=abs(char_eq_value(eq, x0) - 1.0))

    iterations = 0
    lo, hi = 1.0, 2.0
    while char_eq_value(eq, hi) >= 1.0:
        lo, hi = hi, hi * 2.0
        iterations += 1
        if not math.isfinite(hi):
            raise SolverError("root exceeds the representable range")

    for _ in range(_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * mid:
            break
        iterations += 1
        value = char_eq_value(eq, mid)
        if value > 1.0:
            lo = mid
        elif value < 1.0:
            hi = mid
        else:
            lo = hi = mid
            break

    x0 = 0.5 * (lo + hi)
    residual = abs(char_eq_value(eq, x0) - 1.0)
    if residual > _RESIDUAL_BOUND:
        raise SolverError(
            f"bisection stalled: residual {residual:.3e} exceeds {_RESIDUAL_BOUND:.0e}"
        )
    return CharSolve(x0=x0, iterations=iterations, residual=residual)


def solve_characteristic(eq: CharEquation, rel_tol: float = DEFAULT_REL_TOL) -> float | None:
    return solve_characteristic_full(eq, rel_tol).x0


def _catalog_equation(catalog: EffectiveCatalog, counts: Mapping[str, int]) -> CharEquation:
    terms = tuple((counts[cid], entry.min_time) for cid, entry in sorted(catalog.entries.items()))
    return CharEquation(terms=terms)


def equation_for_node(net: Network, node_id: str) -> CharEquation:
    """Characteristic equation of a node, one term per reachable class."""
    return _catalog_equation(effective_catalog(net, node_id), net.class_counts())


def catalog_capacity(
    catalog: EffectiveCatalog, counts: Mapping[str, int], rel_tol: float = DEFAULT_REL_TOL
) -> NodeCapacity:
    """Solve an already-built catalog; ``counts`` maps class id to file count."""
    solve = solve_characteristic_full(_catalog_equation(catalog, counts), rel_tol)
    capacity = math.log2(solve.x0) if solve.x0 is not None and solve.x0 > 1.0 else 0.0
    return NodeCapacity(
        x0=solve.x0,
        capacity_bits_per_time=capacity,
        iterations=solve.iterations,
        residual=solve.residual,
    )


def node_capacity(net: Network, node_id: str, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Capacity of one node in bits per time unit (0 if nothing is reachable)."""
    catalog = effective_catalog(net, node_id)
    return catalog_capacity(catalog, net.class_counts(), rel_tol).capacity_bits_per_time


def network_capacity(net: Network, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Sum of node capacities over the whole network."""
    return analyze_network(net, rel_tol).network_capacity


def analyze_network(net: Network, rel_tol: float = DEFAULT_REL_TOL) -> CapacityResult:
    """Per-node capacities plus the network total, with solver diagnostics."""
    counts = net.class_counts()
    per_node = {
        n.id: catalog_capacity(effective_catalog(net, n.id), counts, rel_tol) for n in net.nodes
    }
    total = sum(nc.capacity_bits_per_time for nc in per_node.values())
    return CapacityResult(per_node=per_node, network_capacity=total, rel_tol=rel_tol)


@dataclass(frozen=True)
class OptimalDistribution:
    """Capacity-achieving i.i.d. access distribution for one node.

    Each file with read time tau gets probability x0**-tau; a class of
    ``count`` such files carries total mass ``count * x0**-tau``. The masses
    sum to 1 because x0 solves the characteristic equation.
    """

    node: str
    x0: float
    class_mass: Mapping[str, float]
    file_probability: Mapping[str, float]

    @property
    def capacity_bits_per_time(self) -> float:
        """log2(x0): the node capacity, which this distribution attains."""
        return math.log2(self.x0)


def optimal_distribution(
    net: Network, node_id: str, rel_tol: float = DEFAULT_REL_TOL
) -> OptimalDistribution:
    """Access distribution at which entropy efficiency equals the capacity.

    Raises ScenarioError for a zero-capacity node (no reachable class, or a
    single reachable file): no nondegenerate optimum exists there.
    """
    catalog = effective_catalog(net, node_id)
    counts = net.class_counts()
    x0 = catalog_capacity(catalog, counts, rel_tol).x0
    if x0 is None or x0 <= 1.0:
        raise ScenarioError(
            f"node '{node_id}' has zero capacity; no optimal access distribution exists"
        )
    file_probability = {
        cid: x0 ** -entry.min_time for cid, entry in sorted(catalog.entries.items())
    }
    class_mass = {cid: counts[cid] * p for cid, p in file_probability.items()}
    return OptimalDistribution(
        node=node_id, x0=x0, class_mass=class_mass, file_probability=file_probability
    )
