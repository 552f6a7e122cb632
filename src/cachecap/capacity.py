"""Node and network capacity via the characteristic equation.

The number of distinct file sequences a node can read in a time budget T
grows like X0**T, where X0 > 1 is the largest real root of

    sum over memory kinds k of  N_k * X ** (-t_k)  =  1

with N_k the count of reachable files of minimal read time t_k, so the sum is
taken per kind (``EffectiveCatalog.kinds``). The node's capacity is log2(X0)
bits per time unit; the network capacity is the sum over nodes. The root is
found by Newton's method in s = log2(X), where the left-hand side minus one
is convex and decreasing; started below the root, the iterates rise to it
monotonically, so no bracket is needed. It stops at the fixed relative
tolerance REL_TOL, which a double can meet at every root it can represent.

All logarithms here are base 2.

A node's catalog and its solution are computed at most once per Network and
kept on it, so a batch such as ``analyze_network`` followed by per-node
queries builds and solves each node once. Only results are kept: an unknown
node or a failed solve raises again on the next request.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .model import Network, ScenarioError, effective_catalog

__all__ = [
    "SolverError",
    "NodeCapacity",
    "CapacityResult",
    "solve_characteristic_full",
    "node_solution",
    "node_capacity",
    "network_capacity",
    "analyze_network",
    "OptimalDistribution",
    "optimal_distribution",
]

REL_TOL = 1e-12
_MAX_ITERATIONS = 200
_RESIDUAL_BOUND = 1e-9
_LN2 = math.log(2.0)
_MAX_FLOAT = sys.float_info.max  # an int time above it has no float


class SolverError(RuntimeError):
    """Raised when the characteristic-equation root cannot be isolated."""


class NodeCapacity(NamedTuple):
    """A solved characteristic equation: capacity is log2(x0), or 0 if x0 is None or 1."""

    x0: float | None
    capacity_bits_per_time: float
    iterations: int
    residual: float


class CapacityResult(NamedTuple):
    per_node: Mapping[str, NodeCapacity]
    network_capacity: float


def _lhs(terms: list[tuple[float, float]], s: float) -> tuple[float, float]:
    """sum(count * x**-tau) and sum(tau * count * x**-tau) at x = 2**s."""
    value = slope = 0.0
    for log2c, tau in terms:
        term = 2.0 ** (log2c - tau * s)
        value += term
        slope += tau * term
    return value, slope


def solve_characteristic_full(terms: Iterable[tuple[int, float]]) -> NodeCapacity:
    """Largest real root x0 of the characteristic equation, with log2(x0) and diagnostics.

    ``terms`` is any iterable of ``(count, tau)`` pairs, read once (a node's
    are one per memory kind): each count must be an ``int`` or a finite
    ``float`` >= 1, and each tau a positive, finite ``int`` or ``float``; a
    ``bool`` is neither. Otherwise a ``ValueError`` names the first bad value.

    Returns x0 = None for an empty equation (nothing reachable: the equation
    has no solution and capacity is zero by convention). Otherwise Newton's
    method solves g(s) = sum(count * 2**(-tau*s)) - 1 = 0 for s = log2(x0).
    g is convex and decreasing, and one term alone already sums to 1 at
    s = log2(count)/tau, so the largest of these bounds the root from below.
    Newton steps from below on a convex decreasing function never pass the
    root: the iterates rise monotonically and converge quadratically. The
    bound is the root itself for one term (a single file gives x0 = 1 with
    no step). Iteration stops once a step moves x0 by at most REL_TOL and
    the left-hand side at x0 * (1 + REL_TOL) is at most 1, which puts the
    root within REL_TOL above x0. If it is still above 1, Newton goes on
    from that point, which is still below the root. The residual |lhs - 1|
    at the returned x0 must be within a fixed 1e-9. The first iterate at or
    above s = 1024, the bound included, shows that x0 overflows a double.
    """
    logs = []
    for count, tau in terms:
        if type(count) is not int and not (isinstance(count, float) and math.isfinite(count)):
            raise ValueError(f"term count must be a finite number, got {count!r}")
        if count < 1:
            raise ValueError(f"term count must be >= 1, got {count}")
        if type(tau) is not float and (isinstance(tau, bool) or not isinstance(tau, (int, float))):
            raise ValueError(f"term time must be a number, got {tau!r}")
        if not 0 < tau <= _MAX_FLOAT:
            raise ValueError(f"term time must be positive and finite, got {tau!r}")
        logs.append((math.log2(count), tau))
    if not logs:
        return NodeCapacity(x0=None, capacity_bits_per_time=0.0, iterations=0, residual=0.0)

    s = max(log2c / tau for log2c, tau in logs)
    iterations, step = 0, math.inf
    while True:
        if s >= 1024.0:  # s is at or below the root, so 2**root overflows too
            raise SolverError("root exceeds the representable range")
        value, slope = _lhs(logs, s)
        if value <= 1.0:
            break
        if step * _LN2 <= REL_TOL:
            # A step from below falls short of the root, so a small one does not
            # show that x0 is within REL_TOL: look at x0 * (1 + REL_TOL) itself.
            ahead = s + math.log2(1.0 + REL_TOL)
            ahead_value, ahead_slope = _lhs(logs, ahead)
            if ahead_value <= 1.0 or ahead == s:
                break
            s, value, slope = ahead, ahead_value, ahead_slope
        if iterations == _MAX_ITERATIONS:
            raise SolverError(f"Newton did not converge in {_MAX_ITERATIONS} steps")
        step = (value - 1.0) / (_LN2 * slope)
        s += step
        iterations += 1

    residual = abs(value - 1.0)
    if residual > _RESIDUAL_BOUND:
        raise SolverError(f"Newton stalled: residual {residual:.3e} exceeds {_RESIDUAL_BOUND:.3g}")
    x0 = 2.0**s
    capacity = math.log2(x0)  # x0 >= 1: s starts at a bound >= 0 and only rises
    return NodeCapacity(
        x0=x0, capacity_bits_per_time=capacity, iterations=iterations, residual=residual
    )


def node_solution(net: Network, node_id: str) -> NodeCapacity:
    """The node's solved equation, solved on the first request and kept on ``net``.

    An unknown node or a ``SolverError`` raises every time; only a solution is kept.
    """
    solution = net._solutions.get(node_id)
    if solution is None:
        kinds = effective_catalog(net, node_id).kinds
        solution = solve_characteristic_full((count, time) for time, count in kinds.items())
        net._solutions[node_id] = solution
    return solution


def node_capacity(net: Network, node_id: str) -> float:
    """Capacity of one node in bits per time unit (0 if nothing is reachable)."""
    return node_solution(net, node_id).capacity_bits_per_time


def network_capacity(net: Network) -> float:
    """Sum of node capacities over the whole network."""
    return analyze_network(net).network_capacity


def analyze_network(net: Network) -> CapacityResult:
    """Per-node capacities plus the network total, with solver diagnostics.

    Each node is solved once per ``net``: a later call, or a per-node query
    such as ``node_capacity``, reads the kept solution.
    """
    per_node = {n.id: node_solution(net, n.id) for n in net.nodes}
    total = 0  # added left to right from the int 0, as sum() did before 3.12 compensated floats
    for nc in per_node.values():
        total += nc.capacity_bits_per_time
    return CapacityResult(per_node=per_node, network_capacity=total)


class OptimalDistribution(NamedTuple):
    """Capacity-achieving i.i.d. access distribution for one node.

    Each file with read time tau gets probability x0**-tau; a class of
    ``count`` such files carries total mass ``count * x0**-tau``. The masses
    sum to 1 because x0 solves the characteristic equation.
    """

    node: str
    x0: float
    class_mass: Mapping[str, float]
    file_probability: Mapping[str, float]


def optimal_distribution(net: Network, node_id: str) -> OptimalDistribution:
    """Access distribution at which entropy efficiency equals the capacity.

    Raises ScenarioError for a zero-capacity node (no reachable class, or a
    single reachable file): no nondegenerate optimum exists there.
    """
    catalog = effective_catalog(net, node_id)
    x0 = node_solution(net, node_id).x0
    if x0 is None or x0 <= 1.0:
        raise ScenarioError(
            f"node '{node_id}' has zero capacity; no optimal access distribution exists"
        )
    counts = catalog.counts
    file_probability, class_mass = {}, {}
    for cid, time in catalog.entries.items():
        p = file_probability[cid] = x0**-time
        try:
            class_mass[cid] = counts[cid] * p
        except OverflowError:  # a count beyond the float range: take the product in logs
            class_mass[cid] = 2.0 ** (math.log2(counts[cid]) - time * math.log2(x0))
    return OptimalDistribution(
        node=node_id, x0=x0, class_mass=class_mass, file_probability=file_probability
    )
