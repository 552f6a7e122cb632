"""Exact task counting: a solver-independent check of the capacity exponent.

For a catalog whose read times all sit on a common grid, the number nu(T) of
distinct file sequences with total time exactly T satisfies the recurrence

    nu(T) = sum over memory kinds of  N_k * nu(T - t_k)        nu(0) = 1

with t_k in grid units, one term per memory kind (``EffectiveCatalog.kinds``)
as in the solver (Shannon's noiseless channel with symbol durations, summed
per duration). Counting is done in exact integer arithmetic (the values
outgrow 64 bits quickly), and log2(nu(T)) / (T * grid) converges to the
capacity in bits per original time unit, giving an independent cross-check
of the root-finding solver.

The recurrence is written once and run in two number types: Python ints for
the counts and rates, exact ``decimal`` for the digits the report prints.
libmpdec adds, multiplies by a count and prints in time linear in the digits,
where converting a Python int to text is quadratic (and refused beyond 4,300
digits by default).
"""

from __future__ import annotations

import decimal
import math
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .model import EffectiveCatalog, Network, check_non_negative_int, effective_catalog

__all__ = [
    "QuantizedCatalog",
    "OraclePoint",
    "OracleReport",
    "quantize",
    "quantize_node",
    "infer_grid",
    "count_series",
    "convergence_report",
]

_GRID_REL_TOL = 1e-9
_MAX_DENOMINATOR = 10**6


class QuantizedCatalog(NamedTuple):
    """Catalog with read times as exact positive integers on a common grid.

    ``original tau = tau_int * grid``. ``quantize`` gives one pair per distinct
    ``tau_int``, ascending, with the total file count of its classes; a
    hand-built catalog may repeat a time, and the recurrence adds its pairs.
    """

    int_times: tuple[tuple[int, int], ...]  # (count, tau_int)
    grid: float

    @property
    def max_time(self) -> int:
        return max((tau for _, tau in self.int_times), default=0)


class OraclePoint(NamedTuple):
    time_steps: int  # T in grid units
    count: int  # nu(T), exact
    rate: float  # log2(nu(T)) / (T * grid), bits per original time unit

    def __repr__(self) -> str:
        """The default repr, but a count too long for ``str`` shows its bit length."""
        try:
            count = repr(self.count)
        except ValueError:  # beyond sys.get_int_max_str_digits()
            count = f"<{self.count.bit_length()}-bit int>"
        return f"OraclePoint(time_steps={self.time_steps!r}, count={count}, rate={self.rate!r})"


class OracleReport(NamedTuple):
    points: tuple[OraclePoint, ...]
    solver_capacity: float
    final_gap: float
    catalog: QuantizedCatalog  # the catalog counted, rerun in decimal for the digits

    def series(self) -> list[dict]:
        """One ``{"T", "nu", "rate"}`` row per point, with ``nu`` in decimal digits."""
        nu = _decimal_series(self.catalog, self.points[-1].time_steps if self.points else 0)
        return [{"T": p.time_steps, "nu": nu[p.time_steps], "rate": p.rate} for p in self.points]


def quantize(catalog: EffectiveCatalog, grid: float | None) -> QuantizedCatalog:
    """Snap a catalog's read times onto integer multiples of ``grid``, one pair per kind.

    ``grid=None`` infers the largest grid that fits every time. Every time
    must be an exact multiple of the grid (to within double rounding, 1e-9
    relative); the first off-grid time in the catalog's order is rejected
    with its class named, never silently rounded. Classes that land on the
    same step count form one memory kind: their file counts are summed into a
    single ``(count, tau_int)`` pair, and the pairs come in ascending ``tau_int``.
    """
    if grid is None:
        grid = infer_grid(catalog.kinds)
    _check_grid(grid)
    kinds: dict[int, int] = {}  # tau_int -> total file count
    for cid, time in catalog.entries.items():
        steps = time / grid
        if not math.isfinite(steps):
            raise ValueError(
                f"class '{cid}': time {time} / grid {grid} is not a finite number of steps"
            )
        tau_int = round(steps)
        if tau_int < 1 or abs(steps - tau_int) > _GRID_REL_TOL * max(1.0, abs(steps)):
            raise ValueError(f"class '{cid}': time {time} is not a multiple of grid {grid}")
        kinds[tau_int] = kinds.get(tau_int, 0) + catalog.counts[cid]
    int_times = tuple((count, tau) for tau, count in sorted(kinds.items()))
    return QuantizedCatalog(int_times=int_times, grid=grid)


def _check_grid(grid: float) -> None:
    if isinstance(grid, bool) or not isinstance(grid, (int, float)) or not 0 < grid <= sys.float_info.max:
        raise ValueError(f"grid must be positive and finite, got {grid!r}")


def infer_grid(times: Iterable[float]) -> float:
    """Largest grid making all times integer multiples of it.

    Times are interpreted as rationals with denominator up to 10**6; the
    grid is their rational gcd. A time that rounds to 0 there has no such grid.
    """
    rationals = []
    for t in times:
        r = Fraction(t).limit_denominator(_MAX_DENOMINATOR)
        if r == 0:
            raise ValueError(
                f"time {t} has no grid with denominator <= {_MAX_DENOMINATOR}; pass --grid"
            )
        rationals.append(r)
    if not rationals:
        raise ValueError("cannot infer a grid from an empty catalog")
    den = math.lcm(*(r.denominator for r in rationals))
    numerator = math.gcd(*(r.numerator * (den // r.denominator) for r in rationals))
    return float(Fraction(numerator, den))


def quantize_node(net: Network, node_id: str, grid: float | None = None) -> QuantizedCatalog:
    """Quantized catalog for a node; infers the grid when none is given."""
    return quantize(effective_catalog(net, node_id), grid)


def count_series(q: QuantizedCatalog, t_max: int) -> list[int]:
    """nu(0..t_max) by dynamic programming over the recurrence, exact integers.

    nu(T) is the number of file sequences with total quantized time T: files
    within a kind are distinct, so a kind gives ``count`` choices per
    position, and nu(0) = 1 is the empty task.
    """
    check_non_negative_int(t_max, "t_max")
    nu = [0] * (t_max + 1)  # allocated first: a horizon too large fails before any work
    for t, value in zip(range(t_max + 1), _recurrence(q, 1)):
        nu[t] = value
    return nu


def _decimal_series(q: QuantizedCatalog, t_max: int) -> list[str]:
    """``str(nu(T))`` for T = 0..t_max, counted in decimal: the context holds any
    integer and traps ``Inexact``, so no value is ever rounded."""
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return [str(v) for v in islice(_recurrence(q, decimal.Decimal(1)), t_max + 1)]


def _recurrence(q: QuantizedCatalog, one: int | decimal.Decimal) -> Iterator:
    """nu(0), nu(1), ... in the number type of ``one``, from a window of the
    last ``max_time`` values: ``window[-tau]`` is nu(T - tau) when nu(T) is
    summed, and the zeros it starts with stand for negative T. Every count
    and step must be an ``int`` >= 1 (not a ``bool``)."""
    for count, tau in q.int_times:
        if type(count) is not int or count < 1:
            raise ValueError(f"quantized count must be an int >= 1, got {count!r}")
        if type(tau) is not int or tau < 1:
            raise ValueError(f"quantized step must be an int >= 1, got {tau!r}")
    zero = one - one
    terms = [(one * count, tau) for count, tau in q.int_times]
    width = max(q.max_time, 1)
    window = deque([zero] * width, maxlen=width)
    window.append(one)
    while True:
        yield window[-1]
        value = zero
        for count, tau in terms:
            value += count * window[-tau]
        window.append(value)


def _log2_exact(n: int) -> float:
    """log2 of an arbitrarily large positive integer, to double precision."""
    shift = max(n.bit_length() - 64, 0)  # log2(n >> 0) + 0 is log2(n), the same float
    return math.log2(n >> shift) + shift


def convergence_report(
    q: QuantizedCatalog, t_max: int, solver_x0: float | None
) -> OracleReport:
    """Growth-rate series log2(nu(T))/(T*grid) against the solver's log2(x0).

    Points appear only at achievable T (nu(T) > 0, which restricts them to
    multiples of the gcd of the quantized times). ``final_gap`` is the distance
    between the last point's rate and the solver capacity; it shrinks like
    1/T as the horizon grows. An ``x0`` of ``None`` (nothing reachable) or
    ``<= 0`` counts as capacity 0; a ``bool``, a NaN or no number raises
    ``ValueError``.
    """
    _check_grid(q.grid)
    check_non_negative_int(t_max, "t_max")
    if t_max < q.max_time:  # before counting: the recurrence keeps a window of max_time values
        raise ValueError(f"t_max {t_max} is below the largest quantized time {q.max_time}")
    x0 = solver_x0
    if x0 is not None and (isinstance(x0, bool) or not isinstance(x0, (int, float)) or x0 != x0):
        # x0 != x0 holds for NaN alone, which the test x0 > 0 would read as capacity 0
        raise ValueError(f"solver_x0 must be a number or None, got {x0!r}")
    solver_capacity = math.log2(x0) if x0 is not None and x0 > 0 else 0.0
    nu = count_series(q, t_max)
    points = tuple(
        OraclePoint(time_steps=t, count=nu[t], rate=_log2_exact(nu[t]) / (t * q.grid))
        for t in range(1, t_max + 1)
        if nu[t] > 0
    )
    if points:
        final_gap = abs(points[-1].rate - solver_capacity)
    else:
        final_gap = abs(solver_capacity)
    return OracleReport(
        points=points,
        solver_capacity=solver_capacity,
        final_gap=final_gap,
        catalog=q,
    )
