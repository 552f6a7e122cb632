"""Synthetic access traces and empirical distributions.

Traces are sequences of class ids (files within a class are symmetric, so
class granularity carries all the information any formula here needs). The
generator is SplitMix64, a counter-based 64-bit PRNG chosen because it is
four lines long, fast, and bit-for-bit reproducible on any platform; the
known-answer test pins its output. One draw is consumed per symbol.

Trace file format: UTF-8, one id per line, optional ``#cachecap-trace v1``
header; lines starting with ``#`` are ignored on read, and so are blank lines
and the whitespace around an id. So only ids that are one non-empty line,
carry no surrounding whitespace and do not start with ``#`` can be written.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "SplitMix64",
    "Trace",
    "sample_iid",
    "sample_markov",
    "empirical_distribution",
    "read_trace",
    "write_trace",
]

TRACE_HEADER = "#cachecap-trace v1"

_MASK64 = (1 << 64) - 1
_PROB_TOL = 1e-9


class SplitMix64:
    """SplitMix64: state advances by a fixed odd constant, output is a mix.

    Reference sequence (first three outputs, seed 0):
    1146525961936471366, 3148508648786604803, 3908612155999415981.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1F4EE2B5) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class Trace:
    symbols: tuple[str, ...]
    provenance: str

    @property
    def length(self) -> int:
        return len(self.symbols)


def check_distribution(values: Iterable[float], label: str) -> None:
    """Raise ValueError unless ``values`` are finite, non-negative and sum to 1 (within 1e-9)."""
    total = 0.0
    for v in values:
        if isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"{label}: probability {v!r} is not a finite number")
        if v < 0:
            raise ValueError(f"{label}: negative probability {v}")
        total += v
    if abs(total - 1.0) > _PROB_TOL:
        raise ValueError(f"{label}: probabilities sum to {total!r}, not 1")


def check_chain(
    states: Sequence[str],
    transitions: Sequence[Sequence[float]],
    initial: Sequence[float] | None = None,
) -> None:
    """Raise ValueError unless ``states`` are unique strings, ``transitions`` is a
    square matrix over them whose rows are distributions, and ``initial``, when
    given, is a distribution over them."""
    k = len(states)
    if k == 0:
        raise ValueError("Markov source needs at least one state")
    for state in states:
        if not isinstance(state, str):
            raise ValueError(f"Markov 'states' must be strings, got {state!r}")
    if len(set(states)) != k:
        raise ValueError("Markov states must be unique")
    if len(transitions) != k or any(len(row) != k for row in transitions):
        raise ValueError("transition matrix shape does not match the state list")
    for i, row in enumerate(transitions):
        check_distribution(row, f"transition row {i}")
    if initial is not None:
        if len(initial) != k:
            raise ValueError("initial distribution length does not match the state list")
        check_distribution(initial, "initial distribution")


def _pick(items: Sequence[tuple[int, float]], u: float) -> int:
    """Inverse transform: the first index whose running mass sum exceeds ``u``."""
    acc = 0.0
    last = 0
    for i, mass in items:
        if mass <= 0.0:
            continue
        last = i
        acc += mass
        if u < acc:
            return i
    return last  # u landed in the rounding slack at the top


def _walk(
    states: Sequence[str],
    first: Sequence[tuple[int, float]],
    rows: Sequence[Sequence[tuple[int, float]]],
    n: int,
    seed: int,
) -> tuple[str, ...]:
    """n states: the first picked from ``first``, each later one from the row
    of the state before it, one SplitMix64 draw each."""
    rng = SplitMix64(seed)
    symbols: list[str] = []
    row = first
    for _ in range(n):
        i = _pick(row, rng.next_float())
        symbols.append(states[i])
        row = rows[i]
    return tuple(symbols)


def sample_iid(p: Mapping[str, float], n: int, seed: int) -> Trace:
    """Length-n i.i.d. trace over class ids, deterministic in the seed.

    Symbols are drawn by inverse transform over ids in sorted order, one
    SplitMix64 draw each; this ordering is part of the reproducibility
    contract. It is the Markov walk with every row equal to ``p``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_distribution(p.values(), "distribution")
    ids, masses = zip(*sorted(p.items()))
    items = list(enumerate(masses))
    symbols = _walk(ids, items, [items] * len(ids), n, seed)
    return Trace(symbols=symbols, provenance=f"iid(seed={seed}, n={n})")


def sample_markov(
    states: Sequence[str],
    transitions: Sequence[Sequence[float]],
    initial: Sequence[float],
    n: int,
    seed: int,
) -> Trace:
    """Length-n Markov-chain trace; first symbol from ``initial``, then rows.

    States keep their given order; each step consumes one SplitMix64 draw.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_chain(states, transitions, initial)
    rows = [list(enumerate(row)) for row in transitions]
    symbols = _walk(states, list(enumerate(initial)), rows, n, seed)
    return Trace(symbols=symbols, provenance=f"markov(seed={seed}, n={n})")


def empirical_distribution(trace: Trace | Sequence[str]) -> dict[str, float]:
    """Normalized symbol frequencies, by id; each is a correctly rounded count / length."""
    symbols = trace.symbols if isinstance(trace, Trace) else tuple(trace)
    if not symbols:
        raise ValueError("cannot take the empirical distribution of an empty trace")
    total = len(symbols)
    return {cid: c / total for cid, c in sorted(Counter(symbols).items())}


def read_trace(path: str | Path) -> Trace:
    symbols: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        symbols.append(line)
    return Trace(symbols=tuple(symbols), provenance=f"file:{path}")


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` with the header; an id that would not read back as
    itself raises ValueError before the file is opened."""
    for s in sorted(set(trace.symbols)):
        if s.splitlines() != [s] or s != s.strip() or s.startswith("#"):
            raise ValueError(
                f"trace id {s!r} cannot be written: ids must be one non-empty line "
                "without surrounding whitespace, not starting with '#'"
            )
    lines = [TRACE_HEADER, *trace.symbols]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
