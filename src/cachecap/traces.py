"""Access traces: making, reading, writing and checking them.

Traces are sequences of class ids (files within a class are symmetric, so
class granularity carries all the information any formula here needs).
Every statistic of a trace, its class marginal and its entropy estimate,
is an ``EmpiricalSource`` method in ``entropy``.

The generator is SplitMix64, a counter-based 64-bit PRNG chosen because it
is four lines long, fast, and bit-for-bit reproducible on any platform; the
known-answer test pins its output. One draw is consumed per symbol. Draw j
of a seed depends only on the seed and j (its state is
``seed + j * 0x9E3779B97F4A7C15 mod 2**64``), so the draws are made in bulk,
``_CHUNK`` at a time, each in its own 128-bit lane of one integer, and are
bit for bit those of the one-at-a-time generator.

Trace file format: UTF-8, one id per line, optional ``#cachecap-trace v1``
header; lines starting with ``#`` are ignored on read, and so are blank lines
and the whitespace around an id. A line that starts with a byte order mark
(U+FEFF) is rejected on read: it is what joining two files leaves. So only ids
that are one non-empty line of UTF-8 text, carry no surrounding whitespace and
start with neither ``#`` nor U+FEFF can be written.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

from .model import check_non_negative_int

__all__ = [
    "Trace",
    "sample_iid",
    "sample_markov",
    "read_trace",
    "write_trace",
]

TRACE_HEADER = "#cachecap-trace v1"

_MASK64 = (1 << 64) - 1
_PROB_TOL = 1e-9

_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
_CHUNK = 4096  # draws per pass of the lane arithmetic in _draws


class Trace(NamedTuple):
    symbols: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.symbols)


def check_distribution(values: Iterable[float], label: str) -> None:
    """Raise ValueError unless ``values`` are finite, non-negative and sum to 1 (within 1e-9).

    A value whose type is exactly ``float`` and for which ``v - v`` is 0.0,
    which is false for an infinity and for NaN, is finite with no further test.
    """
    total = 0.0
    for v in values:
        if type(v) is not float or v - v != 0.0:
            try:
                finite = not isinstance(v, bool) and math.isfinite(v)
            except (OverflowError, TypeError):  # an integer beyond the float range, or no number
                finite = False
            if not finite:
                raise ValueError(f"{label}: probability {v!r} is not a finite number")
        if v < 0:
            raise ValueError(f"{label}: negative probability {v}")
        total += v
    if abs(total - 1.0) > _PROB_TOL:
        raise ValueError(f"{label}: probabilities sum to {total!r}, not 1")


def check_ids(ids: Iterable[str], label: str) -> None:
    """Raise ValueError, naming the id, unless every id in ``ids`` is a string."""
    for cid in ids:
        if type(cid) is not str and not isinstance(cid, str):
            raise ValueError(f"{label} must be strings, got {cid!r}")


def check_class_mass(mass: Mapping[str, float], label: str) -> None:
    """Raise ValueError, naming ``label``, unless ``mass`` is a mapping whose
    keys are string class ids and whose values are a distribution."""
    if not isinstance(mass, Mapping):
        raise ValueError(f"'{label}' must be a mapping, got {type(mass).__name__}")
    check_distribution(mass.values(), label)
    check_ids(mass, "class ids")


def _check_array(value: object, field: str) -> None:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be an array")


def check_chain(
    states: Sequence[str],
    transitions: Sequence[Sequence[float]],
    initial: Sequence[float] | None = None,
) -> None:
    """Raise ValueError unless ``states`` are unique strings, ``transitions`` is a
    square matrix over them whose rows are distributions, and ``initial``, when
    given, is a distribution over them.

    Each of ``states``, ``transitions``, its rows and ``initial`` must be a
    list or a tuple: a string or a mapping, which iteration would split into
    characters or keys, is rejected with the field named.
    """
    _check_array(states, "'states'")
    _check_array(transitions, "'transitions'")
    for i, row in enumerate(transitions):
        _check_array(row, f"'transitions' row {i}")
    if initial is not None:
        _check_array(initial, "'initial'")
    k = len(states)
    if k == 0:
        raise ValueError("Markov source needs at least one state")
    check_ids(states, "Markov 'states'")
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


def _inverse_cdf(masses: Sequence[float]) -> tuple[list[int], list[int]]:
    """Thresholds ``ceil(running sum * 2**53)`` over the positive masses, in
    order, and their indices.

    A draw ``v`` (the top 53 bits of a SplitMix64 output) stands for the
    double ``u = v * 2**-53``, and ``u >= c`` holds exactly when
    ``v >= ceil(c * 2**53)``. So ``idx[bisect_right(cum, v)]`` is the first
    index whose running sum exceeds ``u``, with no float made per draw; a
    zero mass is skipped, and a mass too small to move the sum is never
    picked. The index list repeats its last entry once, so a ``u`` in the
    rounding slack at the top picks the last positive mass.
    """
    cum: list[int] = []
    idx: list[int] = []
    acc = 0.0
    for i, mass in enumerate(masses):
        if mass <= 0.0:
            continue
        acc += mass
        cum.append(math.ceil(acc * 2.0**53))
        idx.append(i)
    idx.append(idx[-1])
    return cum, idx


def _draws(seed: int, n: int) -> Iterator[array]:
    """The top 53 bits of SplitMix64 draws 1..n of ``seed``, in order, as
    arrays of up to ``_CHUNK`` integers.

    Each state of a chunk sits in its own 128-bit lane of one integer, lane
    0 lowest. The first chunk is ``a*ones + GAMMA*ramp``, reduced mod 2**64
    in every lane, with ``a`` the first state, ``ones`` holding 1 in every
    lane and ``ramp`` holding j in lane j; each later chunk adds
    ``m*GAMMA`` to every lane. Every step of the mix then acts on all
    lanes at once. Each xor-shift is masked back to the low 64 bits of
    every lane before its multiply: a right shift drops the low bits of
    the lane above into the upper half of the lane below, and the multiply
    would carry them on into the next lane. A masked lane times a 64-bit
    constant fits in its 128 bits. The last xor-shift and the ``>> 11``
    need no mask, because only the low 64 bits of each lane are read, and
    the bits they take from the upper half of a masked lane are zero.
    ``array('Q')`` reads native-endian words, hence the byteswap on a
    big-endian host.
    """
    m = min(n, _CHUNK)
    if m == 0:
        return
    low64 = int.from_bytes((b"\xff" * 8 + bytes(8)) * m, "little")
    ones = int.from_bytes((b"\x01" + bytes(15)) * m, "little")
    ramp = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(m)), "little")
    x = (((seed + _GAMMA) & _MASK64) * ones + _GAMMA * ramp) & low64
    step = ((m * _GAMMA) & _MASK64) * ones
    for done in range(0, n, m):
        z = ((x ^ (x >> 30)) & low64) * 0xBF58476D1F4EE2B5 & low64
        z = ((z ^ (z >> 27)) & low64) * 0x94D049BB133111EB & low64
        words = array("Q")
        words.frombytes(((z ^ (z >> 31)) >> 11).to_bytes(16 * m, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield words[: 2 * (n - done) : 2]
        x = (x + step) & low64


def _walk(
    states: Sequence[str],
    first: tuple[list[int], list[int]],
    rows: Sequence[tuple[list[int], list[int]]],
    n: int,
    seed: int,
) -> Trace:
    """The trace of n states: the first picked from ``first``, each later one
    from the row of the state before it, one SplitMix64 draw each.

    ``first`` and ``rows`` are ``_inverse_cdf`` tables. The draws come from
    ``_draws`` a chunk at a time; the loop stays per symbol, because each
    row depends on the state before it. The walk tests pin it to a scalar
    SplitMix64 and a linear scan, across the chunk boundaries. The output
    list is allocated first, so a length too large to hold raises
    MemoryError, naming ``n``, before any draw.
    """
    check_non_negative_int(n, "n")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    try:
        symbols: list[str | None] = [None] * n
    except (OverflowError, MemoryError) as exc:
        raise MemoryError(f"trace length {n} is too large to hold") from exc
    cum, idx = first
    done = 0
    for draws in _draws(seed, n):
        chunk: list[str] = []
        append = chunk.append
        for v in draws:
            i = idx[bisect_right(cum, v)]
            append(states[i])
            cum, idx = rows[i]
        symbols[done : done + len(chunk)] = chunk
        done += len(chunk)
    return Trace(tuple(symbols))


def sample_iid(p: Mapping[str, float], n: int, seed: int) -> Trace:
    """Length-n i.i.d. trace over class ids, deterministic in the seed.

    Symbols are drawn by inverse transform over ids in sorted order, one
    SplitMix64 draw each; this ordering is part of the reproducibility
    contract. It is the Markov walk with every row equal to ``p``. The seed
    must be an integer in ``[0, 2**64)``.
    """
    check_class_mass(p, "p")
    ids, masses = zip(*sorted(p.items()))
    row = _inverse_cdf(masses)
    return _walk(ids, row, [row] * len(ids), n, seed)


def sample_markov(
    states: Sequence[str],
    transitions: Sequence[Sequence[float]],
    initial: Sequence[float],
    n: int,
    seed: int,
) -> Trace:
    """Length-n Markov-chain trace; first symbol from ``initial``, then rows.

    States keep their given order; each step consumes one SplitMix64 draw.
    The seed must be an integer in ``[0, 2**64)``.
    """
    check_chain(states, transitions, initial)
    _check_array(initial, "'initial'")  # check_chain reads None as no initial; a walk needs one
    rows = [_inverse_cdf(row) for row in transitions]
    return _walk(states, _inverse_cdf(initial), rows, n, seed)


def trace_symbols(trace: Trace | Sequence[str], label: str) -> tuple[str, ...]:
    """The symbols of a Trace, a list or a tuple, as a tuple. A string or a
    mapping, which iteration would split into characters or keys, raises
    ValueError naming ``label``, whether a Trace holds it or not."""
    if isinstance(trace, Trace):
        trace = trace.symbols
    if not isinstance(trace, (list, tuple)):
        raise ValueError(f"'{label}' must be a Trace, a list or a tuple, got {type(trace).__name__}")
    return tuple(trace)


def read_trace(path: str | Path) -> Trace:
    """The ids in a trace file. A file that is not UTF-8, or that starts with a
    UTF-8 byte order mark, raises ValueError, naming the path: the mark would
    join the first line. So does a later line whose stripped text starts with
    one, naming the line's number too: a second file's mark, where files were
    joined, would turn its header into an id."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"trace file {path} is not UTF-8: {exc}") from exc
    if text.startswith("\ufeff"):
        raise ValueError(f"trace file {path} starts with a UTF-8 byte order mark")
    if "\ufeff" in text:
        for number, line in enumerate(text.splitlines(), 1):
            if line.strip().startswith("\ufeff"):
                raise ValueError(
                    f"trace file {path}: line {number} starts with a UTF-8 byte order mark"
                )
    lines = map(str.strip, text.splitlines())
    return Trace(symbols=tuple([s for s in lines if s and s[0] != "#"]))


def _writable(s: str) -> bool:
    try:
        s.encode("utf-8")  # a lone surrogate has no UTF-8 form
    except UnicodeEncodeError:
        return False
    return s.splitlines() == [s] and s == s.strip() and not s.startswith(("#", "\ufeff"))


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` with the header; an id that would not read back as
    itself raises ValueError before the file is opened."""
    for s in sorted(set(trace.symbols)):
        if not _writable(s):
            raise ValueError(
                f"trace id {s!r} cannot be written: ids must be one non-empty line of "
                "UTF-8 text without surrounding whitespace, not starting with '#' or U+FEFF"
            )
    lines = [TRACE_HEADER, *trace.symbols]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
