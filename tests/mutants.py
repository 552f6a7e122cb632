"""A committed mutation gate: named one-line mutants of ``src/`` that the tests must kill.

A mutant replaces one text in one file of ``src/``, a text that occurs there
exactly once. It is killed when a test file expected to kill it fails on the
mutated tree. ``tests/test_mutants.py`` checks the table alone in tier-1: each
old text occurs once, and each named test file exists. This script runs it::

    python tests/mutants.py            # every mutant
    python tests/mutants.py REL_TOL    # the mutants named

The tree (``src``, ``tests``, ``scenarios``, ``pyproject.toml`` and ``README.md``) is copied
once into a temporary directory, where the test files named in the table must
first pass as they are. Each mutant is then written there in turn, its test
files run under ``pytest -x`` in one child process, and the file put back. The
children write no bytecode, so no cached module outlives its mutant. Each child
starts a session of its own, and a mutant's run may take ``TIME_LIMIT`` times as
long as that first, unmutated run: a mutant that makes the code loop forever is
then stopped, with every process its tests started, and counts as killed. The
script prints one line per mutant and then the mutants not killed, and exits 1
if there are any. A change that adds a check adds the mutant that the check kills.

Plain text replacement, in the manner of DeMillo, Lipton and Sayward, "Hints on
Test Data Selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
_TREE = ("src", "tests", "scenarios", "pyproject.toml", "README.md")
TIME_LIMIT = 10  # a mutant's run, in units of the unmutated run of every test file


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in ``path``
    new: str
    killers: tuple[str, ...]  # test files, relative to the root, expected to fail


MUTANTS = [
    Mutant(
        "kinds-keeps-last-count",
        "src/cachecap/model.py",
        "kinds[time] = kinds.get(time, 0) + self.counts[cid]",
        "kinds[time] = self.counts[cid]",
        ("tests/test_capacity.py",),
    ),
    Mutant(
        "REL_TOL",
        "src/cachecap/capacity.py",
        "REL_TOL = 1e-12",
        "REL_TOL = 1e-6",
        ("tests/test_capacity.py",),
    ),
    Mutant(
        "read-trace-splits-on-newline",
        "src/cachecap/traces.py",
        "lines = map(str.strip, text.splitlines())",
        'lines = map(str.strip, text.split("\\n"))',
        ("tests/test_traces.py",),
    ),
    Mutant(
        "iid-entropy-drops-within-class-term",
        "src/cachecap/entropy.py",
        "h -= mass * (log2(mass) - log2(counts[cid]))",
        "h -= mass * log2(mass)",
        ("tests/test_entropy.py",),
    ),
    Mutant(
        "oracle-window-off-by-one",
        "src/cachecap/oracle.py",
        "value += count * window[-tau]",
        "value += count * window[-tau + 1]",
        ("tests/test_oracle.py",),
    ),
    # The checks that the solver and the oracle make of their inputs.
    Mutant(
        "solver-count-not-finite",
        "src/cachecap/capacity.py",
        "isinstance(count, float) and math.isfinite(count)",
        "isinstance(count, float)",
        ("tests/test_capacity.py",),
    ),
    Mutant(
        "solver-count-bool",
        "src/cachecap/capacity.py",
        "if type(count) is not int and not",
        "if type(count) not in (int, bool) and not",
        ("tests/test_capacity.py",),
    ),
    Mutant(
        "solver-time-bool",
        "src/cachecap/capacity.py",
        "(isinstance(tau, bool) or not isinstance(tau, (int, float)))",
        "(not isinstance(tau, (int, float)))",
        ("tests/test_capacity.py",),
    ),
    Mutant(
        "solver-time-not-finite",
        "src/cachecap/capacity.py",
        "if not 0 < tau <= _MAX_FLOAT:",
        "if not 0 < tau:",
        ("tests/test_capacity.py",),
    ),
    Mutant(
        "oracle-grid-bool",
        "src/cachecap/oracle.py",
        "if isinstance(grid, bool) or not isinstance(grid, (int, float)) or",
        "if not isinstance(grid, (int, float)) or",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "oracle-grid-not-finite",
        "src/cachecap/oracle.py",
        "or not 0 < grid <= sys.float_info.max:",
        "or not 0 < grid:",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "oracle-x0-nan",
        "src/cachecap/oracle.py",
        "not isinstance(x0, (int, float)) or x0 != x0)",
        "not isinstance(x0, (int, float)))",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "oracle-x0-bool",
        "src/cachecap/oracle.py",
        "(isinstance(x0, bool) or not",
        "(not",
        ("tests/test_oracle.py",),
    ),
    # What ``main`` and ``EmpiricalSource.entropy`` each do for every caller.
    Mutant(
        "cli-order-without-trace-accepted",
        "src/cachecap/cli.py",
        'args.command == "efficiency" and args.trace is None and (args.order is not None or args.force):',
        'args.command == "efficiency" and args.trace is None and args.force:',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli-usage-error-exits-two",
        "src/cachecap/cli.py",
        "raise ValueError(message)",
        "raise SolverError(message)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli-input-error-not-caught",
        "src/cachecap/cli.py",
        "except (ValueError, OSError) as exc:",
        "except OSError as exc:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli-no-digest-line",
        "src/cachecap/cli.py",
        'if scenario else ""',
        'if not scenario else ""',
        ("tests/test_cli.py", "tests/test_cli_corpus.py"),
    ),
    Mutant(
        "estimate-skips-sparse-check",
        "src/cachecap/entropy.py",
        "            _check_sparse(len(symbols), n, alphabet)\n",
        "            pass\n",
        ("tests/test_entropy.py",),
    ),
    Mutant(
        "estimate-names-its-input-trace",
        "src/cachecap/entropy.py",
        'EmpiricalSource(trace_symbols(symbols, "symbols"), n, force)',
        "EmpiricalSource(symbols, n, force)",
        ("tests/test_traces.py",),
    ),
    # Boundaries no test reached, and the checks that make a bad input fail as itself.
    Mutant(
        "sparse-check-refuses-the-needed-length",
        "src/cachecap/entropy.py",
        "if length < needed:",
        "if length <= needed:",
        ("tests/test_entropy.py",),
    ),
    Mutant(
        "utilization-divides-by-zero-capacity",
        "src/cachecap/entropy.py",
        "if capacity > 0 else None",
        "if capacity >= 0 else None",
        ("tests/test_entropy.py",),
    ),
    Mutant(
        "oracle-report-compares-an-unchecked-horizon",
        "src/cachecap/oracle.py",
        '    check_non_negative_int(t_max, "t_max")\n    if t_max < q.max_time:',
        "    if t_max < q.max_time:",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "sample-markov-takes-no-initial",
        "src/cachecap/traces.py",
        """    _check_array(initial, "'initial'")  # check_chain""",
        "    pass  # check_chain",
        ("tests/test_traces.py",),
    ),
    # Each input rule said once: the shared entry id check, the one horizon rule, UTF-8 input.
    Mutant(
        "entry-id-accepts-a-duplicate",
        "src/cachecap/model.py",
        "    if eid in seen:",
        "    if eid in seen and False:",
        ("tests/test_model.py",),
    ),
    Mutant(
        "horizon-rule-takes-a-bool",
        "src/cachecap/model.py",
        "    if isinstance(value, bool) or not isinstance(value, int):",
        "    if not isinstance(value, int):",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "parse-json-lets-a-decode-error-through-unnamed",
        "src/cachecap/model.py",
        "except (ValueError, RecursionError) as exc:",
        "except (json.JSONDecodeError, RecursionError) as exc:",
        ("tests/test_cli.py",),
    ),
    # The one-pass query: the exact-float short path, the error order, the kept copies.
    Mutant(
        "distribution-float-path-takes-nan-and-inf",
        "src/cachecap/traces.py",
        "if type(v) is not float or v - v != 0.0:",
        "if type(v) is not float:",
        ("tests/test_traces.py",),
    ),
    Mutant(
        "efficiency-names-the-first-failing-class-in-marginal-order",
        "src/cachecap/entropy.py",
        "cid = min({c for c, m in marginal.items()",
        "cid = cid or min({c for c, m in marginal.items()",
        ("tests/test_entropy.py",),
    ),
    Mutant(
        "iid-source-shares-the-callers-mapping",
        "src/cachecap/entropy.py",
        "return super().__new__(cls, dict(class_mass))",
        "return super().__new__(cls, class_mass)",
        ("tests/test_entropy.py",),
    ),
    Mutant(
        "empirical-source-keeps-the-callers-list",
        "src/cachecap/entropy.py",
        "super().__new__(cls, trace_symbols(trace, \"trace\"), order, force)",
        "super().__new__(cls, trace if isinstance(trace, list) else "
        "trace_symbols(trace, \"trace\"), order, force)",
        ("tests/test_entropy.py",),
    ),
    # Symbols taken once, the failing class named with one min, the optimum of a huge count.
    Mutant(
        "efficiency-names-a-massless-class",
        "src/cachecap/entropy.py",
        "{c for c, m in marginal.items() if not m <= 0.0} - readable",
        "set(marginal) - readable",
        ("tests/test_entropy.py",),
    ),
    Mutant(
        "trace-contents-pass-unchecked",
        "src/cachecap/traces.py",
        "        trace = trace.symbols\n",
        "        return trace.symbols\n",
        ("tests/test_traces.py",),
    ),
    Mutant(
        "optimal-mass-overflows-on-a-huge-count",
        "src/cachecap/capacity.py",
        "except OverflowError:  # a count beyond the float range",
        "except ():  # a count beyond the float range",
        ("tests/test_capacity.py",),
    ),
    # A source's statistics computed once: the symbol counts, the check of their ids, their order.
    Mutant(
        "estimate-alphabet-counts-blocks",
        "src/cachecap/entropy.py",
        "alphabet = len(symbol_counts)",
        "alphabet = len(blocks)",
        ("tests/test_entropy.py",),
    ),
    Mutant(
        "empirical-source-takes-any-symbol",
        "src/cachecap/entropy.py",
        'check_ids(symbol_counts, "trace symbols")',
        "pass",
        ("tests/test_traces.py",),
    ),
    Mutant(
        "marginal-in-first-occurrence-order",
        "src/cachecap/entropy.py",
        "sorted(self._counts[1].items())",
        "self._counts[1].items()",
        ("tests/test_entropy.py",),
    ),
    # Input the report could not print: an id that is not text, a mean past the float range.
    Mutant(
        "entry-id-takes-any-text",
        "src/cachecap/model.py",
        "    if not eid.isascii():",
        "    if False:",
        ("tests/test_model.py",),
    ),
    Mutant(
        "efficiency-reports-an-infinite-mean",
        "src/cachecap/entropy.py",
        "    if mean_time == math.inf:",
        "    if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "gen-trace-writes-a-path-that-is-not-text",
        "src/cachecap/cli.py",
        'args.out.encode("utf-8")',
        "pass",
        ("tests/test_cli.py",),
    ),
]


def run_in_session(
    command: list[str], limit: float | None, **kwargs
) -> subprocess.CompletedProcess | None:
    """Run ``command`` in a session of its own, capturing its output as text;
    ``None`` when it ran past ``limit`` seconds, after its whole process group
    has been killed."""
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, **kwargs,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return None
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def _pytest(files: list[str], root: Path, limit: float | None) -> subprocess.CompletedProcess | None:
    """``pytest -x`` over ``files`` in the copy at ``root``, with no bytecode
    written; ``None`` when it ran past ``limit`` seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    return run_in_session(command, limit, cwd=root, env=env)


def _run(mutant: Mutant, root: Path, limit: float) -> str:
    """Apply ``mutant`` in the copy at ``root``, run its test files and restore
    the file: "killed" when a test failed, "timeout" when the run took longer
    than ``limit`` seconds, "SURVIVED" when all passed, and "ERROR" when pytest
    could not run them (a collection error, say)."""
    target = root / mutant.path
    original = target.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text does not occur exactly once in {mutant.path}")
    target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        result = _pytest(list(mutant.killers), root, limit)
    finally:
        target.write_text(original, encoding="utf-8")
    if result is None:
        return "timeout"
    if result.returncode not in (0, 1):
        print(result.stdout[-2000:] + result.stderr[-2000:], file=sys.stderr)
    return {0: "SURVIVED", 1: "killed"}.get(result.returncode, "ERROR")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    not_killed, timeouts = [], 0
    with tempfile.TemporaryDirectory(prefix="cachecap-mutants-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for entry in _TREE:
            source = REPO_ROOT / entry
            if source.is_dir():
                shutil.copytree(source, root / entry, ignore=ignore)
            else:
                shutil.copy2(source, root / entry)
        # Every test file must pass on the tree as it is, or a failure shows nothing.
        files = sorted({f for m in chosen for f in m.killers})
        start = time.perf_counter()
        if _pytest(files, root, None).returncode != 0:
            print(f"the unmutated tree fails {' '.join(files)}; no mutant run", file=sys.stderr)
            return 2
        limit = TIME_LIMIT * (time.perf_counter() - start)
        print(f"unmutated run {limit / TIME_LIMIT:.1f} s; each mutant's limit {limit:.1f} s", flush=True)
        for mutant in chosen:
            start = time.perf_counter()
            outcome = _run(mutant, root, limit)
            print(f"{outcome:<8} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if outcome == "timeout":
                timeouts += 1
            elif outcome != "killed":
                not_killed.append(mutant.name)
    print(f"{len(chosen) - len(not_killed)} of {len(chosen)} mutants killed, {timeouts} by timeout")
    for name in not_killed:
        print(f"not killed: {name}")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
