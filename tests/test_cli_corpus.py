"""Same bytes: one SHA-256 per CLI run, pinned in a committed map.

Each run is ``cli.main(args)`` in process, from a working directory whose
``scenarios`` and ``tests`` entries point at the repository's, so every path a
report echoes is the relative one in its command line. The digest covers the
exit code, stdout, stderr and, for ``gen-trace``, the bytes of the written
trace. The map is keyed by the command line, so a failure names the runs whose
output moved.

A change that moves output on purpose re-pins the runs it moves (and says
which, and why) by rewriting the map::

    python tests/test_cli_corpus.py

The script needs no pytest, so any interpreter the package supports can
compare its own runs with the map, writing nothing; it prints the runs that
moved and exits 1 if any did::

    python3.12 tests/test_cli_corpus.py --check
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(REPO_ROOT / "src")]

import cachecap.cli as cli  # noqa: E402

PINS = REPO_ROOT / "tests" / "fixtures" / "cli-corpus.sha256.json"
SCENARIOS = sorted(p.name for p in (REPO_ROOT / "scenarios").glob("*.json"))
SPECS = [
    "tests/fixtures/corpus.iid-fig.json",
    "tests/fixtures/corpus.iid-fig2.json",
    "tests/fixtures/corpus.iid-three-file.json",
    "tests/fixtures/three-file.markov-source.json",
]
GEN_SPECS = [
    "tests/fixtures/corpus.iid-three-file.json",
    "tests/fixtures/three-file.markov-source.json",
    "tests/fixtures/corpus.markov-repeated-state.json",
]
TRACE_OUT = "out.trace"


def _node_ids(scenario: str) -> list[str]:
    """The scenario's node ids, read from the raw document (some do not load)."""
    doc = json.loads((REPO_ROOT / "scenarios" / scenario).read_text(encoding="utf-8"))
    return [node["id"] for node in doc["nodes"]]


def corpus() -> list[list[str]]:
    """Every pinned command line, each once as text and once with ``--json``."""
    runs: list[list[str]] = []
    for name in SCENARIOS:
        path = f"scenarios/{name}"
        runs += [["capacity", path], ["validate", path]]
        runs += [["compare", path, f"scenarios/{other}"] for other in SCENARIOS]
        for node in [*_node_ids(name), "no-such-node"]:
            runs += [
                ["optimal", path, node],
                ["efficiency", path, node, "--optimal"],
                *(["efficiency", path, node, "--source", spec] for spec in SPECS),
                ["oracle", path, node],
                ["oracle", path, node, "--grid", "0.5"],
            ]
    runs += [
        # The ``cli-verbs`` benchmark's oracle job: its ``--json`` run pins that
        # job's stdout (about 5 MB) byte for byte.
        ["oracle", "scenarios/three-file.json", "n", "--tmax", "5000"],
        ["oracle", "scenarios/three-file.json", "n", "--tmax", str(10**18)],  # too large to allocate
        ["oracle", "scenarios/three-file.json", "n", "--tmax", "-1"],
    ]
    runs += [  # inputs that are not UTF-8
        ["validate", "tests/fixtures/corpus.utf16-scenario.json"],
        ["efficiency", "scenarios/three-file.json", "n", "--source", "tests/fixtures/corpus.latin1-spec.json"],
        ["efficiency", "scenarios/three-file.json", "n", "--trace", "tests/fixtures/corpus.latin1.trace"],
    ]
    runs += [["capacity", "tests/fixtures/corpus.surrogate-id.json"]]  # a node id that is not text
    runs += [  # a class with more files than a float can hold
        ["optimal", "tests/fixtures/corpus.huge-count.json", "n"],
        ["efficiency", "tests/fixtures/corpus.huge-count.json", "n", "--optimal"],
    ]
    runs += [
        ["gen-trace", spec, "--n", "1000", "--seed", "5", "--out", TRACE_OUT] for spec in GEN_SPECS
    ]
    return [args + flag for args in runs for flag in ([], ["--json"])]


def run(args: list[str]) -> tuple[int, str]:
    """One run's exit code, and the SHA-256 of that code, stdout, stderr and written trace.

    stdout is strict UTF-8, as a real one is, so text it cannot encode raises.
    """
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline=""), io.StringIO()
    trace = Path(TRACE_OUT)
    trace.unlink(missing_ok=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    out.flush()
    h = hashlib.sha256()
    for part in (str(code), out.buffer.getvalue().decode("utf-8"), err.getvalue()):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    if trace.exists():
        h.update(trace.read_bytes())
    return code, h.hexdigest()


@contextlib.contextmanager
def _corpus_dir():
    """A temporary working directory that sees the repository's inputs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for entry in ("scenarios", "tests"):
            os.symlink(REPO_ROOT / entry, Path(tmp) / entry)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def run_corpus() -> dict[str, tuple[int, str]]:
    """Each command line's exit code and digest."""
    with _corpus_dir():
        return {shlex.join(args): run(args) for args in corpus()}


@functools.cache
def _runs() -> dict[str, tuple[int, str]]:
    """``run_corpus()``, run once for the tests of this module."""
    return run_corpus()


def moved_runs(runs: dict[str, tuple[int, str]]) -> list[str]:
    """The command lines whose digest is not the pinned one, in order, then
    those pinned but not run."""
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    moved = [line for line, (_, digest) in runs.items() if digest != pinned.get(line)]
    return moved + [line for line in pinned if line not in runs]


def test_every_run_prints_the_pinned_bytes():
    runs = _runs()
    moved = moved_runs(runs)
    assert not moved, f"{len(moved)} of {len(runs)} runs moved:\n" + "\n".join(moved)


def test_the_corpus_reaches_every_exit_code():
    """Error runs are pinned too: every exit code occurs, and every verb succeeds somewhere."""
    runs = _runs()
    codes = {code for code, _ in runs.values()}
    succeeded = {line.split()[0] for line, (code, _) in runs.items() if code == 0}
    assert sorted(codes) == [0, 1, 2]
    assert succeeded == set(cli._COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    runs = run_corpus()
    if sys.argv[1:] == ["--check"]:
        moved = moved_runs(runs)
        print(f"Python {sys.version.split()[0]}: {len(moved)} of {len(runs)} runs moved")
        print("\n".join(moved), end="\n" if moved else "")
        sys.exit(1 if moved else 0)
    pins = {line: digest for line, (_, digest) in runs.items()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
