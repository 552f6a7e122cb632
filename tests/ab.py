"""A/B driver: alternating benchmark runs of a base revision and the working tree.

    python tests/ab.py --base <rev> --workload W --pairs N --seconds S --seed S0 --label L

The base revision is exported with ``git archive`` into ``.bench_build/<commit>/``;
the change side is the working tree. Each side runs its own ``bench/run.py``
(``--trace 0``) in its own tree. Pair i (from 0) runs seed ``S0 + i`` on both
sides, the base first in the first, third, fifth ... pair and the change first
in the others. ``N`` must be even, so each side runs first equally often: the
first run of a pair tends to be the slower one, and a drift of the host over
the session falls on both sides alike.

Before anything is timed, the driver prints whether both trees' ``big-network``
digests (``tests/test_network_digest.py``, run against each tree's ``src``)
agree. It does not stop when they differ: the tier-1 suite already fails on a
change that moves them.

Each run's two last stdout lines (the details object with ``metrics``, then
the result object) go to ``BENCH_<L>_parent.json`` and ``BENCH_<L>_change.json``
at the repository root, one line each, as ``bench/run.py`` prints them. The
details' ``machine.git_commit`` is filled in: the base commit, or ``HEAD`` on
the change side, with ``machine.git_dirty`` saying whether the working tree
had uncommitted changes when the driver started.

The summary prints, per end-to-end metric, each side's median and quartiles,
the ratio of the medians and in how many pairs the change was better (a tie
counts for neither side). It does the same for each ``verb.*`` metric divided
by the same run's ``verb.validate_ms`` and minus the same run's
``cli.interp_ms``, since every verb of a run moves with the host's start-up
cost. Nothing here is part of the tier-1 suite, except the summary
arithmetic, which ``tests/test_ab.py`` checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BUILD = REPO_ROOT / ".bench_build"

_DIGEST = (
    "import json, sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import test_network_digest\n"
    "print(json.dumps(test_network_digest.digests()))\n"
)


class Row(NamedTuple):
    metric: str
    parent: tuple[float, float, float]  # first quartile, median, third quartile
    change: tuple[float, float, float]
    wins: int  # pairs in which the change was better
    pairs: int


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def derived(metrics: dict[str, float]) -> dict[str, float]:
    """Each ``verb.*`` metric over the run's ``verb.validate_ms`` and minus its ``cli.interp_ms``."""
    out = {}
    verbs = sorted(k for k in metrics if k.startswith("verb."))
    if "verb.validate_ms" in metrics:
        out |= {
            f"{k}/validate": metrics[k] / metrics["verb.validate_ms"]
            for k in verbs
            if k != "verb.validate_ms"
        }
    if "cli.interp_ms" in metrics:
        out |= {f"{k}-interp": metrics[k] - metrics["cli.interp_ms"] for k in verbs}
    return out


def summarize(
    parent: list[dict[str, float]], change: list[dict[str, float]], higher_is_better: set[str]
) -> list[Row]:
    """One row per metric that every run reports, runs paired by index."""
    names = sorted(set.intersection(*(set(m) for m in parent + change)))
    rows = []
    for name in names:
        a = [m[name] for m in parent]
        b = [m[name] for m in change]
        sign = -1 if name in higher_is_better else 1
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        rows.append(Row(name, quartiles(a), quartiles(b), wins, len(a)))
    return rows


def format_rows(rows: list[Row]) -> str:
    head = ("metric", "parent median [q1-q3]", "change median [q1-q3]", "ratio")
    lines = [f"{head[0]:<34} {head[1]:>30} {head[2]:>30} {head[3]:>6} wins"]
    for r in rows:
        ratio = r.change[1] / r.parent[1] if r.parent[1] else float("nan")
        cells = [f"{s[1]:.4g} [{s[0]:.4g}-{s[2]:.4g}]" for s in (r.parent, r.change)]
        lines.append(f"{r.metric:<34} {cells[0]:>30} {cells[1]:>30} {ratio:6.3f} {r.wins}/{r.pairs}")
    return "\n".join(lines)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str) -> tuple[Path, str]:
    """A fresh ``git archive`` of ``rev`` under ``.bench_build/``, and its commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / commit
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=REPO_ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return tree, commit


def digests(tree: Path) -> dict[str, str]:
    """The ``big-network`` digests of the package under ``tree/src``."""
    command = [sys.executable, "-c", _DIGEST, str(tree / "src"), str(REPO_ROOT / "tests")]
    out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The details and result objects of one ``bench/run.py`` run in ``tree``."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    *_, details, result = proc.stdout.splitlines()
    return json.loads(details), json.loads(result)


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True, help="an even number")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True, help="the seed of the first pair")
    ap.add_argument("--label", required=True, help="names the BENCH_<label>_*.json files")
    args = ap.parse_args(argv)
    if args.pairs <= 0 or args.pairs % 2:
        ap.error(f"--pairs must be a positive even number, got {args.pairs}")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    base, base_commit = export(args.base)
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain"))

    before, after = digests(base), digests(REPO_ROOT)
    verdict = "agree" if before == after else f"differ: base {before}, change"
    print(f"big-network digests {verdict} {after}", flush=True)

    sides = {"parent": (base, base_commit, False), "change": (REPO_ROOT, head, dirty)}
    runs: dict[str, list[tuple[dict, dict]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in ["parent", "change"] if i % 2 == 0 else ["change", "parent"]:
            tree, commit, is_dirty = sides[side]
            details, result = bench_run(tree, args.workload, seed, args.seconds)
            details["machine"] |= {"git_commit": commit, "git_dirty": is_dirty}
            runs[side].append((details, result))
            print(f"pair {i + 1}/{args.pairs} {side}: seed {seed}, failed {result['failed']}", flush=True)

    for side, pairs in runs.items():
        lines = [json.dumps(d, sort_keys=True) + "\n" + json.dumps(r) + "\n" for d, r in pairs]
        (REPO_ROOT / f"BENCH_{args.label}_{side}.json").write_text("".join(lines))

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    gated = {
        side: [{k: v["value"] for k, v in r["metrics"].items()} for _, r in pairs]
        for side, pairs in runs.items()
    }
    host = {side: [derived(d["metrics"]) for d, _ in pairs] for side, pairs in runs.items()}
    gated_rows = summarize(gated["parent"], gated["change"], higher)
    host_rows = summarize(host["parent"], host["change"], set())
    last = args.seed + args.pairs - 1
    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s, seeds {args.seed}-{last}")
    print(format_rows(gated_rows))
    print("\nverb.* over verb.validate_ms, and minus cli.interp_ms, of the same run:")
    print(format_rows(host_rows))
    failed = sum(r["failed"] for pairs in runs.values() for _, r in pairs)
    print(f"\nfailed operations over all runs: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
