"""Time the program's set-up in a fresh interpreter and print it in seconds.

Set-up is ``import cachecap`` plus one warm-up call of the workload's kind.
Nothing else the benchmark uses is imported before the clock starts, so a
change in what cachecap imports shows here in full.

    python bench/setup_probe.py <workload>      # repository root on the path via PYTHONPATH=src
"""

import contextlib
import io
import sys
import time
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def warm_up(workload: str, cachecap) -> None:
    """One small call into the layers the workload exercises."""
    if workload == "cli-verbs":
        import cachecap.cli

        with contextlib.redirect_stdout(io.StringIO()):
            if cachecap.cli.main(["validate", str(SCENARIOS / "fig1.json"), "--json"]) != 0:
                raise RuntimeError("warm-up validate failed")
    elif workload == "big-network":
        cachecap.analyze_network(cachecap.load_scenario(SCENARIOS / "fig2.json"))
    elif workload == "long-trace":
        trace = cachecap.sample_iid({"a": 0.5, "b": 0.5}, 1000, 0)
        cachecap.block_entropy_estimate(trace, 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    start = time.perf_counter()
    import cachecap

    warm_up(sys.argv[1], cachecap)
    print(time.perf_counter() - start)
