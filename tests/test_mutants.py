"""The mutation table alone, so it cannot rot unseen; ``python tests/mutants.py`` runs it."""

import sys
import time
from pathlib import Path

import pytest

from conftest import REPO_ROOT
from mutants import MUTANTS, run_in_session


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_applies_once_and_names_test_files_that_exist(mutant):
    assert mutant.path.startswith("src/")
    assert (REPO_ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.killers
    for name in mutant.killers:
        assert (REPO_ROOT / name).is_file(), name
        assert name.startswith("tests/test_"), name


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_a_run_within_its_limit_gives_its_output():
    result = run_in_session([sys.executable, "-c", "print('out'); raise SystemExit(3)"], 60)
    assert (result.returncode, result.stdout) == (3, "out\n")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_a_run_past_its_limit_is_stopped_with_every_process_it_started(tmp_path):
    # the child starts a grandchild, as the CLI tests start interpreters, and both sleep
    pid_file = tmp_path / "pid"
    script = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(60)\n"
    )
    start = time.monotonic()
    assert run_in_session([sys.executable, "-c", script], 3) is None
    assert time.monotonic() - start < 30
    grandchild = int(pid_file.read_text())
    deadline = time.monotonic() + 10
    while _alive(grandchild) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(grandchild)
