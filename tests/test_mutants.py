"""The mutation runner's verdict on one run: a run passes only where
pytest.main returned 0, and no process of a run outlives it."""

import importlib.util
import os
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _checkout(tmp_path, body):
    (tmp_path / "src").mkdir()
    (tmp_path / "test_one.py").write_text(body)
    return tmp_path


@pytest.mark.parametrize("body, outcome", [
    ("def test_one():\n    pass\n", "passed"),
    ("def test_one():\n    assert False\n", "failed"),
    # Status 0 before pytest returns, as a mutant that unwinds a forked
    # child into the test, or exits in its place, would give.
    ("import os\n\ndef test_one():\n    os._exit(0)\n", "exited"),
    ("import os\n\ndef test_one():\n    if os.fork() != 0:\n"
     "        os._exit(0)\n", "exited"),
])
def test_a_run_passes_only_when_pytest_returns_0(tmp_path, body, outcome):
    assert mutants.run_tests(_checkout(tmp_path, body), ["test_one.py"], 60) == outcome


def _alive(pid):
    """Whether pid runs: a zombie no parent has reaped yet has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_of_a_run_outlives_it(tmp_path):
    # The test passes and leaves a child asleep, every file closed, so
    # the run ends with the child still in its process group.
    body = ("import os, time\n\ndef test_one():\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        os.closerange(0, 4096)\n"
            "        time.sleep(60)\n"
            "        os._exit(0)\n"
            "    open('child.pid', 'w').write(str(pid))\n")
    root = _checkout(tmp_path, body)
    assert mutants.run_tests(root, ["test_one.py"], 60) == "passed"
    pid = int((root / "child.pid").read_text())
    try:
        deadline = time.monotonic() + 10
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(pid)
    finally:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_child_holding_the_output_open_does_not_hold_the_run(tmp_path):
    # The child keeps every file the test process had, its copy of the
    # run's output among them, and sleeps: the run still ends when the
    # test process does, and the child with it.
    body = ("import os, time\n\ndef test_one():\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        time.sleep(60)\n"
            "        os._exit(0)\n"
            "    open('child.pid', 'w').write(str(pid))\n")
    root = _checkout(tmp_path, body)
    start = time.monotonic()
    outcome = mutants.run_tests(root, ["test_one.py"], 60)
    elapsed = time.monotonic() - start
    pid = int((root / "child.pid").read_text())
    try:
        assert outcome == "passed" and elapsed < 30
        deadline = time.monotonic() + 10
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(pid)
    finally:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)
