import os

import pytest

from delcodes import vt


@pytest.fixture
def levenshtein(monkeypatch):
    """Levenshtein's modulus 2n in the one home of the VT modulus."""
    monkeypatch.setattr(vt, "_modulus", lambda n: 2 * n)


@pytest.fixture(autouse=True)
def no_leftover_children():
    """Fail a test that leaves a child process, running or unreaped, as a
    split round trip or simulate must not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'})")
