import pytest

from delcodes import vt


@pytest.fixture
def levenshtein(monkeypatch):
    """Levenshtein's modulus 2n in the one home of the VT modulus."""
    monkeypatch.setattr(vt, "_modulus", lambda n: 2 * n)
