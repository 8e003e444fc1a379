import pytest

from qtriple import gns
from qtriple.ncpoly import QParam


@pytest.fixture(scope="session")
def qp():
    return QParam(0.5)


@pytest.fixture(scope="session", params=[0.3, 0.5, 0.8])
def qp_any(request):
    return QParam(request.param)


@pytest.fixture(autouse=True)
def fresh_basis_memo(request):
    """A test that patches module internals never meets a basis built before
    the patch, and the bases it builds under the patch do not outlive it:
    the memo of `gns.gram_schmidt_basis` is cleared after every
    ``monkeypatch.setattr`` and when the test ends."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    monkeypatch = request.getfixturevalue("monkeypatch")
    setattr_ = monkeypatch.setattr

    def setattr_and_clear(*args, **kwargs):
        setattr_(*args, **kwargs)
        gns.gram_schmidt_basis.cache_clear()

    monkeypatch.setattr = setattr_and_clear
    gns.gram_schmidt_basis.cache_clear()
    yield
    gns.gram_schmidt_basis.cache_clear()
