import pytest

from moebius import galerkin, models


@pytest.fixture
def charges(monkeypatch):
    """The (bytes, description) pairs charged to the capacity gate, which
    still refuses a charge past the cap."""
    recorded = []
    gate = models.require_bytes

    def charge(needed, what):
        recorded.append((needed, what))
        gate(needed, what)

    monkeypatch.setattr(models, "require_bytes", charge)
    monkeypatch.setattr(galerkin, "require_bytes", charge)
    return recorded
