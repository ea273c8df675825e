import pytest

from beibounds import invariants, regularity

# budget constant -> its module and the cache of the values it bounds
_BUDGETS = {
    "NODE_BUDGET": (invariants, invariants._eta_cached),
    "SCAN_BUDGET": (regularity, regularity._component_regularity),
}


@pytest.fixture
def set_budget(monkeypatch):
    """``set_budget(name, value)`` sets ``invariants.NODE_BUDGET`` or
    ``regularity.SCAN_BUDGET`` for the test and clears the cache its
    searches fill, so no value cached under another budget hides a
    raise.  ``verify --jobs`` workers fork, so they see the budget too."""
    def set_to(name: str, value: int) -> None:
        module, cache = _BUDGETS[name]
        cache.cache_clear()
        monkeypatch.setattr(module, name, value)
    return set_to
