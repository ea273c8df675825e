import pytest

from beibounds import invariants, regularity

# budget constant -> its module and the caches of the values it bounds
_BUDGETS = {
    "NODE_BUDGET": (invariants, (invariants._eta_cached,)),
    "SCAN_BUDGET": (regularity, (regularity._component_regularity,
                                 regularity._component_value)),
}


@pytest.fixture
def set_budget(monkeypatch):
    """``set_budget(name, value)`` sets ``invariants.NODE_BUDGET`` or
    ``regularity.SCAN_BUDGET`` for the test and clears the caches its
    searches fill, so no value cached under another budget hides a
    raise.  ``verify --jobs`` workers fork, so they see the budget too."""
    def set_to(name: str, value: int) -> None:
        module, caches = _BUDGETS[name]
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(module, name, value)
    return set_to


@pytest.fixture
def clique_mask_calls(monkeypatch):
    """The rows of each ``invariants._clique_masks`` call the test makes,
    in order, after ``_eta_cached.cache_clear()``, so every eta is a
    miss that shows whether it lists cliques."""
    calls = []
    real = invariants._clique_masks
    monkeypatch.setattr(invariants, "_clique_masks", lambda adj: calls.append(adj) or real(adj))
    invariants._eta_cached.cache_clear()
    return calls
