import pytest

from beibounds import compatibility, invariants, regularity
from beibounds.graphs import Graph, key_rows

# budget constant -> its module and the caches of the values it bounds
_BUDGETS = {
    "NODE_BUDGET": (invariants, (invariants._eta_cached,
                                 compatibility.NAMED_MAPS["induced-path"])),
    "SCAN_BUDGET": (regularity, (regularity._reg_cached,)),
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


@pytest.fixture
def component_scans(monkeypatch):
    """The graph of each scan the test makes, that is of each
    ``regularity._component_regularity`` call, in order, after
    ``_reg_cached.cache_clear()``, so every reg read is a miss until its
    value is cached again."""
    scans = []
    real = regularity._component_regularity
    monkeypatch.setattr(regularity, "_component_regularity",
                        lambda g: scans.append(g) or real(g))
    regularity._reg_cached.cache_clear()
    return scans


@pytest.fixture
def patch_map(monkeypatch):
    """``patch_map(name, phi)`` puts a map that caches nothing in place of
    ``NAMED_MAPS[name]``, or of ``compatibility.reg_value`` when ``name``
    is ``"reg"``, for the test: on a labeled graph g it gives
    ``phi(g, real)``, where ``real`` is the map it replaces, so no value
    it makes outlives the test.  ``bound_chain`` reads L, eta and c
    there, it and ``recursion_failures`` read reg there, and ``verify
    --jobs`` workers fork, so they see it too."""
    def patch(name: str, phi) -> None:
        real = compatibility.reg_value if name == "reg" else compatibility.NAMED_MAPS[name]

        def of_key(key: int) -> int:
            rows = key_rows(key)
            return phi(Graph(len(rows), rows), real)
        keyed = compatibility.KeyedMap(of_key)
        if name == "reg":
            monkeypatch.setattr(compatibility, "reg_value", keyed)
        else:
            monkeypatch.setitem(compatibility.NAMED_MAPS, name, keyed)
    return patch
