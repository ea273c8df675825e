"""Machine checks for the compatibility conditions, the internal-vertex
drop lemma, the regularity recursion inequality, and the full bound
chain L <= reg <= eta <= c.

A map phi: graphs -> non-negative integers is compatible when
  (a) phi(G minus isolated vertices) <= phi(G);
  (b) phi(G) >= t when G is exactly a disjoint union of t complete
      graphs, each on at least 2 vertices;
  (c) whenever G has a non-free vertex, some vertex v satisfies
      phi(G - v) <= phi(G) and phi(G_v) < phi(G).
Any compatible map bounds the regularity of the binomial edge ideal
from above, so these checks plus the regularity oracle machine-verify
the chain on whole corpora.

Condition (c) and its strong per-vertex form both read one table per
graph: (v, phi(G - v), phi(G_v)) over the non-free vertices v.
Condition (c) alone reads the rows up to its first witness; the strong
form, asked for with the eta map, reads them all, and one pass then
serves both.  Free vertices are left out because neither check can use
them: for a free v the neighbourhood is already a clique, so G_v = G
and phi(G_v) < phi(G) fails for every map, and the strong form asks
only about non-free vertices.  The conditions are settled in one place
after the rows are read, and a report holds at most one failed
condition, in its counterexample; its pass flags are read off that.

Every map is read by one int per labeled graph (a :class:`KeyedMap`):
G is packed once, and one flat loop over the non-free vertices derives
the keys of G - v and G_v from G's and reads their values, as it
derives the keys of G minus its isolated vertices and, for a (c)
counterexample, of G - v at each free vertex, with no graph or row
built.  Any other map is wrapped as a KeyedMap whose lookup unpacks
each key into a ``Graph`` for it.

The bound chain reads L, eta, c and reg from the same caches by G's
key, so a corpus pays each search once per labeled graph, and a cached
L, c or reg is served whatever the budget, as eta is.  Where no graph
repeats that costs memory, bounded by each cache's 65,536 entries:
``verify chain --exhaustive 6`` peaks at 29.1 MB of RSS, 22.3 MB with L
and c uncached.  :func:`recursion_failures` and
:func:`iv_lemma_failures` check the regularity recursion and the
iv-lemma per graph: each packs G once and reads reg, or the non-free
vertex count, of G_v, G - v and G_v - v at each non-free v by keys
derived from G's, with no graph built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index
from typing import Callable, Iterator, Optional

from .errors import ResourceLimitError
from .graphs import (
    CACHE_SIZE,
    Graph,
    bits,
    derived_keys,
    key_layout,
    key_rows,
    rows_key,
    stripped_key,
)
from .invariants import _eta_cached, longest_induced_path, maximal_cliques
from .invariants import eta  # noqa: F401  (perfbench/tracer.py wraps it here)
from .regularity import _reg_cached
from .regularity import regularity_bei  # noqa: F401  (perfbench/tracer.py wraps it here)

InvariantMap = Callable[[Graph], int]


class KeyedMap:
    """A map read by the key of a labeled graph (:func:`graphs.rows_key`):
    ``lookup(key)`` is the entry of one cache and ``value(entry)`` the
    map's value.  For the named maps both are C functions, so a cache hit
    runs no Python frame.  ``of_key(key)`` is the value, and calling the
    map on a ``Graph`` packs its rows first.  ``cache_info`` and
    ``cache_clear`` reach the cache.  ``check_compatibility`` packs each
    graph once and reads G - v and G_v by keys derived from G's, with no
    rows built.
    """

    __slots__ = ("lookup", "value")

    def __init__(self, lookup: Callable[[int], int], value: Callable[[int], int] = index):
        self.lookup = lookup
        self.value = value

    def of_key(self, key: int) -> int:
        return self.value(self.lookup(key))

    def __call__(self, g: Graph) -> int:
        return self.of_key(rows_key(g.adj))

    def cache_info(self):
        return self.lookup.cache_info()

    def cache_clear(self) -> None:
        self.lookup.cache_clear()


# eta's size: the popcount of its witness bits in its one cache (see
# :func:`invariants.eta`)
eta_value = KeyedMap(_eta_cached, int.bit_count)
# reg's value in its one cache (see :func:`regularity._reg_cached`)
reg_value = KeyedMap(_reg_cached)


def clique_count_value(g: Graph) -> int:
    return len(maximal_cliques(g))


def induced_path_value(g: Graph) -> int:
    return longest_induced_path(g)[0]


def _graph_lookup(phi: InvariantMap) -> Callable[[int], int]:
    """phi read by key: the key's rows are unpacked into a ``Graph`` for
    phi, with no cache."""
    def of_key(key: int) -> int:
        rows = key_rows(key)
        return phi(Graph(len(rows), rows))
    return of_key


def memoized(phi: InvariantMap) -> KeyedMap:
    """Cache phi by labeled graph in a bounded LRU cache; sweeps revisit
    derived graphs a lot.

    The cache wraps the lookup that :func:`check_compatibility` gives a
    plain map: it is keyed by :func:`graphs.rows_key`, one int that
    identifies a labeled graph exactly, so it holds no ``Graph`` or row
    tuple, and a miss unpacks the rows into a ``Graph`` for phi.  Each
    call makes a new cache.  ``eta_value`` and ``reg_value`` need none:
    each reads its invariant's own cache.
    """
    return KeyedMap(lru_cache(maxsize=CACHE_SIZE)(_graph_lookup(phi)))


# One process-wide cache per map: eta's lives in ``invariants``.
NAMED_MAPS: dict[str, KeyedMap] = {
    "eta": eta_value,
    "clique-count": memoized(clique_count_value),
    "induced-path": memoized(induced_path_value),
}
# The non-free vertex count, which ``iv_lemma_failures`` reads.
iv_value = memoized(Graph.internal_vertex_count)


@dataclass
class CompatibilityReport:
    """At most one condition fails: ``counterexample["condition"]``
    names it, and the pass flags are read off it."""

    values: dict
    witness_vertex: Optional[int] = None
    counterexample: Optional[dict] = None
    strong_failures: Optional[list] = None

    def _holds(self, condition: str) -> bool:
        return self.counterexample is None or self.counterexample["condition"] != condition

    passed = property(lambda self: self.counterexample is None)
    pass_a = property(lambda self: self._holds("a"))
    pass_b = property(lambda self: self._holds("b"))
    pass_c = property(lambda self: self._holds("c"))


def check_compatibility(phi: InvariantMap, g: Graph, strong: bool = False) -> CompatibilityReport:
    """Evaluate conditions (a), (b), (c) for one map on one graph.

    G is packed once and every value is read by a key derived from G's
    (see :func:`graphs.derived_keys`); a map that is not a
    :class:`KeyedMap` is called, uncached, on a ``Graph`` unpacked from
    each key.  One mask of the non-free vertices serves (b) and (c).  A
    graph with none has no induced P3, so every component is complete
    (two vertices at distance 2 would end one); (b) then applies exactly
    when it has a vertex and no isolated one, with t its component count.
    phi(G) and phi of G minus its isolated vertices are read first, then
    the rows (v, phi(G - v), phi(G_v)) of the non-free vertices in
    ascending order, up to the first witness of (c) unless ``strong`` is
    set, and none when (a) fails and ``strong`` is not.  One branch
    chain then settles the report: (a) fails, else (b) applies, else (c)
    has a witness, else (c) fails where G has a non-free vertex.  A
    failing condition attaches a structured counterexample with the
    offending values; that of (c) reuses the rows read and reads
    phi(G - v) only for the free vertices.  With ``strong`` every row is
    read, and ``strong_failures`` holds the strong per-vertex form's
    violations (see :func:`nonfree_vertex_failures`) whatever the
    conditions give; otherwise it stays None.
    """
    if not isinstance(phi, KeyedMap):
        phi = KeyedMap(_graph_lookup(phi))
    lookup, value = phi.lookup, phi.value
    adj, n = g.adj, g.n
    nonfree = g.nonfree_mask()
    key = rows_key(adj)
    phi_g = phi_hat = value(lookup(key))
    if 0 in adj:
        phi_hat = value(lookup(stripped_key(key, adj)))
    witness = None
    failed = []
    if strong or phi_hat <= phi_g:
        layout = key_layout(n)
        left = nonfree
        while left:
            low = left & -left
            left ^= low
            v = low.bit_length() - 1
            minus, sat = derived_keys(key, v, layout)
            minus = value(lookup(minus))
            sat = value(lookup(sat))
            if minus > phi_g or sat >= phi_g:
                failed.append((v, minus, sat))
            elif witness is None:
                witness = v, minus, sat
                if not strong:
                    break
    report = CompatibilityReport({"phi": phi_g, "phi_hat": phi_hat})
    if strong:
        report.strong_failures = [
            {"v": v, "phi": phi_g, "phi_minus": minus, "phi_saturated": sat}
            for v, minus, sat in failed
        ]
    if phi_hat > phi_g:
        report.counterexample = {"condition": "a", "phi": phi_g, "phi_without_isolated": phi_hat}
    elif not nonfree and n and 0 not in adj:
        t = report.values["union_components"] = len(g.component_masks())
        if phi_g < t:
            report.counterexample = {"condition": "b", "phi": phi_g, "components": t}
    elif witness is not None:
        (report.witness_vertex, report.values["phi_minus_witness"],
         report.values["phi_saturated_witness"]) = witness
    elif nonfree:
        # (a) held, so every non-free row was read, and failed; only a
        # free v's phi(G - v) is new: it has G_v = G
        seen = {v: (minus, sat) for v, minus, sat in failed}
        per_vertex = []
        for v in range(n):
            minus, sat = seen.get(v) or (value(lookup(derived_keys(key, v, layout)[0])), phi_g)
            per_vertex.append({"v": v, "phi_minus": minus, "phi_saturated": sat})
        report.counterexample = {"condition": "c", "phi": phi_g, "per_vertex": per_vertex}
    return report


def nonfree_vertex_failures(phi: InvariantMap, g: Graph) -> list[dict]:
    """Condition (c) in its strong per-vertex form.

    For every non-free v the inequalities phi(G-v) <= phi(G) and
    phi(G_v) < phi(G) must hold; returns one record per violation, the
    ``strong_failures`` of :func:`check_compatibility`.
    """
    return check_compatibility(phi, g, strong=True).strong_failures


def iv_lemma_failures(g: Graph) -> Iterator[int]:
    """The non-free vertices v of G, ascending, at which the non-free
    vertex count iv fails to drop strictly:
    max(iv(G_v), iv(G - v), iv(G_v - v)) >= iv(G).  G is packed once,
    and each iv is read from ``iv_value`` by a key derived from G's."""
    key, layout = rows_key(g.adj), key_layout(g.n)
    iv = iv_value.of_key
    nonfree = g.nonfree_mask()
    iv_g = nonfree.bit_count()
    for v in bits(nonfree):
        minus, sat = derived_keys(key, v, layout)
        if max(iv(sat), iv(minus), iv(derived_keys(sat, v, layout)[0])) >= iv_g:
            yield v


def recursion_failures(g: Graph) -> Iterator[int]:
    """The non-free vertices v of G, ascending, at which
    reg(G) <= max(reg(G_v), reg(G - v), reg(G_v - v) + 1) fails; at a
    free v, G_v = G and it holds.  G is packed once, and each reg is
    read from ``reg_value`` by a key derived from G's.  reg(G) is read
    first, so a graph past the scan budget raises even when every vertex
    is free, and the vertices yielded before a raise stand."""
    key, layout = rows_key(g.adj), key_layout(g.n)
    reg = reg_value.of_key
    reg_g = reg(key)
    for v in bits(g.nonfree_mask()):
        minus, sat = derived_keys(key, v, layout)
        if reg_g > max(reg(sat), reg(minus), reg(derived_keys(sat, v, layout)[0]) + 1):
            yield v


def is_path_graph(g: Graph) -> bool:
    """Connected with max degree <= 2 and no cycle (includes K_1, K_2);
    the component walk comes last, as most graphs fail the counts."""
    return (g.edge_count() == g.n - 1 and all(row.bit_count() <= 2 for row in g.adj)
            and g.is_connected())


@dataclass
class BoundChainReport:
    """Values of the chain, None where a resource cap stopped one (its
    message is in ``skipped``, keyed "L", "eta" or "reg") or where reg
    was not asked for."""

    n: int
    length_sum: Optional[int]
    eta: Optional[int]
    clique_count: int
    reg: Optional[int] = None
    flags: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations


def bound_chain(g: Graph, with_reg: bool = True) -> BoundChainReport:
    """Exact values of L, eta, c (and reg when asked for) plus every
    inequality of the chain between the values computed.  A value whose
    search or scan hits a resource cap is skipped, with the checks and
    flags that need it, rather than failing the run.  L, eta and c are
    read by g's key from the ``NAMED_MAPS`` caches that ``verify
    compatible`` reads too, and reg from ``reg_value`` by the same key, so
    a cached value is served whatever the budget, and one past it is not
    cached."""
    key = rows_key(g.adj)
    # eta, then L, then reg: ``search`` reports the first skip, and
    # ``cli.invariant_record`` meets the caps in this order
    skipped: dict[str, str] = {}
    try:
        eta_g: Optional[int] = NAMED_MAPS["eta"].of_key(key)
    except ResourceLimitError as exc:
        eta_g, skipped["eta"] = None, str(exc)
    try:
        length_sum: Optional[int] = NAMED_MAPS["induced-path"].of_key(key)
    except ResourceLimitError as exc:
        length_sum, skipped["L"] = None, str(exc)
    c_g = NAMED_MAPS["clique-count"].of_key(key)
    reg: Optional[int] = None
    if with_reg:
        try:
            reg = reg_value.of_key(key)
        except ResourceLimitError as exc:
            skipped["reg"] = str(exc)
    # (name, lhs, rhs): lhs <= rhs must hold, and lhs = rhs is a flag
    checks = [("L<=eta", length_sum, eta_g), ("eta<=c", eta_g, c_g)]
    flags = [("L=eta", length_sum, eta_g), ("L=c", length_sum, c_g), ("eta=c", eta_g, c_g)]
    if reg is not None:
        checks += [("L<=reg", length_sum, reg), ("reg<=eta", reg, eta_g),
                   ("reg<=n-1", reg, g.n - 1 if g.n else 0)]
        if g.n and g.is_connected() and not is_path_graph(g):
            checks.append(("reg<=n-2", reg, g.n - 2))
        flags += [("reg=eta", reg, eta_g), ("reg=L", reg, length_sum)]
    return BoundChainReport(
        g.n, length_sum, eta_g, c_g, reg,
        flags={name: a == b for name, a, b in flags if a is not None and b is not None},
        violations=[{"inequality": name, "lhs": a, "rhs": b}
                    for name, a, b in checks if a is not None and b is not None and a > b],
        skipped=skipped,
    )
