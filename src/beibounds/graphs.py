"""Immutable simple graphs with exact bitset adjacency.

Vertices are labeled 0..n-1.  Adjacency is stored as one Python int per
vertex (bit u of ``adj[v]`` set iff u ~ v), so every set operation is
exact and graphs of a few hundred vertices are cheap.  All iteration
orders are ascending by vertex id, making every derived quantity
reproducible.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask``, by smallest vertex."""
    comps = []
    left = mask
    while left:
        comp = frontier = left & -left
        while frontier:
            grown = comp
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown |= adj[low.bit_length() - 1]
            grown &= mask
            frontier = grown & ~comp
            comp = grown
        comps.append(comp)
        left &= ~comp
    return comps


def relabel(masks: Iterable[int], kept: int) -> list[int]:
    """Each mask's bits inside ``kept``, the i-th lowest of ``kept`` moved to bit i."""
    pos = {b: 1 << i for i, b in enumerate(bits(kept))}
    return [sum([pos[b] for b in bits(m & kept)]) for m in masks]


def minimalize(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal elements of a set of bitmasks, ascending."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def minus_vertex_rows(adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Rows of G - v for a vertex v of G: every row but v's drops bit v
    and shifts the bits above it down by one.  ``v`` is not checked."""
    low = (1 << v) - 1
    high = ~low
    return tuple([row & low | row >> 1 & high for row in adj[:v] + adj[v + 1:]])


def saturate_rows(adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Rows of G_v for a vertex v of G: the neighborhood of v completed
    into a clique.  ``v`` is not checked."""
    rows = list(adj)
    nbr = left = rows[v]
    while left:
        low = left & -left
        left ^= low
        rows[low.bit_length() - 1] |= nbr ^ low
    return tuple(rows)


def canonical_rows(adj: Sequence[int]) -> tuple[int, ...]:
    """Rows of a canonical relabelling: two graphs get the same rows
    exactly when they are isomorphic.

    Vertex colours start equal, and each round recolours a vertex by
    the rank of (its colour, its neighbours' sorted colours), until the
    number of colours stops growing.  The ranks do not depend on the
    labelling, so the refined cells, in colour order, are the same for
    every relabelling.  The rows are the least tuple over the vertex
    orders that list the cells in that order, each cell in any order.
    That is the product of the cells' factorials, up to n! orders on a
    regular graph, so the relabelling is for small graphs only.
    """
    n = len(adj)
    nbrs = [list(bits(row)) for row in adj]
    colour = [0] * n
    while True:
        sig = [(colour[v], tuple(sorted([colour[u] for u in nbrs[v]]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        done = len(rank) == len(set(colour))
        colour = [rank[s] for s in sig]
        if done:
            break
    cells = [[v for v in range(n) if colour[v] == c] for c in range(len(rank))]
    best = None
    pos = [0] * n
    for parts in product(*map(permutations, cells)):
        order = [v for part in parts for v in part]
        for i, v in enumerate(order):
            pos[v] = 1 << i
        rows = tuple([sum([pos[u] for u in nbrs[v]]) for v in order])
        if best is None or rows < best:
            best = rows
    return best


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered pair to (min, max)."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Immutable: assigning or deleting ``n`` or ``adj`` raises
    AttributeError, and every transformation returns a new graph.
    ``adj[v]`` is the neighborhood of v as a bitmask.  Graphs hash and
    compare on ``adj``, whose length is ``n``, so they are the keys of
    the invariant caches.  No per-instance dict.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        _set_n(self, n)
        _set_adj(self, adj)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to Graph.{name}: graphs are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete Graph.{name}: graphs are immutable")

    def __reduce__(self) -> tuple[type, tuple[int, tuple[int, ...]]]:
        # pickle and copy rebuild through __init__: their default sets slots by setattr
        return Graph, (self.n, self.adj)

    def __hash__(self) -> int:
        return hash(self.adj)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered vertex pairs (duplicates collapse)."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    # -- basic queries ------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> int:
        """Neighborhood of v as a bitmask."""
        self._check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        return self.neighbors(v).bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def is_clique(self, mask: int) -> bool:
        """True iff the vertices of ``mask`` are pairwise adjacent."""
        adj = self.adj
        left = mask
        while left:
            low = left & -left
            left ^= low
            if mask & ~(adj[low.bit_length() - 1] | low):
                return False
        return True

    # -- transformations ----------------------------------------------

    def induced_delete(self, drop: Iterable[int]) -> "Graph":
        """Induced subgraph on the complement of ``drop``, relabeled.

        Survivors keep their relative order: new label i is the i-th
        smallest surviving old label (see :meth:`deletion_map`).
        """
        return self._restrict(self.full_mask() & ~self._vertex_mask(drop))

    def deletion_map(self, drop: Iterable[int]) -> list[int]:
        """new label -> old label map of :meth:`induced_delete`."""
        return list(bits(self.full_mask() & ~self._vertex_mask(drop)))

    def _restrict(self, keep: int) -> "Graph":
        adj = self.adj
        return Graph(keep.bit_count(), tuple(relabel([adj[v] for v in bits(keep)], keep)))

    def minus_vertex(self, v: int) -> "Graph":
        """``induced_delete((v,))``, in one pass over the rows (see
        :func:`minus_vertex_rows`)."""
        self._check_vertex(v)
        return Graph(self.n - 1, minus_vertex_rows(self.adj, v))

    def saturate(self, v: int) -> "Graph":
        """Complete the neighborhood of v into a clique; keep all edges."""
        self._check_vertex(v)
        return Graph(self.n, saturate_rows(self.adj, v))

    def strip_isolated(self) -> "Graph":
        isolated = self.isolated_vertices()
        return self.induced_delete(isolated) if isolated else self

    # -- vertex predicates and counts ----------------------------------

    def is_free_vertex(self, v: int) -> bool:
        """True iff N(v) induces a complete graph (vacuously for deg <= 1)."""
        return self.is_clique(self.neighbors(v))

    def nonfree_mask(self) -> int:
        """The non-free vertices as a bitmask, in one pass over the rows:
        v is non-free iff some neighbour u misses another neighbour of v,
        that is iff v is the middle of an induced P3."""
        adj = self.adj
        mask = 0
        for v, row in enumerate(adj):
            left = row
            while left:
                low = left & -left
                left ^= low
                if row & ~(adj[low.bit_length() - 1] | low):
                    mask |= 1 << v
                    break
        return mask

    def internal_vertex_count(self) -> int:
        """Number of non-free vertices."""
        return self.nonfree_mask().bit_count()

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.adj[v]]

    # -- components -----------------------------------------------------

    def component_masks(self) -> list[int]:
        """Connected components as bitmasks, ordered by smallest vertex."""
        return components(self.adj, self.full_mask())

    def component_subgraphs(self) -> list[tuple["Graph", Sequence[int]]]:
        """Each connected component as its own induced subgraph (labels
        ascending, as in :meth:`induced_delete`) with the map back to
        this graph's labels, at a cost linear in the component's size."""
        comps = self.component_masks()
        if len(comps) == 1:
            # most graphs of a sweep; relabeling would double reg's split cost
            return [(self, range(self.n))]
        return [(self._restrict(comp), list(bits(comp))) for comp in comps]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1

    def completes_decomposition(self) -> list[int] | None:
        """Component sizes if every component is complete, else None."""
        sizes = []
        for mask in self.component_masks():
            if not self.is_clique(mask):
                return None
            sizes.append(mask.bit_count())
        return sizes

    def _vertex_mask(self, vs: Iterable[int]) -> int:
        mask = 0
        for v in vs:
            self._check_vertex(v)
            mask |= 1 << v
        return mask


# The slot descriptors' own setters: ``Graph.__init__`` writes through
# these, since ``Graph.__setattr__`` refuses every assignment.
_set_n = Graph.n.__set__
_set_adj = Graph.adj.__set__
