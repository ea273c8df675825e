"""Immutable simple graphs with exact bitset adjacency.

Vertices are labeled 0..n-1.  Adjacency is stored as one Python int per
vertex (bit u of ``adj[v]`` set iff u ~ v), so every set operation is
exact and graphs of a few hundred vertices are cheap.  All iteration
orders are ascending by vertex id, making every derived quantity
reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from struct import Struct
from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask``, by
    smallest vertex.  A component stops growing once it holds every
    vertex of ``mask`` not in an earlier one."""
    comps = []
    left = mask
    while left:
        comp = frontier = left & -left
        while frontier and comp != left:
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


def triangles(adj: Sequence[int], verts: int) -> list[tuple[int, int, int]]:
    """The triangles ``(a, b, c)``, ``a < b < c``, of the subgraph induced
    on the vertex set ``verts``, in lexicographic order."""
    return [(a, b, c) for a in bits(verts)
            for b in bits(adj[a] & verts >> a + 1 << a + 1)
            for c in bits(adj[a] & adj[b] & verts >> b + 1 << b + 1)]


def minus_vertex_rows(adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Rows of G - v for a vertex v of G: every row but v's drops bit v
    and shifts the bits above it down by one.  ``v`` is not checked."""
    low = (1 << v) - 1
    high = ~low
    return tuple([row & low | row >> 1 & high for row in adj[:v] + adj[v + 1:]])


# -- one int per labeled graph ---------------------------------------------
#
# A key packs the rows into one int, row u in bits [u*w, u*w + n) of a
# slot of w bits, the least power of two above n and at least 8, with
# the top bit n*w set.  The top bit fixes n, so graphs with different n
# never share a key, and an int key is no container, so the caches that
# keep keys give the cyclic garbage collector nothing to track.  With
# w > n, a slot never carries into the next one, which lets the keys of
# G - v and G_v come from G's key in a few big-int steps.


def _row_bytes(n: int) -> int:
    """Bytes a row takes in the key of a graph on n vertices."""
    return 1 << max(n.bit_length() - 3, 0)


# The rows of a key on n < 64 vertices as one struct of n 1-, 2-, 4- or
# 8-byte fields, listed by n and keyed by the bytes they fill, which fix n.
_ROW_STRUCTS = [Struct(f"<{n}{'BHIQ'[_row_bytes(n).bit_length() - 1]}") for n in range(64)]
_ROW_STRUCT_OF_SIZE = {rows.size: rows for rows in _ROW_STRUCTS}
# Entries of each cache keyed by ``rows_key``: every labeled graph with
# n <= 6 fits, so a sweep of them computes each value once, and longer
# sweeps run in bounded memory.
CACHE_SIZE = 1 << 16


def rows_key(adj: Sequence[int]) -> int:
    """The key of a labeled graph, from its rows."""
    n = len(adj)
    if n < 64:
        rows = _ROW_STRUCTS[n]
        return int.from_bytes(rows.pack(*adj), "little") | 1 << 8 * rows.size
    size = _row_bytes(n)
    body = b"".join([row.to_bytes(size, "little") for row in adj])
    return int.from_bytes(body, "little") | 1 << 8 * size * n


def key_rows(key: int) -> tuple[int, ...]:
    """The rows of the labeled graph whose key is ``key``."""
    top = key.bit_length() - 1 >> 3  # n times the bytes of a row
    body = key.to_bytes(top + 1, "little")
    rows = _ROW_STRUCT_OF_SIZE.get(top)
    if rows is not None:
        return rows.unpack_from(body)
    # n >= 64, and then 4 size^2 <= top < 8 size^2 for the row size
    size = 1 << ((top >> 2).bit_length() - 1 >> 1)
    return tuple([int.from_bytes(body[i:i + size], "little") for i in range(0, top, size)])


@lru_cache(maxsize=64)
def key_layout(n: int) -> tuple[int, ...]:
    """The constants of the derived keys on n vertices: the slot width
    w; the row mask; the multiplier and slot mask of ``spread``; the
    off-diagonal bits; bit 0 of each of the n - 1 slots of G - v and
    their n - 1 low bits; and the top bit of G - v, or 0 when n - 1
    needs narrower slots.  Each is an int of about n*w bits; see
    :func:`derived_keys`."""
    w = 8 * _row_bytes(n)
    row_mask = (1 << n) - 1
    lows = sum([1 << u * w for u in range(n)])
    lows_minus = sum([1 << u * w for u in range(n - 1)])
    return (w, row_mask, sum([1 << (w - 1) * k for k in range(n)]), lows,
            lows * row_mask ^ sum([1 << u * (w + 1) for u in range(n)]),
            lows_minus, lows_minus * (row_mask >> 1),
            1 << (n - 1) * w if n and _row_bytes(n - 1) * 8 == w else 0)


def derived_keys(key: int, v: int, layout: tuple[int, ...]) -> tuple[int, int]:
    """(key of G - v, key of G_v) for a vertex v of the graph G on n
    vertices with key ``key``, where ``layout`` is ``key_layout(n)``.

    G_v ORs ``spread(N(v)) * N(v)`` into G's key, off the diagonal:
    ``spread`` moves bit u of N(v) to bit 0 of slot u with one multiply
    and one mask, since the n shifted copies of N(v) never overlap, and
    the product puts N(v) in the slot of each neighbour.  So v is
    non-free exactly when the key of G_v differs from G's.  G - v drops
    slot v by two shifts, then column v by keeping the columns below v
    and shifting those above it down one, and is repacked from the rows
    only when n - 1 needs narrower slots.
    """
    w, row_mask, spread, lows, off_diagonal, lows_minus, full_minus, top_minus = layout
    shift = v * w
    nbr = key >> shift & row_mask
    if top_minus:
        below = lows_minus * ((1 << v) - 1)
        minus = key & (1 << shift) - 1 | key >> shift + w << shift
        minus = minus & below | minus >> 1 & (full_minus ^ below) | top_minus
    else:
        minus = rows_key(minus_vertex_rows(key_rows(key), v))
    return minus, key | (nbr * spread & lows) * nbr & off_diagonal


def stripped_key(key: int, adj: Sequence[int]) -> int:
    """The key of G minus its isolated vertices, from G's key and rows;
    the isolated vertices are dropped from the highest down, so that the
    labels still to drop keep their place."""
    n = len(adj)
    for v in reversed([v for v, row in enumerate(adj) if not row]):
        key = derived_keys(key, v, key_layout(n))[0]
        n -= 1
    return key


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
    compare on ``adj``, whose length is ``n``; the invariant caches
    take :func:`rows_key`.  No per-instance dict.
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
        smallest surviving old label.
        """
        return self._restrict(self.full_mask() & ~self._vertex_mask(drop))

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
        rows = list(self.adj)
        nbr = left = rows[v]
        while left:
            low = left & -left
            left ^= low
            rows[low.bit_length() - 1] |= nbr ^ low
        return Graph(self.n, tuple(rows))

    # -- vertex predicates and counts ----------------------------------

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
