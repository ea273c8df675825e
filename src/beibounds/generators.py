"""Graph constructors: classic families, named 6-vertex graphs, the
triforce-subdivision family, seeded random graphs, and exhaustive
labeled-graph streams.

Every generator is deterministic given its arguments (including the
seeded G(n, p) sampler), so corpora are bit-reproducible.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from .graphs import Graph, triangles

SIERPINSKI_MAX_LEVEL = 6
ALL_LABELED_MAX_N = 7


def path(n: int) -> Graph:
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edge_list(n, list(combinations(range(n), 2)))


def union(parts: list[Graph]) -> Graph:
    """Disjoint union; part k's vertices are shifted past parts 0..k-1."""
    n = sum(g.n for g in parts)
    edges = []
    offset = 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph.from_edge_list(n, edges)


def net() -> Graph:
    """Triangle 0-1-2 with pendant vertices 3, 4, 5 hung on 0, 1, 2."""
    return Graph.from_edge_list(
        6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]
    )


def fig2_closed() -> Graph:
    """6-vertex proper interval graph whose maximal cliques are
    {0,4,5}, {0,1,4}, {1,3,4}, {1,2,3}."""
    return Graph.from_edge_list(
        6,
        [(0, 5), (4, 5), (0, 4), (0, 1), (1, 4), (1, 3), (3, 4), (1, 2), (2, 3)],
    )


def sierpinski(level: int) -> Graph:
    """Triforce-subdivision family.

    Level 1 is the triangle subdivided at its side midpoints (the
    "triforce": corners 0,1,2; midpoints 3=m01, 4=m02, 5=m12).  Each
    further level subdivides every triangle of the previous graph the
    same way: one new midpoint per edge (shared edges share their
    midpoint, numbered after the existing vertices in sorted edge
    order), half-edges replace each edge, and the three midpoints of
    each triangle are joined.
    """
    if not (1 <= level <= SIERPINSKI_MAX_LEVEL):
        raise ValueError(f"sierpinski level must be in 1..{SIERPINSKI_MAX_LEVEL}")
    g = Graph.from_edge_list(
        6, [(0, 3), (1, 3), (0, 4), (2, 4), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)]
    )
    for _ in range(level - 1):
        g = _subdivide_triangles(g)
    return g


def _subdivide_triangles(g: Graph) -> Graph:
    midpoint = {e: g.n + k for k, e in enumerate(g.edges())}
    edges = [half for (u, v), m in midpoint.items() for half in ((u, m), (m, v))]
    for a, b, c in triangles(g.adj, g.full_mask()):
        mab, mac, mbc = midpoint[a, b], midpoint[a, c], midpoint[b, c]
        edges += [(mab, mac), (mab, mbc), (mac, mbc)]
    return Graph.from_edge_list(g.n + len(midpoint), edges)


def gnp(n: int, p_num: int, p_den: int, seed: int) -> Graph:
    """Erdos-Renyi sample, fully determined by the seed.

    Each pair (u, v), iterated in lexicographic order, is an edge iff
    the next draw of ``randrange(p_den)`` is below ``p_num``; integer
    arithmetic keeps this platform-independent.
    """
    if not (0 <= p_num <= p_den) or p_den <= 0:
        raise ValueError("edge probability must satisfy 0 <= p_num <= p_den")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.randrange(p_den) < p_num]
    return Graph.from_edge_list(n, edges)


def all_labeled(n: int) -> Iterator[Graph]:
    """Stream all 2^C(n,2) labeled graphs on n vertices.

    Bit k of the enumeration index is the k-th pair in lexicographic
    order.  Each graph's rows are the last one's with the changed pairs
    toggled.  No isomorphism reduction; capped at n <= 7.
    """
    if n > ALL_LABELED_MAX_N:
        raise ValueError(f"all_labeled capped at n={ALL_LABELED_MAX_N}")
    pairs = list(combinations(range(n), 2))
    rows = [0] * n
    yield Graph(n, tuple(rows))
    for mask in range(1, 1 << len(pairs)):
        # from mask - 1 to mask, pairs 0..k flip, k the lowest bit of mask
        for u, v in pairs[:(mask & -mask).bit_length()]:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        yield Graph(n, tuple(rows))
