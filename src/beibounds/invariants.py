"""Exact graph invariants: maximal-clique count, clique-disjoint edge
sets (eta), longest induced paths, and the constructive one-step
extension that grows a clique-disjoint set of the saturated graph G_v
into a strictly larger one of G.

One Bron-Kerbosch routine finds the maximal cliques as vertex
bitmasks; ``maximal_cliques`` is its view as sorted vertex tuples, and
eta reads the bitmasks directly when it needs them.

Two edges "conflict" when their endpoint union induces a complete
subgraph, that is when some maximal clique holds both.  So eta is a
maximum set packing of the edges' clique sets (the maximal cliques
through each edge).  Swapping a packed edge for one whose clique set is
a subset of its own keeps the packing clique-disjoint, so eta only looks
at the inclusion-minimal clique sets, one edge for each.  An edge lies
in a single maximal clique iff its endpoints' common neighbourhood is a
clique, so these singleton sets come from the rows in one pass over the
edges.  They meet no other minimal set, so every one is packed.  When
every other edge lies in one of those cliques, they are the whole
packing, and Bron-Kerbosch does not run.  Otherwise it lists the
cliques, numbered in ``maximal_cliques`` order, the edges in no
singleton clique get their clique sets, and an exact maximum
independent set solver (memoized branching, degree <= 1 reductions,
component splitting) packs their minimal sets.  Each solver call takes
a threshold ``need`` and is exact only when the optimum reaches it;
below that it may stop at an upper bound, the size of a greedy clique
cover.  The include branch runs first and sets the exclude branch's
threshold just above its own result, so the bound prunes without
changing any choice, and the witnesses are those of the unbounded
search.  The edge-level conflict graph is kept as an independent
reference for the tests.

The longest induced path of each component comes from a depth-first
search that walks each induced path once, from its first vertex in a
smallest-last order and over the vertices not yet rooted: each root is
a vertex of least degree among those, so later roots search smaller
graphs.  One side of the path grows first, and at each of its nodes the
other side may start.  One node routine serves the nodes with a start
left, and a leaner one the one-sided nodes, where none is left; most
nodes are one-sided.  Each search node computes its available set and
its counting bound once for all its children, and settles the children
that cannot grow without entering them: a one-sided child is entered
only when its count bound beats the best length.  One admissible
correction, a few big-int operations per node, tightens the count: an
induced path holds at most two vertices of each triangle of a
least-overlap greedy packing of the unrooted vertices (kept in bit
planes, built at the node where the search outgrows its cost and again
after each later root that breaks a packed triangle, from one list of
triangles).  It never prunes the first longest path, so the witnesses
are the count bound's, each written smaller end first.

Both searches count their nodes against one module constant,
``NODE_BUDGET``, read at call time, and raise ResourceLimitError past
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ResourceLimitError
from .graphs import (
    CACHE_SIZE, Graph, bits, components, edge, key_rows, minimalize, rows_key, triangles,
)

# Search nodes each eta or L call may visit before it raises.
NODE_BUDGET = 5_000_000
# Expanded search nodes after which a component's induced-path search
# packs triangles: the node past them builds the packing, mid-search,
# and each later root that breaks a packed triangle builds it again.  A
# build costs a few hundred nodes' worth of time (about 250 on
# sierpinski(3)) and saves little on random graphs, so building it
# sooner slows them.
_PACK_AFTER = 3000


# -- maximal cliques ----------------------------------------------------


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques (isolated vertices count, as 1-cliques),
    sorted by vertex tuple, so the count and order are reproducible."""
    return sorted([tuple(bits(c)) for c in _clique_masks(g.adj)])


def _clique_masks(adj: Sequence[int]) -> list[int]:
    """The maximal cliques as vertex bitmasks, in discovery order:
    Bron-Kerbosch with max-intersection pivoting.  A node's children
    depend only on its own sets, so they go on a stack, not the call
    stack."""
    out: list[int] = []
    stack = [(0, (1 << len(adj)) - 1, 0)] if adj else []
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        pivot = -1
        best = -1
        left = p | x
        while left:
            low = left & -left
            left ^= low
            u = low.bit_length() - 1
            score = (adj[u] & p).bit_count()
            if score > best:
                best, pivot = score, u
        left = p & ~adj[pivot]
        while left:
            low = left & -left
            left ^= low
            nbr = adj[low.bit_length() - 1]
            stack.append((r | low, p & nbr, x & nbr))
            p ^= low
            x |= low
    return out


# -- edge conflict relation ---------------------------------------------


def in_common_clique(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """True iff some clique of g contains both edges: the pair is not
    clique-disjoint (:func:`is_clique_disjoint`), and an edge shares a
    clique with itself.  A non-edge raises ``ValueError``."""
    return not is_clique_disjoint(g, (e, f))


def _require_edge(g: Graph, e: tuple[int, int]) -> tuple[int, int]:
    u, v = edge(*e)
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    return u, v


@dataclass(frozen=True)
class ConflictGraph:
    """Edges of a source graph, adjacent iff they share a clique."""

    edge_index: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]

    def n(self) -> int:
        return len(self.edge_index)


def conflict_graph(g: Graph) -> ConflictGraph:
    es = g.edges()
    masks = [1 << u | 1 << v for u, v in es]
    adj = [0] * len(es)
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if g.is_clique(masks[i] | masks[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return ConflictGraph(tuple(es), tuple(adj))


# -- exact maximum independent set ---------------------------------------


class _MisSolver:
    """Exact MIS by branch and bound with memoization.

    Reductions: vertices of degree <= 1 always join some optimum, so
    they are committed greedily, in passes over the vertices until a
    pass commits none.  Components are solved independently.  Branching
    picks the max-degree vertex (smallest index on ties), read off that
    last pass, which saw every degree; the include branch wins ties, so
    witnesses are deterministic.

    ``solve(mask, need)`` is exact whenever the optimum on ``mask``
    reaches ``need``; otherwise it may return an upper bound below
    ``need`` and no witness (None).  A greedy clique cover bounds the
    optimum from above, since an independent set holds at most one
    vertex of each clique.  The include branch runs with ``need - 1``
    and the exclude branch with ``max(need, s_in + 2)``: exclude must
    beat include strictly to be chosen, so every exact result makes the
    choice the unbounded search makes, and the witnesses are its.  Each
    component gets the need left over after the other components'
    bounds.  ``memo`` maps a mask to its exact ``(size, witness)``, or
    to its last failed call's ``(bound, None)``, which answers any need
    above the bound.  A call with ``need <= 0`` computes no bound.
    """

    def __init__(self, adj: Sequence[int]):
        self.adj = adj
        self.nodes = 0
        self.memo: dict[int, tuple[int, int | None]] = {}

    def solve(self, mask: int, need: int) -> tuple[int, int | None]:
        cached = self.memo.get(mask)
        if cached is not None and (cached[1] is not None or cached[0] < need):
            return cached
        self.nodes += 1
        budget = NODE_BUDGET
        if self.nodes > budget:
            raise ResourceLimitError(f"independent-set search exceeded {budget} nodes")
        adj = self.adj
        taken_size = 0
        taken_mask = 0
        m = mask
        changed = True
        while changed:
            changed = False
            v = best = -1  # the max-degree vertex, the smallest on ties
            left = m
            while left:
                low = left & -left
                left ^= low
                if not m & low:
                    continue
                u = low.bit_length() - 1
                nb = adj[u] & m
                degree = nb.bit_count()
                if degree <= 1:
                    taken_size += 1
                    taken_mask |= low
                    m &= ~(nb | low)
                    changed = True
                elif degree > best:
                    best, v = degree, u
        if m:
            need -= taken_size  # what m itself must reach
            comps = components(adj, m)
            covers = [0] * len(comps)
            if need > 0:
                covers = [self._clique_cover(comp) for comp in comps]
                if sum(covers) < need:
                    return self._fail(mask, taken_size + sum(covers))
            if len(comps) > 1:
                # the bound of m, each cover replaced by the exact value
                # once its component is solved
                bound = sum(covers)
                for comp, cover in zip(comps, covers):
                    s, w = self.solve(comp, need - bound + cover)
                    bound += s - cover
                    if bound < need:
                        return self._fail(mask, taken_size + bound)
                    taken_mask |= w
                taken_size += bound
            else:
                # the last pass removed nothing, so it saw every degree of m
                s_in, w_in = self.solve(m & ~(adj[v] | 1 << v), need - 1)
                s_out, w_out = self.solve(m & ~(1 << v), max(need, s_in + 2))
                # a memoized result is exact whatever the need, so
                # compare values; the exclude set must win strictly
                if w_out is not None and s_out > s_in + 1:
                    taken_size += s_out
                    taken_mask |= w_out
                elif w_in is not None and (w_out is not None or s_in + 2 >= need):
                    taken_size += s_in + 1
                    taken_mask |= w_in | 1 << v
                else:
                    return self._fail(mask, taken_size + max(s_in + 1, s_out))
        self.memo[mask] = (taken_size, taken_mask)
        return taken_size, taken_mask

    def _fail(self, mask: int, bound: int) -> tuple[int, None]:
        self.memo[mask] = (bound, None)
        return bound, None

    def _clique_cover(self, mask: int) -> int:
        """The number of cliques in a greedy cover of ``mask``: each
        clique starts at the lowest uncovered vertex and grows by the
        lowest vertex adjacent to all its members."""
        adj = self.adj
        count = 0
        while mask:
            low = mask & -mask
            mask ^= low
            cand = adj[low.bit_length() - 1] & mask
            while cand:
                low = cand & -cand
                mask ^= low
                cand &= adj[low.bit_length() - 1]
            count += 1
        return count


# -- eta ------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueDisjointSet:
    """An edge set of a graph in which no two edges share a clique."""

    edges: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def is_clique_disjoint(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """Check that all pairs of (distinct) edges avoid common cliques."""
    masks = [1 << u | 1 << v for u, v in (_require_edge(g, e) for e in edges)]
    return not any(g.is_clique(a | b) for a, b in combinations(masks, 2))


@lru_cache(maxsize=CACHE_SIZE)
def _eta_cached(key: int) -> int:
    """The one cache of eta values and witnesses, keyed by the one int
    of a labeled graph (:func:`graphs.rows_key`).  A key is no
    container, so the cache gives the cyclic garbage collector nothing
    to track, and a hit runs no Python code, whatever the budget; a miss
    unpacks the rows, works on them and the clique bitmasks alone,
    builds no graph and spends at most ``NODE_BUDGET`` solver nodes.  A
    miss past the budget raises, and ``lru_cache`` stores no exception,
    so a failure is not cached.

    An entry is one int, the witness bits: bit ``u*n + v`` is set for
    each witness edge ``(u, v)``, ``u < v``, so eta is its
    ``bit_count()``.  A sweep holds one int per cached labeled graph, at
    most 65,536 of them, and no tuple per witness edge; ``eta`` decodes
    the bits back into edges.

    An edge ``uv`` lies in exactly one maximal clique iff its common
    neighbourhood ``C`` is a clique, and that clique is ``C + u + v``.
    So one pass over the edges, in ``(u, v)`` order, finds every
    singleton clique set with its least edge, and lists the other edges.
    A singleton set is minimal by itself, and an edge's set holds the
    singleton ``Q`` iff the edge lies in ``Q``.  So the singletons meet
    no other minimal set, and all of their least edges are in the
    witness.  When every listed edge lies in some singleton clique, they
    are the whole witness, and no clique list is built.

    Otherwise Bron-Kerbosch lists the cliques, numbered in
    ``maximal_cliques`` order, and the listed edges in no singleton
    clique, the loose ones, get clique sets.  ``_MisSolver`` runs once
    on the conflict rows of their minimal sets, in ascending order, and
    the least edge of each set it chooses joins the witness.  The budget
    counts solver nodes: a miss that lists cliques spends at least one,
    and any other miss none.
    """
    adj = key_rows(key)
    n = len(adj)
    singles: dict[int, int] = {}  # singleton clique -> bit u*n + v of its least edge
    shared = []  # (pair mask, bit u*n + v) of each edge in two or more cliques
    for u, row in enumerate(adj):
        above = row >> u + 1 << u + 1
        base = u * n
        ubit = 1 << u
        while above:
            low = above & -above
            above ^= low
            v = low.bit_length() - 1
            common = row & adj[v]
            left = common if common & common - 1 else 0  # 0 or 1 vertex: a clique
            while left:
                w = left & -left
                left ^= w
                if common & ~adj[w.bit_length() - 1] != w:
                    shared.append((ubit | low, base + v))
                    break
            else:
                singles.setdefault(common | ubit | low, base + v)
    witness = 0
    for e in singles.values():
        witness |= 1 << e
    loose = []  # the shared edges in no singleton clique
    for pair, e in shared:
        for q in singles:
            if q & pair == pair:
                break
        else:
            loose.append(e)
    if not loose:
        return witness
    in_cliques = [0] * n  # bit i: clique i, in maximal_cliques order, holds the vertex
    bit = 1
    for c in sorted(_clique_masks(adj), key=lambda c: tuple(bits(c))):
        while c:
            low = c & -c
            c ^= low
            in_cliques[low.bit_length() - 1] |= bit
        bit <<= 1
    rep: dict[int, int] = {}  # clique set -> bit u*n + v of its least edge (u, v)
    for e in loose:
        u, v = divmod(e, n)
        rep.setdefault(in_cliques[u] & in_cliques[v], e)
    sets = minimalize(rep)
    size = len(sets)
    conflicts = [0] * size
    for i, j in combinations(range(size), 2):
        if sets[i] & sets[j]:
            conflicts[i] |= 1 << j
            conflicts[j] |= 1 << i
    for i in bits(_MisSolver(conflicts).solve((1 << size) - 1, 0)[1]):
        witness |= 1 << rep[sets[i]]
    return witness


def eta(g: Graph) -> tuple[int, CliqueDisjointSet]:
    """Maximum size of a clique-disjoint edge set, with one witness.

    Solved on the inclusion-minimal edge clique sets, each standing for
    the least edge that has it; raises ResourceLimitError once the
    independent-set search visits more than ``NODE_BUDGET`` nodes.  The
    single-clique sets come from common neighbourhoods and are all
    packed; Bron-Kerbosch and the search run only when some edge lies in
    none of those cliques, on the sets of those edges.  The cache keeps
    the witness edges as one int of bits, and the size is their count.
    """
    witness = _eta_cached(rows_key(g.adj))
    return witness.bit_count(), CliqueDisjointSet(frozenset(divmod(i, g.n) for i in bits(witness)))


# -- longest induced paths -------------------------------------------------


def longest_induced_path(g: Graph) -> tuple[int, list[list[int]]]:
    """Sum over components of the longest induced path length.

    Length is the edge count; a single-vertex component contributes 0.
    Returns the sum and one witness path per component (ordered by the
    component's smallest vertex).  Raises ResourceLimitError once the
    searches of all components together expand more than
    ``NODE_BUDGET`` nodes (see :func:`_component_lip`).
    """
    total = 0
    witnesses = []
    nodes = 0
    for comp in g.component_masks():
        length, path, nodes = _component_lip(g, comp, nodes)
        total += length
        witnesses.append(path)
    return total, witnesses


def is_induced_path(g: Graph, path: Sequence[int]) -> bool:
    """True iff ``path`` lists distinct vertices and consecutive ones are
    its only adjacent pairs."""
    mask = g._vertex_mask(path)
    if mask.bit_count() != len(path):
        return False
    for k, v in enumerate(path):
        want = (1 << path[k - 1] if k else 0) | (1 << path[k + 1] if k + 1 < len(path) else 0)
        if g.adj[v] & mask != want:
            return False
    return True


def _component_lip(g: Graph, comp: int, nodes: int) -> tuple[int, list[int], int]:
    """Longest induced path of the component ``comp``, one witness, and
    the running count ``nodes`` of expanded search nodes (at most
    ``NODE_BUDGET``, else ResourceLimitError).

    Each induced path is walked once, from its first vertex ``m`` (the
    root) in a smallest-last order, over the vertices not yet rooted:
    each root is a vertex of least degree in the subgraph they induce,
    the least on ties, so later roots search less (Matula-Beck 1983).
    Side A grows first, from a neighbour ``a1`` of ``m``; a root with no
    unrooted neighbour comes only after the first root has set a best
    length of 1, and expands no node.  At a side-A
    node with path ``m a1 .. aj``, side B may start at any of its
    ``starts``: the unrooted neighbours ``b1 > a1`` of ``m`` with no
    neighbour among ``a1 .. aj``.  A node with ``starts == 0`` is
    one-sided: side B, grown on the reversed path ``aj .. a1 m b1``, or
    side A once no start is left.

    A node holds an induced path ``path[:k]`` ending at ``last`` and the
    unrooted vertices ``avail`` off the path with no path neighbour but
    ``last`` (side A's also off ``N(m)``).  Each open side adds at most
    one vertex outside ``rest = avail & ~adj[last]``, so ``k`` plus the
    size of ``rest`` bounds the length, one more while both sides are
    open (only one: a candidate and a start can be adjacent).  Each
    packed triangle wholly in ``rest`` takes one off, since an induced
    path holds two of its vertices at most.  The bound is admissible, so
    it never prunes the first longest path in the search order: the
    witness is the one the count bound alone finds, whenever the packing
    arrives, written smaller end first.

    ``grow`` expands the nodes with starts left: it sends the side-A
    children that keep a start back into ``grow``, and the one-sided
    children and then the side-B starts into ``grow1``, which expands
    the one-sided nodes and takes its ``rest`` from the parent.  A
    parent enters a one-sided child only when the child's count bound
    ``k + |rest|`` beats the best length, so each ``grow1`` call expands
    a node, save one whose ``k`` sets a new best with ``rest`` empty: it
    records the path and returns.

    Member j of packed triangle i is bit ``i + j*t`` of ``availp``,
    which mirrors ``avail`` on the ``packed`` vertices, and ``adjp[v]``
    is the plane image of ``adj[v]``, so ``restp & restp >> t & restp >>
    2t`` marks the triangles wholly in ``rest``.  The node that takes
    ``nodes`` past ``gate`` packs the unrooted vertices (``pack``, which
    lists their triangles at its first build and keeps the list's
    triangles still unrooted at each later one, in the same
    lexicographic order): the first time once the component's search has
    expanded ``_PACK_AFTER`` nodes, inside whatever root's search that
    is, and again at the first node after a root that is a packed vertex
    breaks its triangle (that root sets ``gate`` back and ``full``, the
    root's plane mask, to 0).  A frame open when the packing arrives
    holds ``restp == 0``; each child it expands next planes its own
    ``rest`` once and passes the true mask on.  Until the packing
    arrives ``t``, ``packed`` and every ``availp`` are 0.
    """
    adj = g.adj
    budget = NODE_BUDGET
    gate = nodes + _PACK_AFTER  # past it, a node packs or raises
    if gate > budget:
        gate = budget
    best_len = 0
    best_path = [(comp & -comp).bit_length() - 1]
    path = [0] * comp.bit_count()
    unrooted = comp
    t = t2 = packed = full = 0
    tris: list[tuple[int, int, int]] | None = None  # unrooted's triangles at the last build
    own: Sequence[int] = ()
    adjp: Sequence[int] = ()

    def pack() -> None:
        nonlocal gate, t, t2, packed, full, own, adjp, tris
        if nodes > budget:
            raise ResourceLimitError(f"induced-path search exceeded {budget} nodes")
        gate = budget
        if tris is None:
            tris = triangles(adj, unrooted)
        else:
            tris = [x for x in tris if unrooted >> x[0] & unrooted >> x[1] & unrooted >> x[2] & 1]
        packing, packed, own, adjp = _triangle_planes(adj, tris)
        t = len(packing)
        t2 = 2 * t
        full = (1 << 3 * t) - 1

    def grow(last: int, avail: int, availp: int, cand: int, starts: int, k: int) -> None:
        nonlocal best_len, best_path, nodes
        if k > best_len:
            best_len = k
            if cand:
                best_path = path[:k] + [(cand & -cand).bit_length() - 1]
            else:
                best_path = path[k - 1::-1] + [(starts & -starts).bit_length() - 1]
        rest = avail & ~adj[last]
        both = 1 if cand else 0  # both sides still open
        bound = k + rest.bit_count() + both
        if bound <= best_len:
            return
        nodes += 1
        if nodes > gate:
            pack()
        if availp:
            restp = availp & ~adjp[last]
        elif packed and rest & packed:  # the parent was open when the packing arrived
            restp = 0
            for v in bits(rest & packed):
                restp |= own[v]
        else:
            restp = 0
        bound -= (restp & restp >> t & restp >> t2).bit_count()
        while cand and bound > best_len:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            out = rest & adj[u]
            more = starts & ~adj[u]
            if more:
                path[k] = u
                grow(u, rest, restp, out, more, k + 1)
            elif out and k + 1 + (nrest := rest ^ out).bit_count() > best_len:
                path[k] = u
                grow1(u, nrest, restp, out, k + 1)
        if bound - both > best_len:  # side A is closed now
            bound -= both
            path[:k] = path[k - 1::-1]
            while starts and bound > best_len:
                low = starts & -starts
                starts ^= low
                b = low.bit_length() - 1
                out = rest & adj[b]
                if out and k + 1 + (nrest := rest ^ out).bit_count() > best_len:
                    path[k] = b
                    grow1(b, nrest, restp, out, k + 1)
            path[:k] = path[k - 1::-1]

    def grow1(last: int, rest: int, availp: int, cand: int, k: int) -> None:
        nonlocal best_len, best_path, nodes
        if k > best_len:
            best_len = k
            best_path = path[:k] + [(cand & -cand).bit_length() - 1]
            if not rest:
                return
        nodes += 1
        if nodes > gate:
            pack()
        if availp:
            restp = availp & ~adjp[last]
        elif packed and rest & packed:  # the parent was open when the packing arrived
            restp = 0
            for v in bits(rest & packed):
                restp |= own[v]
        else:
            restp = 0
        bound = k + rest.bit_count() - (restp & restp >> t & restp >> t2).bit_count()
        while cand and bound > best_len:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            out = rest & adj[u]
            if out and k + 1 + (nrest := rest ^ out).bit_count() > best_len:
                path[k] = u
                grow1(u, nrest, restp, out, k + 1)

    while unrooted.bit_count() > best_len + 1:
        # the root: a vertex of least degree among the unrooted ones,
        # the least on ties
        m = -1
        fewest = unrooted.bit_count()
        left = unrooted
        while left:
            low = left & -left
            left ^= low
            u = low.bit_length() - 1
            degree = (adj[u] & unrooted).bit_count()
            if degree < fewest:
                m, fewest = u, degree
        unrooted ^= 1 << m
        if packed >> m & 1:  # m breaks a packed triangle: pack at the next node
            gate = nodes
            full = 0
        cand = unrooted & adj[m]
        # cand may be 0 only once best_len >= 1 (the first root has an
        # unrooted neighbour), and then the loop below does not start
        if not best_len:
            best_len = 1
            best_path = [m, (cand & -cand).bit_length() - 1]
        path[0] = m
        rest = unrooted & ~adj[m]
        restp = full & ~adjp[m] if full else 0
        size = 1 + rest.bit_count()
        while cand and size + (1 if cand & cand - 1 else 0) > best_len:
            low = cand & -cand
            cand ^= low
            a = low.bit_length() - 1
            out = rest & adj[a]
            more = cand & ~adj[a]
            if more:
                path[1] = a
                grow(a, rest, restp, out, more, 2)
            elif out and 2 + (nrest := rest ^ out).bit_count() > best_len:
                path[1] = a
                grow1(a, nrest, restp, out, 2)
    # the recursive closures hold each other in a cycle; breaking it frees
    # the frame's cells at return instead of at the next gc pass
    del grow, grow1
    if best_path[0] > best_path[-1]:
        best_path.reverse()
    return best_len, best_path, nodes


def _triangle_planes(
    adj: Sequence[int], tris: Sequence[tuple[int, int, int]]
) -> tuple[list[tuple[int, int, int]], int, list[int], list[int]]:
    """Pack disjoint triangles from ``tris`` greedily and lay them out
    in bit planes (member j of triangle i is bit ``i + j*t``).

    ``tris`` lists the triangles of a vertex set in the lexicographic
    order of :func:`graphs.triangles`.  Each step takes the live
    triangle (one with no packed vertex) whose vertices lie in the
    fewest live triangles, the first on ties, so it spoils as few
    others as it can.  Returns the packed triangles, the mask of their
    vertices, each vertex's own plane bit (0 off the packing) and each
    vertex's neighbourhood row in the planes.
    """
    live = []
    count = [0] * len(adj)  # live triangles through each vertex
    for a, b, c in tris:
        live.append((a, b, c, 1 << a | 1 << b | 1 << c))
        count[a] += 1
        count[b] += 1
        count[c] += 1
    packing = []
    packed = 0
    while live:
        scores = [count[a] + count[b] + count[c] for a, b, c, _ in live]
        a, b, c, hit = live[scores.index(min(scores))]
        packing.append((a, b, c))
        packed |= hit
        left = []
        for x in live:
            if x[3] & hit:
                count[x[0]] -= 1
                count[x[1]] -= 1
                count[x[2]] -= 1
            else:
                left.append(x)
        live = left
    t = len(packing)
    own = [0] * len(adj)
    adjp = [0] * len(adj)
    for i, tri in enumerate(packing):
        for j, u in enumerate(tri):
            own[u] = bit = 1 << (i + j * t)
            for v in bits(adj[u]):
                adjp[v] |= bit
    return packing, packed, own, adjp


# -- constructive extension (saturated graph -> original graph) -----------


def least_nonadjacent_pair(g: Graph, v: int) -> tuple[int, int]:
    """Lexicographically least non-adjacent pair inside N(v).

    Exists exactly when v is non-free; raises ValueError otherwise.
    """
    nbr = list(bits(g.neighbors(v)))
    for i in range(len(nbr)):
        for j in range(i + 1, len(nbr)):
            if not g.has_edge(nbr[i], nbr[j]):
                return nbr[i], nbr[j]
    raise ValueError(f"vertex {v} is free: its neighborhood is complete")


def extend_clique_disjoint(
    g: Graph, v: int, h: CliqueDisjointSet | Iterable[tuple[int, int]]
) -> CliqueDisjointSet:
    """Turn a clique-disjoint set of G_v into a strictly larger one of G.

    ``h`` must be clique-disjoint in G_v = g.saturate(v) and v must be
    non-free in g; the output is clique-disjoint in g and has exactly
    one more edge.  N_G[v] is a clique of G_v, so at most one member of
    ``h`` has both ends in it.  Every other member is an edge of g (a
    fill-in edge joins two neighbours of v) whose end outside N_G[v] is
    not adjacent to v, so it shares no clique of g with any edge at v.
    With a, b the least non-adjacent pair in N(v), {v,a} and {v,b}
    share no clique either: the output is ``h`` minus the member inside
    N_G[v] plus both, or ``h`` plus {v,a} alone if no member lies inside.
    """
    a, b = least_nonadjacent_pair(g, v)
    members = sorted(edge(*e) for e in (h.edges if isinstance(h, CliqueDisjointSet) else h))
    if len(set(members)) != len(members):
        raise ValueError("input edge set contains duplicates")
    if not is_clique_disjoint(g.saturate(v), members):
        raise ValueError("input is not clique-disjoint in the saturated graph")

    closed = g.neighbors(v) | 1 << v
    kept = [e for e in members if (1 << e[0] | 1 << e[1]) & ~closed]
    added = [edge(v, a), edge(v, b)] if len(kept) < len(members) else [edge(v, a)]
    out = frozenset(kept + added)
    try:
        valid = len(out) == len(members) + 1 and is_clique_disjoint(g, out)
    except ValueError:
        valid = False
    if not valid:
        raise AssertionError("extension construction produced an invalid set")
    return CliqueDisjointSet(out)
