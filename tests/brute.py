"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes invariants from first principles (subset and
permutation enumeration over explicit edge sets), sharing no code with
the solvers under test beyond the Graph container itself.  The rank
reference eliminates on numpy arrays, which the package does not use.
The regularity reference takes ``homology_dims`` of every variable
subset, so it shares none of the scan's pruning (lattice, domination,
size bound); the witness reference tests the lattice and domination
rules on each subset in witness order, domination by listing faces.
``ref_scan`` is the scan over those subsets with the size break alone,
and ``ref_domination_table`` tests every generator against each
(generator, variable) pair.
The initial-ideal reference walks every label-valid simple path,
chords and all, so it shares none of the admissible-path walk's
pruning; minimalized, its monomials give the minimal generators.
The induced-path references are permutation and subset enumeration,
the one-sided depth-first search from every vertex (values only), and
``ref_longest_induced_path``: the walk from each path's first vertex
in the least-degree root order, with the count bound alone, whose
witnesses the bounded search must reproduce exactly.  The graph transform references relabel through a dict and
test vertex pairs one at a time, so they share none of the bit shifting
in ``Graph`` (``ref_strip_isolated`` is ``ref_induced_delete`` on the
vertices with no neighbour), ``ref_sierpinski_levels`` subdivides a
triangle on sets of vertex pairs, and the component reference is a
breadth-first search over a neighbour dict; the compatibility reference scans every vertex for (c),
and the recursion and iv-lemma references read G_v, G - v and G_v - v
built by ``Graph.saturate`` and ``Graph.minus_vertex``, not by key.
``RefMisSolver`` is the memoized MIS search with no bound, whose values
and witnesses the bounded search must reproduce exactly; ``ref_eta``
runs it on eta's clique sets.  ``ref_encode_graph6`` codes graph6 a
bit at a time, sharing none of the encoder's column and byte work.  ``vertex_keys`` lists the derived keys of
every vertex of a mask, for the tests of ``graphs.derived_keys``.
``cut_signature`` (on the package's
``components``) and ``with_injected_isolates`` are test-only graph
helpers, and ``from_supports`` a test-only ideal builder, not
references.
"""

from collections import deque
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from beibounds.errors import ResourceLimitError
from beibounds.graphs import Graph, bits, components, derived_keys, key_layout, minimalize
from beibounds.invariants import maximal_cliques
from beibounds.regularity import SquarefreeIdeal, _variable_mask, homology_dims


def numpy_rank_modp(matrix, p: int) -> int:
    """Rank over GF(p) by Gaussian elimination on an int64 numpy array."""
    a = np.asarray(matrix, dtype=np.int64) % p
    if a.size == 0:
        return 0
    m, n = a.shape
    r = 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pivot = r + nz[0]
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = np.nonzero(a[r + 1 :, c])[0] + r + 1
        a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
        if r == m:
            break
    return r


def from_supports(num_vars: int, supports) -> SquarefreeIdeal:
    """The ideal of the minimal elements of ``supports``, each a nonempty
    set of variable indices, checked by the rule ``homology_dims`` uses."""
    masks = []
    for sup in supports:
        masks.append(_variable_mask(sup, num_vars))
        if not masks[-1]:
            raise ValueError("empty generator (unit ideal) not supported")
    return SquarefreeIdeal(num_vars, minimalize(masks))


def brute_regularity_squarefree(ideal, p: int) -> int:
    """max(t + 1) over every variable subset W and degree t with nonzero
    reduced homology over GF(p) of the restriction to W."""
    best = 0
    for mask in range(1 << ideal.num_vars):
        w = [v for v in range(ideal.num_vars) if mask >> v & 1]
        for t, dim in homology_dims(ideal, w, p).items():
            if dim:
                best = max(best, t + 1)
    return best


def ref_reg_witness(ideal, value: int) -> frozenset[int]:
    """The witness rule, by subset enumeration: the first variable subset
    W, by descending size and then ascending tuple, that is the union of
    the generators inside it, has no vertex v dominated by a vertex u
    (every face through v stays a face when u is added), and has nonzero
    reduced homology in degree ``value - 1`` over GF(2) and GF(3).  The
    empty set when no nonempty W qualifies."""
    for size in range(ideal.num_vars, 0, -1):
        for w in combinations(range(ideal.num_vars), size):
            inside = [set(bits(g)) for g in ideal.gens if set(bits(g)) <= set(w)]
            if set().union(*inside) != set(w):
                continue
            faces = {frozenset(f) for k in range(size + 1) for f in combinations(w, k)
                     if not any(g <= set(f) for g in inside)}
            if any(all(f | {u} in faces for f in faces if v in f)
                   for u in w for v in w if u != v):
                continue
            if all(homology_dims(ideal, w, p).get(value - 1) for p in (2, 3)):
                return frozenset(w)
    return frozenset()


def label_valid_path_monomials(g: Graph) -> set[int]:
    """Monomial bitmasks of every label-valid simple path of g: from i to
    j > i through interior vertices each < i or > j, the monomial
    x_i * y_j * prod(x_k for interior k > j) * prod(y_k for interior k < i)."""
    n = g.n
    out: set[int] = set()
    for i in range(n):
        low = (1 << i) - 1  # vertices < i
        for j in range(i + 1, n):
            high = g.full_mask() & ~((1 << (j + 1)) - 1)  # vertices > j
            allowed = low | high

            def walk(cur: int, visited: int, interior: int) -> None:
                if g.adj[cur] >> j & 1:
                    mono = 1 << i | 1 << (n + j)
                    mono |= interior & high
                    for k in bits(interior & low):
                        mono |= 1 << (n + k)
                    out.add(mono)
                for nxt in bits(g.adj[cur] & allowed & ~visited):
                    walk(nxt, visited | 1 << nxt, interior | 1 << nxt)

            walk(i, 1 << i, 0)
    return out


def is_complete_subset(g: Graph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(sorted(set(vs)), 2))


def brute_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    cliques = []
    for size in range(1, g.n + 1):
        for vs in combinations(range(g.n), size):
            if is_complete_subset(g, vs):
                cliques.append(set(vs))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def brute_common_clique(g: Graph, e, f) -> bool:
    return is_complete_subset(g, set(e) | set(f))


def brute_eta(g: Graph) -> int:
    es = g.edges()
    best = 0
    for mask in range(1 << len(es)):
        chosen = [es[i] for i in range(len(es)) if mask >> i & 1]
        if all(
            not brute_common_clique(g, a, b) for a, b in combinations(chosen, 2)
        ):
            best = max(best, len(chosen))
    return best


def brute_longest_induced_path(g: Graph) -> int:
    """Sum over components of the max induced path length (edge count)."""
    total = 0
    for comp in g.component_masks():
        vs = [v for v in range(g.n) if comp >> v & 1]
        best = 0
        for size in range(1, len(vs) + 1):
            for seq in permutations(vs, size):
                ok = True
                for i in range(size):
                    for j in range(i + 1, size):
                        adjacent = g.has_edge(seq[i], seq[j])
                        if adjacent != (j == i + 1):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    best = max(best, size - 1)
        total += best
    return total


def ref_longest_induced_path(g: Graph) -> tuple[int, list[list[int]]]:
    """Longest induced path with one witness per component, from a walk
    that meets each induced path once, rooted at its first vertex in a
    smallest-last order and bounded only by the count of vertices it can
    still add.

    Each root ``m`` is a vertex of least degree in the subgraph induced
    on the vertices not yet rooted, the least on ties, and its walk
    stays on those vertices.  Side A grows from ``m`` first; at each of
    its paths ``m a1 .. aj`` side B may start at a neighbour ``b > a1``
    of ``m`` with no neighbour among ``a1 .. aj``, and then grows alone.
    Side A's children come before side B's starts, each in ascending
    order.  The witness is the first longest path in this order,
    smaller end first.
    """
    total = 0
    witnesses = []
    for comp in g.component_masks():
        length, path = _ref_component_lip(g, comp)
        total += length
        witnesses.append(path)
    return total, witnesses


def _ref_component_lip(g: Graph, comp: int) -> tuple[int, list[int]]:
    adj = g.adj
    best = [(comp & -comp).bit_length() - 1]

    def visit(path: list[int], avail: int, starts) -> None:
        """``avail``: vertices off the path whose only path neighbour, if
        any, is ``path[-1]``; ``starts``: side B's possible first vertices
        on a side-A path, None on a side-B path."""
        nonlocal best
        if len(path) > len(best):
            best = path
        cand = avail & adj[path[-1]]
        rest = avail & ~adj[path[-1]]
        # each open side adds one vertex off rest, every other one is in rest
        most = len(path) - 1 + bool(cand) + bool(starts) + rest.bit_count()
        if most < len(best):
            return
        for u in bits(cand):
            visit(path + [u], rest, None if starts is None else starts & ~adj[u])
        for b in bits(starts or 0):
            visit(path[::-1] + [b], rest, None)

    unrooted = comp
    while unrooted:
        m = min(bits(unrooted), key=lambda v: (adj[v] & unrooted).bit_count())
        unrooted &= ~(1 << m)
        nbrs = unrooted & adj[m]
        for a in bits(nbrs):
            visit([m, a], unrooted & ~adj[m], nbrs >> a + 1 << a + 1 & ~adj[a])
    if best[0] > best[-1]:
        best = best[::-1]
    return len(best) - 1, best


def ref_longest_induced_path_one_sided(g: Graph) -> int:
    """Sum over components of the longest induced path length, from a
    depth-first search from every vertex that grows one end only (so it
    meets each path from both of its ends), bounded only by the count of
    available vertices."""
    return sum(_ref_one_sided_lip(g, comp) for comp in g.component_masks())


def _ref_one_sided_lip(g: Graph, comp: int) -> int:
    adj = g.adj
    best_len = 0
    path: list[int] = []

    def extend(last: int, avail: int, cand: int) -> None:
        nonlocal best_len
        k = len(path)  # edges in the path once a candidate is appended
        best_len = max(best_len, k)
        rest = avail & ~adj[last]
        # every later vertex comes from rest, adding one edge each
        bound = k + rest.bit_count()
        while cand and bound > best_len:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            grow = rest & adj[u]
            if grow:
                path.append(u)
                extend(u, rest, grow)
                path.pop()

    for start in bits(comp):
        cand = comp & adj[start]
        if cand:
            path.append(start)
            extend(start, comp & ~(1 << start), cand)
            path.pop()
    return best_len


def _brute_connected(g: Graph, vs) -> bool:
    vs = set(vs)
    seen = {min(vs)}
    stack = [min(vs)]
    while stack:
        u = stack.pop()
        for w in vs - seen:
            if g.has_edge(u, w):
                seen.add(w)
                stack.append(w)
    return seen == vs


def _brute_component_labels(g: Graph) -> list[int]:
    """One label per vertex, equal exactly within a component."""
    label = list(range(g.n))
    for u, w in combinations(range(g.n), 2):
        if g.has_edge(u, w):
            old = label[w]
            label = [label[u] if x == old else x for x in label]
    return label


def brute_longest_induced_path_subsets(g: Graph) -> int:
    """Sum over components of the max induced path length (edge count).

    A vertex set induces a path exactly when its induced subgraph is
    connected, has one edge fewer than vertices (a tree) and has maximum
    degree at most 2.  Components come from relabeling across each edge.
    """
    label = _brute_component_labels(g)
    best = dict.fromkeys(label, 0)
    for size in range(2, g.n + 1):
        for vs in combinations(range(g.n), size):
            edges = [(u, w) for u, w in combinations(vs, 2) if g.has_edge(u, w)]
            degree_ok = all(sum(v in e for e in edges) <= 2 for v in vs)
            if len(edges) == size - 1 and degree_ok and _brute_connected(g, vs):
                best[label[vs[0]]] = max(best[label[vs[0]]], size - 1)
    return sum(best.values())


def brute_free_vertex(g: Graph, v: int) -> bool:
    nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
    return is_complete_subset(g, nbrs)


def brute_iv(g: Graph) -> int:
    return sum(1 for v in range(g.n) if not brute_free_vertex(g, v))


# -- graph transforms and the compatibility conditions -----------------------


def ref_induced_delete(g: Graph, drop) -> Graph:
    """Induced subgraph on the complement of ``drop``; survivors are
    relabeled in ascending order through an old -> new label dict."""
    drop = set(drop)
    keep = [v for v in range(g.n) if v not in drop]
    pos = {old: new for new, old in enumerate(keep)}
    adj = []
    for old in keep:
        row = 0
        for u in keep:
            if g.has_edge(old, u):
                row |= 1 << pos[u]
        adj.append(row)
    return Graph(len(keep), tuple(adj))


def ref_strip_isolated(g: Graph) -> Graph:
    """G minus its isolated vertices, relabeled by ``ref_induced_delete``."""
    return ref_induced_delete(g, [v for v in range(g.n)
                                  if not any(g.has_edge(v, u) for u in range(g.n))])


def ref_saturate(g: Graph, v: int) -> Graph:
    """G_v: add every missing edge between two neighbours of v."""
    nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
    adj = list(g.adj)
    for a, b in combinations(nbrs, 2):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return Graph(g.n, tuple(adj))


def ref_components(g: Graph, keep) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced on the vertex set
    ``keep``, by breadth-first search over a neighbour dict; each comes
    as a sorted tuple, ordered by smallest vertex."""
    keep = set(keep)
    nbrs = {v: [u for u in keep if u != v and g.has_edge(v, u)] for v in keep}
    seen: set[int] = set()
    out = []
    for start in sorted(keep):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in nbrs[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        out.append(tuple(sorted(comp)))
    return out


def brute_compatibility(phi, g: Graph) -> dict:
    """Conditions (a), (b), (c) and the strong per-vertex form of (c),
    with (c) searched over every vertex, free ones included.

    Returns the fields ``check_compatibility`` reports (``passed``,
    ``witness_vertex``, ``values``, ``counterexample``) and ``strong``,
    the strong-form violations.
    """
    phi_g = phi(g)
    values = {"phi": phi_g}
    out = {"passed": True, "witness_vertex": None, "values": values,
           "counterexample": None, "strong": []}
    for v in range(g.n):
        if brute_free_vertex(g, v):
            continue
        minus, sat = phi(ref_induced_delete(g, [v])), phi(ref_saturate(g, v))
        if minus > phi_g or sat >= phi_g:
            out["strong"].append({"v": v, "phi": phi_g, "phi_minus": minus, "phi_saturated": sat})

    isolated = [v for v in range(g.n) if not any(g.has_edge(v, u) for u in range(g.n) if u != v)]
    values["phi_hat"] = phi_hat = phi(ref_induced_delete(g, isolated))
    if phi_hat > phi_g:
        out["passed"] = False
        out["counterexample"] = {"condition": "a", "phi": phi_g, "phi_without_isolated": phi_hat}
        return out

    label = _brute_component_labels(g)
    comps = [[v for v in range(g.n) if label[v] == c] for c in sorted(set(label))]
    if comps and all(len(c) >= 2 and is_complete_subset(g, c) for c in comps):
        values["union_components"] = t = len(comps)
        if phi_g < t:
            out["passed"] = False
            out["counterexample"] = {"condition": "b", "phi": phi_g, "components": t}
            return out

    if brute_iv(g) > 0:
        per_vertex = []
        for v in range(g.n):
            minus, sat = phi(ref_induced_delete(g, [v])), phi(ref_saturate(g, v))
            if minus <= phi_g and sat < phi_g:
                out["witness_vertex"] = v
                values["phi_minus_witness"] = minus
                values["phi_saturated_witness"] = sat
                break
            per_vertex.append({"v": v, "phi_minus": minus, "phi_saturated": sat})
        else:
            out["passed"] = False
            out["counterexample"] = {"condition": "c", "phi": phi_g, "per_vertex": per_vertex}
    return out


def built_recursion_graphs(g: Graph, v: int) -> list[Graph]:
    """G_v, G - v, G_v - v and G, built by ``Graph.saturate`` and
    ``Graph.minus_vertex``; ``recursion_failures`` reads the first three
    in this order at v."""
    gv = g.saturate(v)
    return [gv, g.minus_vertex(v), gv.minus_vertex(v), g]


def brute_regularity_recursion(reg, g: Graph, v: int) -> bool:
    """reg(G) <= max(reg(G_v), reg(G - v), reg(G_v - v) + 1) on the
    built graphs."""
    sat, minus, sat_minus, whole = map(reg, built_recursion_graphs(g, v))
    return whole <= max(sat, minus, sat_minus + 1)


def brute_iv_lemma(g: Graph, v: int) -> bool:
    """max(iv(G_v), iv(G - v), iv(G_v - v)) < iv(G) on the built graphs,
    with iv counted by ``brute_iv``."""
    sat, minus, sat_minus, whole = map(brute_iv, built_recursion_graphs(g, v))
    return max(sat, minus, sat_minus) < whole


# -- eta: the MIS search without a bound ---------------------------------------


class RefMisSolver:
    """Exact MIS by branch and bound with memoization.

    Reductions: vertices of degree <= 1 always join some optimum, so
    they are committed greedily.  Components are solved independently.
    Branching picks the max-degree vertex (smallest index on ties), the
    include branch winning ties, so witnesses are deterministic.
    """

    def __init__(self, adj: Sequence[int], node_limit: int):
        self.adj = adj
        self.node_limit = node_limit
        self.nodes = 0
        self.memo: dict[int, tuple[int, int]] = {}

    def solve(self, mask: int) -> tuple[int, int]:
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise ResourceLimitError(
                f"independent-set search exceeded {self.node_limit} nodes"
            )
        adj = self.adj
        taken_size = 0
        taken_mask = 0
        m = mask
        changed = True
        while changed:
            changed = False
            left = m
            while left:
                low = left & -left
                left ^= low
                if not m & low:
                    continue
                nb = adj[low.bit_length() - 1] & m
                if nb.bit_count() <= 1:
                    taken_size += 1
                    taken_mask |= low
                    m &= ~(nb | low)
                    changed = True
        if m:
            comps = self._components(m)
            if len(comps) > 1:
                for comp in comps:
                    s, w = self.solve(comp)
                    taken_size += s
                    taken_mask |= w
            else:
                # the max-degree vertex, the smallest on ties
                v = best = -1
                left = m
                while left:
                    low = left & -left
                    left ^= low
                    u = low.bit_length() - 1
                    degree = (adj[u] & m).bit_count()
                    if degree > best:
                        best, v = degree, u
                s_in, w_in = self.solve(m & ~(adj[v] | 1 << v))
                s_out, w_out = self.solve(m & ~(1 << v))
                if s_in + 1 >= s_out:
                    taken_size += s_in + 1
                    taken_mask |= w_in | 1 << v
                else:
                    taken_size += s_out
                    taken_mask |= w_out
        self.memo[mask] = (taken_size, taken_mask)
        return taken_size, taken_mask

    def _components(self, mask: int) -> list[int]:
        adj = self.adj
        comps = []
        left = mask
        while left:
            v = (left & -left).bit_length() - 1
            comp = 1 << v
            frontier = comp
            while frontier:
                grown = comp
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    grown |= adj[low.bit_length() - 1] & mask
                frontier = grown & ~comp
                comp = grown
            comps.append(comp)
            left &= ~comp
        return comps


def ref_max_independent_set(adj) -> tuple[int, int]:
    """(size, member mask) from the unbounded memoized search."""
    return RefMisSolver(adj, 10**9).solve((1 << len(adj)) - 1)


def ref_eta(g: Graph) -> tuple[int, frozenset]:
    """eta and its witness: the inclusion-minimal edge clique sets, each
    standing for its least edge, packed by the unbounded search.  The
    maximal cliques come from the library (``brute_maximal_cliques``
    checks them separately)."""
    in_cliques = [0] * g.n
    for i, clique in enumerate(maximal_cliques(g)):
        for v in clique:
            in_cliques[v] |= 1 << i
    rep = {}
    for u, v in g.edges():
        rep.setdefault(in_cliques[u] & in_cliques[v], (u, v))
    sets = sorted(m for m in rep if not any(k != m and k & m == k for k in rep))
    adj = [sum(1 << j for j, b in enumerate(sets) if j != i and a & b) for i, a in enumerate(sets)]
    size, mask = ref_max_independent_set(adj)
    return size, frozenset(rep[sets[i]] for i in range(len(sets)) if mask >> i & 1)


# -- graph6: the encoder a bit at a time -----------------------------------------

_G6_SHORT_MAX = 62
_G6_LONG_MAX = 258047


def ref_encode_graph6(g: Graph) -> str:
    """graph6 a bit at a time, one adjacency test per pair."""
    if g.n > _G6_LONG_MAX:
        raise ValueError(f"graph6 supports at most {_G6_LONG_MAX} vertices")
    out = bytearray()
    if g.n <= _G6_SHORT_MAX:
        out.append(g.n + 63)
    else:
        out.append(126)
        out.extend(((g.n >> shift) & 0x3F) + 63 for shift in (12, 6, 0))
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = acc << 1 | (g.adj[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def vertex_keys(key: int, n: int, mask: int) -> list[tuple[int, int, int]]:
    """(v, key of G - v, key of G_v) for each vertex v of ``mask``,
    ascending, where G is the graph on n vertices with key ``key``, by
    ``graphs.derived_keys``."""
    layout = key_layout(n)
    return [(v, *derived_keys(key, v, layout)) for v in bits(mask)]


def cut_signature(g: Graph, cut) -> list[tuple[int, ...]]:
    """Vertex sets of the components of G - cut, in g's labels, ordered
    by smallest contained vertex; the length is the component count of
    the cut."""
    kept = g.full_mask()
    for v in cut:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        kept &= ~(1 << v)
    return [tuple(bits(m)) for m in components(g.adj, kept)]


def with_injected_isolates(g: Graph, positions: list[int]) -> Graph:
    """Insert isolated vertices before the given old labels.

    ``positions`` lists old vertex labels (0..g.n, end-insertion allowed,
    repeats allowed) in any order; each insertion shifts later labels up.
    """
    if any(not 0 <= p <= g.n for p in positions):
        raise ValueError("insertion positions must lie in 0..n")
    mapping = list(range(g.n))
    for pos in sorted(positions, reverse=True):
        mapping = [m + 1 if m >= pos else m for m in mapping]
    edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
    return Graph.from_edge_list(g.n + len(positions), edges)


def ref_sierpinski_levels(top: int) -> list[Graph]:
    """Levels 1..top of the triforce family, as ``top`` subdivisions of
    a triangle on sets of vertex pairs.  Each round numbers one midpoint
    per edge, in sorted edge order after the old vertices, halves every
    edge, and joins the three midpoints of each triangle, found by
    testing every edge against every later vertex."""
    n, edges, levels = 3, {(0, 1), (0, 2), (1, 2)}, []
    for _ in range(top):
        mid = {e: n + k for k, e in enumerate(sorted(edges))}
        halves = {p for (u, v), m in mid.items() for p in ((u, m), (v, m))}
        faces = {(mid[a, b], mid[a, c], mid[b, c]) for a, b in edges for c in range(b + 1, n)
                 if (a, c) in edges and (b, c) in edges}
        n, edges = n + len(mid), halves | {p for x, y, z in faces for p in ((x, y), (x, z), (y, z))}
        levels.append(Graph.from_edge_list(n, edges))
    return levels


def ref_unions(ideal) -> set[int]:
    """Every nonempty union of generators, with no pruning."""
    unions = {0}
    for g in ideal.gens:
        unions |= {x | g for x in unions}
    unions.discard(0)
    return unions


def ref_faces(ideal) -> set[int]:
    """Every face of the whole complex: the subsets holding no generator."""
    return {f for f in range(1 << ideal.num_vars) if not any(g & f == g for g in ideal.gens)}


def ref_has_dominated_vertex(w: int, faces: set[int]) -> bool:
    """Whether some v in W is dominated by some u in W, in the complex
    ``faces`` restricted to W: every face through v stays a face when u
    is added."""
    inside = [f for f in faces if f & ~w == 0]
    return any(all(f | 1 << u in faces for f in inside if f >> v & 1)
               for u in bits(w) for v in bits(w) if u != v)


def ref_scan_survivors(ideal) -> list[int]:
    """The subsets the scan may rank, by descending size and then
    ascending variable tuple: the unions of generators whose complex has
    no dominated vertex."""
    faces = ref_faces(ideal)
    return sorted((w for w in ref_unions(ideal) if not ref_has_dominated_vertex(w, faces)),
                  key=lambda w: (-w.bit_count(), list(bits(w))))


def ref_scan(ideal, fields) -> dict[int, tuple[int, int]]:
    """The scan with the size break alone: {field: (value, witness mask)}.

    Each of ``ref_scan_survivors``, in order, takes the top degree of
    its full reduced homology per field and is the witness when it first
    beats that field's value; the walk stops at the first W with
    |W| - 1 no more than every field's value."""
    best = dict.fromkeys(fields, (0, 0))
    for w in ref_scan_survivors(ideal):
        if w.bit_count() - 1 <= min(value for value, _ in best.values()):
            break
        for p in fields:
            dims = homology_dims(ideal, bits(w), p)
            value = max((t + 1 for t, dim in dims.items() if dim), default=0)
            if value > best[p][0]:
                best[p] = (value, w)
    return best


def ref_domination_table(gens, nv: int) -> list[list[tuple[int, int]]]:
    """Per variable u, (g, d) for each generator g through u, in order,
    where d holds the v outside g with some generator h, h - v inside
    g - u: one pass over every generator per (g, u)."""
    table = [[] for _ in range(nv)]
    for g in gens:
        for u in bits(g):
            face = g ^ 1 << u
            d = 0
            for h in gens:
                extra = h & ~face
                if extra & (extra - 1) == 0:  # h - face is one variable
                    d |= extra
            table[u].append((g, d & ~g))
    return table
