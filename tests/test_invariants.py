import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from beibounds import invariants
from beibounds.errors import ResourceLimitError
from beibounds.graphio import decode_graph6
from beibounds.graphs import Graph, rows_key
from beibounds.generators import all_labeled, complete, cycle, fig2_closed, gnp, net, path, sierpinski, union
from beibounds.invariants import (
    conflict_graph,
    eta,
    extend_clique_disjoint,
    in_common_clique,
    is_clique_disjoint,
    is_induced_path,
    longest_induced_path,
    maximal_cliques,
)

from brute import (
    RefMisSolver,
    brute_common_clique,
    brute_eta,
    brute_longest_induced_path,
    brute_longest_induced_path_subsets,
    brute_maximal_cliques,
    ref_eta,
    ref_longest_induced_path,
    ref_longest_induced_path_one_sided,
    ref_max_independent_set,
    ref_strip_isolated,
)


def max_independent_set(adj):
    """(size, member bitmask) of an exact maximum independent set."""
    return invariants._MisSolver(adj).solve((1 << len(adj)) - 1, 0)


# -- maximal cliques ---------------------------------------------------------

def test_complete_graph_single_clique():
    assert maximal_cliques(complete(5)) == [tuple(range(5))]


def test_sierpinski_level1_has_4_cliques():
    assert len(maximal_cliques(sierpinski(1))) == 4


def test_net_cliques_match_brute_force():
    got = maximal_cliques(net())
    assert got == brute_maximal_cliques(net())
    assert len(got) == 4


def test_isolated_vertex_is_a_clique():
    g = union([complete(2), complete(1)])
    assert (2,) in maximal_cliques(g)


def test_cliques_match_brute_force_exhaustive_n4_n5():
    for n in (4, 5):
        for g in all_labeled(n):
            assert maximal_cliques(g) == brute_maximal_cliques(g)


# -- conflict relation -------------------------------------------------------

def test_triangle_edges_share_clique():
    g = complete(3)
    assert in_common_clique(g, (0, 1), (1, 2))


def test_c4_adjacent_edges_do_not():
    g = cycle(4)
    assert not in_common_clique(g, (0, 1), (1, 2))


def test_k4_disjoint_edges_share_clique():
    assert in_common_clique(complete(4), (0, 1), (2, 3))


def test_edge_shares_clique_with_itself():
    assert in_common_clique(path(2), (0, 1), (0, 1))


def test_non_edge_rejected():
    with pytest.raises(ValueError):
        in_common_clique(cycle(4), (0, 2), (0, 1))


def test_conflict_graph_of_triangle_free_is_edgeless():
    cg = conflict_graph(cycle(5))
    assert all(a == 0 for a in cg.adj)


def test_conflict_graph_of_k3_is_triangle():
    cg = conflict_graph(complete(3))
    assert cg.n() == 3 and all(a.bit_count() == 2 for a in cg.adj)


def test_conflict_graph_of_net_matches_pairwise_checks():
    g = net()
    cg = conflict_graph(g)
    assert cg.n() == 6
    for i, e in enumerate(cg.edge_index):
        for j, f in enumerate(cg.edge_index):
            if i != j:
                assert bool(cg.adj[i] >> j & 1) == brute_common_clique(g, e, f)
    triangle = [cg.edge_index.index(e) for e in [(0, 1), (0, 2), (1, 2)]]
    pendants = [cg.edge_index.index(e) for e in [(0, 3), (1, 4), (2, 5)]]
    for i in triangle:
        assert cg.adj[i].bit_count() == 2
    for i in pendants:
        assert cg.adj[i] == 0


# -- eta ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "g, want",
    [
        (net(), 4),
        (fig2_closed(), 4),
        (sierpinski(1), 3),
        (path(5), 4),
        (union([complete(3), complete(2)]), 2),
        (union([complete(4), complete(2), complete(3)]), 3),
        (Graph.from_edge_list(3, []), 0),
        (Graph.from_edge_list(0, []), 0),
        (complete(2), 1),
        (union([complete(1), path(3), complete(1), complete(3), complete(1)]), 3),
        # K_{2,2,2}: the smallest graph whose minimal clique sets meet
        (decode_graph6("E]~o"), 4),
    ],
)
def test_eta_named_values(g, want):
    value, witness = eta(g)
    assert value == want
    assert len(witness) == want
    assert is_clique_disjoint(g, witness.edges)


def test_eta_matches_brute_force_exhaustive_n4():
    for g in all_labeled(4):
        assert eta(g)[0] == brute_eta(g)


def test_eta_matches_brute_force_exhaustive_n5():
    for g in all_labeled(5):
        assert eta(g)[0] == brute_eta(g)


@st.composite
def graphs_up_to_10(draw):
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph.from_edge_list(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


@given(graphs_up_to_10())
@settings(max_examples=200, deadline=None)
def test_eta_matches_mis_on_full_conflict_graph(g):
    value, witness = eta(g)
    assert value == max_independent_set(conflict_graph(g).adj)[0]
    assert len(witness) == value
    assert is_clique_disjoint(g, witness.edges)


def test_eta_disjoint_cliques_take_one_edge_each():
    parts = [complete(3), complete(4), complete(2), complete(5)]
    g = union(parts)
    value, witness = eta(g)
    assert value == len(parts)
    lo = 0
    for part in parts:
        hi = lo + part.n
        assert sum(lo <= u < hi for u, _ in witness.edges) == 1
        lo = hi


def test_eta_search_stays_small(set_budget):
    """The search runs on inclusion-minimal edge clique sets; on the full
    conflict graph these budgets are exhausted."""
    set_budget("NODE_BUDGET", 1_000)
    assert eta(sierpinski(3))[0] == 36
    set_budget("NODE_BUDGET", 2_000)
    assert eta(gnp(18, 3, 4, 0))[0] == 10


def _triangle_free(g):
    return not any(
        g.is_clique(1 << a | 1 << b | 1 << c)
        for a in range(g.n) for b in range(a + 1, g.n) for c in range(b + 1, g.n)
    )


def test_triangle_free_eta_and_clique_count():
    rng = random.Random(31)
    graphs = [cycle(4), cycle(5), path(6)]
    graphs += [gnp(8, 1, 5, rng.randrange(2 ** 31)) for _ in range(30)]
    checked = 0
    for g in graphs:
        if not _triangle_free(g):
            continue
        assert eta(g)[0] == g.edge_count()
        assert len(maximal_cliques(g)) == g.edge_count() + g.adj.count(0)
        checked += 1
    assert checked >= 5


@st.composite
def bitset_graphs(draw):
    """Up to 24 vertices at any density: an edge is kept when its draw
    falls below the graph's own threshold."""
    n = draw(st.integers(0, 24))
    density = draw(st.integers(0, 16))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.randrange(16) < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


@given(bitset_graphs())
@settings(max_examples=300, deadline=None)
def test_mis_matches_unbounded_reference(adj):
    """The bound prunes, but every exact result makes the unbounded
    search's choice, so size and members are the same."""
    assert max_independent_set(adj) == ref_max_independent_set(adj)


@given(bitset_graphs(), st.integers(0, 25))
@settings(max_examples=300, deadline=None)
def test_mis_threshold_contract(adj, need):
    """solve(mask, need) is exact when the optimum reaches need, else an
    upper bound below need with no witness; every memo entry with a
    witness is exact and every one without is an upper bound, whatever
    need was asked."""
    n = len(adj)
    solver = invariants._MisSolver(adj)
    size, members = solver.solve((1 << n) - 1, need)
    ref = RefMisSolver(adj, 10**9)
    best = ref.solve((1 << n) - 1)
    if (size, members) != best:
        assert members is None and best[0] <= size < need
    for mask, (bound, witness) in solver.memo.items():
        if witness is not None:
            assert (bound, witness) == ref.solve(mask)
        else:
            assert ref.solve(mask)[0] <= bound


def test_eta_matches_unbounded_reference_exhaustive_n5():
    for n in range(1, 6):
        for g in all_labeled(n):
            value, witness = eta(g)
            assert (value, witness.edges) == ref_eta(g)


def _perfect_matchings(vs):
    if not vs:
        yield []
        return
    for partner in vs[1:]:
        rest = [v for v in vs[1:] if v != partner]
        for m in _perfect_matchings(rest):
            yield [(vs[0], partner)] + m


def test_eta_matches_unbounded_reference_on_labeled_octahedra(monkeypatch):
    """The 15 labeled octahedra, K6 minus a perfect matching, are the only
    graphs with n <= 6 whose minimal clique sets meet, so they alone run
    the solver, on sets renumbered in ``maximal_cliques`` order."""
    runs = []

    class Counted(invariants._MisSolver):
        def __init__(self, adj):
            runs.append(len(adj))
            super().__init__(adj)

    monkeypatch.setattr(invariants, "_MisSolver", Counted)
    invariants._eta_cached.cache_clear()
    octahedra = set()
    for matching in _perfect_matchings(list(range(6))):
        g = Graph.from_edge_list(6, [e for e in combinations(range(6), 2) if e not in matching])
        value, witness = eta(g)
        assert (value, witness.edges) == ref_eta(g)
        octahedra.add(g)
    assert len(octahedra) == len(runs) == 15


def _one_clique_rule_holds(g):
    """An edge lies in exactly one maximal clique iff its common
    neighbourhood is a clique, and that clique is the edge plus it."""
    cliques = [sum(1 << v for v in c) for c in maximal_cliques(g)]
    for u, v in g.edges():
        pair = 1 << u | 1 << v
        through = [c for c in cliques if c & pair == pair]
        common = g.adj[u] & g.adj[v]
        assert (len(through) == 1) == g.is_clique(common)
        if len(through) == 1:
            assert through[0] == common | pair


def test_one_clique_rule_exhaustive_n5():
    for n in range(1, 6):
        for g in all_labeled(n):
            _one_clique_rule_holds(g)


@given(graphs_up_to_10())
@settings(max_examples=200, deadline=None)
def test_one_clique_rule_on_random_graphs(g):
    _one_clique_rule_holds(g)


def test_eta_lists_cliques_on_octahedra_and_sierpinski_2(clique_mask_calls):
    """Every edge of an octahedron lies in two triangles, so no edge has
    a clique of its own.  sierpinski(2), the triangular grid of side 4,
    has 9 such cliques, the up triangles on its boundary; the 3 edges of
    its central up triangle lie in it and in a down triangle, neither of
    them one of the 9.  So each of these misses lists the cliques."""
    octahedra = [
        Graph.from_edge_list(6, [e for e in combinations(range(6), 2) if e not in matching])
        for matching in _perfect_matchings(list(range(6)))
    ]
    graphs = octahedra + [sierpinski(2)]
    results = [eta(g) for g in graphs]
    assert clique_mask_calls == [g.adj for g in graphs]
    for g, (value, witness) in zip(graphs, results):
        assert (value, witness.edges) == ref_eta(g)


def test_eta_matches_reference_wherever_a_miss_lists_cliques_exhaustive_n6(clique_mask_calls):
    """The 195 labeled graphs with n <= 6 whose eta miss lists cliques,
    the 15 octahedra among them, match the reference in value and
    witness."""
    listed = []
    for n in range(7):
        for g in all_labeled(n):
            calls = len(clique_mask_calls)
            value, witness = eta(g)
            if len(clique_mask_calls) > calls:
                listed.append((g, value, witness.edges))
    assert len(listed) == 195
    for g, value, edges in listed:
        assert (value, edges) == ref_eta(g)


def test_eta_solver_gets_only_the_loose_sets_on_sierpinski_2(monkeypatch):
    """sierpinski(2)'s 9 singleton cliques never reach the solver: it
    gets one row for each edge of the central up triangle, whose clique
    sets all hold that triangle, and takes one of them."""
    rows = []

    class Recorded(invariants._MisSolver):
        def __init__(self, adj):
            super().__init__(adj)
            rows.append(list(adj))

    monkeypatch.setattr(invariants, "_MisSolver", Recorded)
    invariants._eta_cached.cache_clear()
    assert eta(sierpinski(2))[0] == 10
    assert rows == [[0b110, 0b101, 0b011]]


@st.composite
def dense_gnp(draw):
    n = draw(st.integers(2, 12))
    return gnp(n, draw(st.integers(5, 10)), 10, draw(st.integers(0, 2 ** 31)))


@given(dense_gnp())
@settings(max_examples=200, deadline=None)
def test_eta_matches_unbounded_reference_on_dense_graphs(g):
    """Dense draws take both paths of a miss: the singletons alone, and
    the clique list past them."""
    value, witness = eta(g)
    assert (value, witness.edges) == ref_eta(g)


def test_dense_draws_take_both_miss_paths(clique_mask_calls):
    draws = [gnp(n, k, 10, s) for n in (8, 12) for k in (5, 9) for s in range(5)]
    for g in draws:
        eta(g)
    assert 0 < len(clique_mask_calls) < len(draws)


@pytest.mark.parametrize(
    "g",
    [sierpinski(k) for k in (1, 2, 3)]
    + [gnp(n, 3, 4, 0) for n in (18, 19, 20)]
    + [gnp(40, 1, 10, s) for s in range(3)],
)
def test_eta_matches_unbounded_reference_on_panel(g):
    value, witness = eta(g)
    assert (value, witness.edges) == ref_eta(g)


@pytest.mark.parametrize("n, budget", [(18, 350), (19, 700), (20, 400)])
def test_eta_dense_panel_node_counts(set_budget, n, budget):
    """The unbounded search visits 1,291, 6,614 and 1,948 MIS nodes on
    these graphs; the clique-cover bound 263, 589 and 314."""
    set_budget("NODE_BUDGET", budget)
    assert eta(gnp(n, 3, 4, 0))[0] == {18: 10, 19: 10, 20: 13}[n]


def test_eta_mid_density_within_budget(set_budget):
    """The unbounded search needs 496,454 nodes here; the clique-cover
    bound about 10k."""
    set_budget("NODE_BUDGET", 50_000)
    assert eta(gnp(40, 1, 3, 1))[0] == 75


def test_eta_cache_serves_a_hit_under_any_budget(monkeypatch):
    """The cache is keyed by the rows alone: a value cached under the
    default budget is served under a budget its search would pass, and
    only a miss, after ``cache_clear()``, spends the budget and raises."""
    g = gnp(18, 3, 4, 0)
    assert eta(g)[0] == 10
    monkeypatch.setattr(invariants, "NODE_BUDGET", 100)
    assert eta(g)[0] == 10
    invariants._eta_cached.cache_clear()
    with pytest.raises(ResourceLimitError, match="exceeded 100 nodes"):
        eta(g)


@pytest.mark.parametrize("g6, value, nodes", [("Bg", 2, 0), ("E]~o", 4, 5), ("EL~o", 5, 1)])
def test_eta_budget_counts_search_nodes_with_or_without_the_search(
    monkeypatch, set_budget, g6, value, nodes
):
    """A miss passes at the number of solver nodes it visits and raises
    one short: 5 on K_{2,2,2}, whose minimal clique sets meet; 1 on
    ``EL~o``, which lists cliques for one loose set, taken in the
    solver's root node; and none on the path P3, where every edge lies
    in a clique of its own, so no search runs.  A hit is served under
    any budget."""
    g = decode_graph6(g6)
    if nodes:
        set_budget("NODE_BUDGET", nodes - 1)
        with pytest.raises(ResourceLimitError, match=f"exceeded {nodes - 1} nodes"):
            eta(g)
    set_budget("NODE_BUDGET", nodes)
    assert eta(g)[0] == value
    monkeypatch.setattr(invariants, "NODE_BUDGET", -1)
    assert eta(g)[0] == value


def test_eta_witness_bits_round_trip_past_64_bits():
    """A cache entry is one int, with bit u*n + v per witness edge, and
    its popcount is eta; on 40 vertices the bits pass 64."""
    g = gnp(40, 1, 10, 0)
    value, witness = eta(g)
    edges = witness.sorted_edges()
    assert max(u * g.n + v for u, v in edges) >= 64
    assert all(u < v and g.has_edge(u, v) for u, v in edges)
    assert len(edges) == value and is_clique_disjoint(g, edges)
    entry = invariants._eta_cached(rows_key(g.adj))
    assert type(entry) is int and entry.bit_count() == value and entry.bit_length() > 64
    assert entry == sum(1 << u * g.n + v for u, v in edges)


def test_mis_resource_cap_raises(set_budget):
    cg = conflict_graph(sierpinski(2))
    set_budget("NODE_BUDGET", 3)
    with pytest.raises(ResourceLimitError):
        max_independent_set(cg.adj)


# -- longest induced path -----------------------------------------------------

@pytest.mark.parametrize(
    "g, want",
    [
        (path(5), 4),
        (fig2_closed(), 3),
        (sierpinski(1), 3),
        (net(), 3),
        (complete(6), 1),
        (Graph.from_edge_list(1, []), 0),
        (sierpinski(2), 8),
        (sierpinski(3), 24),
    ],
)
def test_longest_induced_path_values(g, want):
    total, witnesses = longest_induced_path(g)
    assert total == want
    assert len(witnesses) == len(g.component_masks())
    for w in witnesses:
        for i, j in combinations(range(len(w)), 2):
            assert g.has_edge(w[i], w[j]) == (j == i + 1)


def test_longest_induced_path_sums_over_components():
    g = union([path(4), complete(3), Graph.from_edge_list(1, [])])
    assert longest_induced_path(g)[0] == 3 + 1 + 0


def test_longest_induced_path_matches_brute_force_exhaustive_n4():
    for g in all_labeled(4):
        assert longest_induced_path(g)[0] == brute_longest_induced_path(g)


def test_longest_induced_path_matches_brute_force_exhaustive_n5():
    for g in all_labeled(5):
        assert longest_induced_path(g)[0] == brute_longest_induced_path(g)


@given(graphs_up_to_10())
@settings(max_examples=200, deadline=None)
def test_longest_induced_path_matches_subset_brute_force(g):
    total, witnesses = longest_induced_path(g)
    assert total == brute_longest_induced_path_subsets(g)
    comps = g.component_masks()
    assert len(witnesses) == len(comps)
    for w, comp in zip(witnesses, comps):
        assert len(set(w)) == len(w) and all(comp >> v & 1 for v in w)
        for i, j in combinations(range(len(w)), 2):
            assert g.has_edge(w[i], w[j]) == (j == i + 1)
    assert sum(len(w) - 1 for w in witnesses) == total


@pytest.mark.parametrize("g, pack_after, value, count", [
    (sierpinski(3), invariants._PACK_AFTER, 24, 49_128),
    (sierpinski(3), 0, 24, 47_342),
    (gnp(40, 1, 10, 0), invariants._PACK_AFTER, 19, 20_008),
], ids=["sierpinski3", "sierpinski3-pack0", "gnp40"])
def test_longest_induced_path_node_budget(monkeypatch, set_budget, g, pack_after, value, count):
    """The search expands exactly ``count`` nodes: that many pass the
    budget, one fewer does not."""
    monkeypatch.setattr(invariants, "_PACK_AFTER", pack_after)
    set_budget("NODE_BUDGET", count)
    assert longest_induced_path(g)[0] == value
    set_budget("NODE_BUDGET", count - 1)
    with pytest.raises(ResourceLimitError):
        longest_induced_path(g)


def test_longest_induced_path_budget_spans_components(set_budget):
    """sierpinski(2) expands 55 search nodes; two copies share one
    budget of 110."""
    one, two = sierpinski(2), union([sierpinski(2), sierpinski(2)])
    for g, value, count in [(one, 8, 55), (two, 16, 110)]:
        set_budget("NODE_BUDGET", count)
        assert longest_induced_path(g)[0] == value
        set_budget("NODE_BUDGET", count - 1)
        with pytest.raises(ResourceLimitError):
            longest_induced_path(g)


def _check_lip_witnesses(g, total, witnesses):
    assert all(is_induced_path(g, w) for w in witnesses)
    assert all(w[0] <= w[-1] for w in witnesses)
    assert sum(len(w) - 1 for w in witnesses) == total


@pytest.mark.parametrize("g, want", [
    # a spider whose least vertex is its centre: its leaves are rooted
    # first, so the longest path 4-3-2-0-5-6 is walked from the leaf 4,
    # and its other end 6 is a leaf in the rest of each node on the way
    (Graph.from_edge_list(7, [(0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6)]), 5),
    # C4: at the side-A node 0-1, the candidate 2 and the start 3 are
    # adjacent, so the node may count only one of them
    (cycle(4), 2),
    # the longest path 7-0-5-2-3-9 has root 7, rooted after 1 and 8, two
    # vertices of the triangle 1-2-8; a packing that kept it would count
    # it as wholly in rest wherever 2 is
    (Graph.from_edge_list(10, [(0, 4), (0, 5), (0, 7), (1, 2), (1, 8), (2, 3), (2, 5),
                               (2, 6), (2, 8), (3, 6), (3, 9), (4, 5), (4, 7), (6, 9)]), 5),
])
def test_longest_induced_path_two_sides_from_the_root(monkeypatch, g, want):
    monkeypatch.setattr(invariants, "_PACK_AFTER", 0)
    total, witnesses = longest_induced_path(g)
    assert total == want == brute_longest_induced_path_subsets(g)
    _check_lip_witnesses(g, total, witnesses)
    assert (total, witnesses) == ref_longest_induced_path(g)


def test_longest_induced_path_roots_at_a_least_degree_vertex():
    """K_{2,3} with parts {0, 1} and {2, 3, 4}: the degree-2 vertex 2
    is the first root, not the least vertex 0 (whose walk would find
    0-2-1 first), and its first path grows through 0 to 3."""
    g = decode_graph6("D]o")
    assert g.edges() == [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    assert longest_induced_path(g) == (2, [[2, 0, 3]]) == ref_longest_induced_path(g)


@st.composite
def triangle_pendant_graphs(draw):
    """Up to 20 vertices: a sparse core, extra triangles on it, and
    pendant vertices hung on core vertices."""
    core = draw(st.integers(1, 14))
    vertex = st.integers(0, core - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * core))
    for a, b, c in draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=core)):
        edges += [(a, b), (b, c), (a, c)]
    hosts = draw(st.lists(vertex, max_size=20 - core))
    edges += [(h, core + i) for i, h in enumerate(hosts)]
    return Graph.from_edge_list(core + len(hosts), [(u, v) for u, v in edges if u != v])


@given(triangle_pendant_graphs())
@settings(max_examples=200, deadline=None)
def test_longest_induced_path_bounds_keep_witnesses(g):
    """With the triangle packing built before the first start vertex,
    value and witnesses equal the count-bound-only search."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_PACK_AFTER", 0)
        assert longest_induced_path(g) == ref_longest_induced_path(g)


def test_longest_induced_path_bounds_keep_witnesses_exhaustive_n6(monkeypatch):
    """Small graphs make the count bound tight, where an inadmissible
    correction shows."""
    monkeypatch.setattr(invariants, "_PACK_AFTER", 0)
    for n in range(1, 7):
        for g in all_labeled(n):
            assert longest_induced_path(g) == ref_longest_induced_path(g)


_PACK_POINTS = (1, 7, 50, 400)


def _assert_packing_time_keeps_results(g):
    want = ref_longest_induced_path(g)
    with pytest.MonkeyPatch.context() as mp:
        for pack_after in _PACK_POINTS:
            mp.setattr(invariants, "_PACK_AFTER", pack_after)
            assert longest_induced_path(g) == want, pack_after


@pytest.mark.parametrize("g", [
    sierpinski(2),
    sierpinski(3),
    # the root 7 packs 0-2-3, 1-6-9 and 4-5-8; the next root, 5, breaks
    # 4-5-8, and the packing built after it lays out two triangles, so a
    # plane mask of the old layout passed on from the root would take
    # the value from 5 to 4
    decode_graph6("ItCI?@lO_"),
], ids=["sierpinski2", "sierpinski3", "rebuilt"])
def test_longest_induced_path_packing_time_keeps_results(g):
    """The packing arrives inside a root's search, with frames open
    above it, and is built again after later roots that break a packed
    triangle; wherever that happens, value and witnesses stay those of
    the count-bound-only search."""
    _assert_packing_time_keeps_results(g)


@given(triangle_pendant_graphs())
@settings(max_examples=50, deadline=None)
def test_longest_induced_path_packing_time_keeps_results_triangle_pendant(g):
    _assert_packing_time_keeps_results(g)


def test_triangle_planes_packs_sierpinski_3_perfectly():
    """The 45 vertices of sierpinski(3) split into 15 triangles; the
    lowest-first greedy that packed before stopped at 13."""
    g = sierpinski(3)
    triangles, packed, _, _ = invariants._triangle_planes(g.adj, (1 << g.n) - 1)
    assert len(triangles) == 15
    assert packed == (1 << g.n) - 1


@given(triangle_pendant_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_triangle_planes_lays_out_disjoint_triangles(g, rng):
    """Each packed triple is a triangle of G inside the given vertices,
    the triples are disjoint, ``packed`` is their union, and ``own`` and
    ``adjp`` give member j of triangle i the plane bit ``i + j*t``."""
    verts = rng.getrandbits(g.n) if rng.random() < 0.5 else (1 << g.n) - 1
    triangles, packed, own, adjp = invariants._triangle_planes(g.adj, verts)
    t = len(triangles)
    union_of = 0
    for tri in triangles:
        assert all(verts >> v & 1 for v in tri)
        assert all(g.has_edge(u, v) for u, v in combinations(tri, 2))
        for v in tri:
            assert not union_of >> v & 1
            union_of |= 1 << v
    assert packed == union_of
    want = [0] * g.n
    for i, tri in enumerate(triangles):
        for j, u in enumerate(tri):
            want[u] = 1 << (i + j * t)
    assert own == want
    assert adjp == [sum(want[u] for u in range(g.n) if g.has_edge(u, v)) for v in range(g.n)]


@given(triangle_pendant_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_longest_induced_path_relabelled_triangle_pendant_graphs(g, rng):
    """Relabelled, packed triangles and pendant vertices also fall below
    the roots.  Values against the one-sided search, which meets each
    path from both of its ends (subset enumeration is out of reach at 20
    vertices)."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_PACK_AFTER", 0)
        total, witnesses = longest_induced_path(h)
    assert total == ref_longest_induced_path_one_sided(h)
    _check_lip_witnesses(h, total, witnesses)
    assert (total, witnesses) == ref_longest_induced_path(h)


def test_longest_induced_path_matches_one_sided_search_exhaustive_n6():
    for n in range(1, 7):
        for g in all_labeled(n):
            assert longest_induced_path(g)[0] == ref_longest_induced_path_one_sided(g)


@pytest.mark.parametrize(
    "g",
    [sierpinski(1), sierpinski(2), sierpinski(3)]
    + [gnp(40, 1, 10, s) for s in range(3)]
    + [gnp(n, 3, 4, 0) for n in (18, 19, 20)],
)
def test_longest_induced_path_witnesses_match_reference(g):
    """Every graph of the benchmark's eta_family panel."""
    total, witnesses = longest_induced_path(g)
    assert (total, witnesses) == ref_longest_induced_path(g)
    assert total == ref_longest_induced_path_one_sided(g)
    _check_lip_witnesses(g, total, witnesses)


# -- constructive extension ----------------------------------------------------

def test_extension_c4_fill_in_case():
    g = cycle(4)
    out = extend_clique_disjoint(g, 0, [(1, 3)])
    assert out.edges == frozenset({(0, 1), (0, 3)})


def test_extension_p3_middle_vertex():
    g = path(3)
    out = extend_clique_disjoint(g, 1, [(0, 2)])
    assert out.edges == frozenset({(0, 1), (1, 2)})


def test_extension_net_from_optimum_of_saturation():
    g = net()
    gv = g.saturate(0)
    size, h = eta(gv)
    out = extend_clique_disjoint(g, 0, h)
    assert len(out) == size + 1
    assert is_clique_disjoint(g, out.edges)


def test_extension_rejects_free_vertex():
    with pytest.raises(ValueError):
        extend_clique_disjoint(net(), 3, [])


def test_extension_rejects_invalid_input_set():
    g = cycle(4)
    gv = g.saturate(0)
    assert in_common_clique(gv, (0, 1), (1, 3))
    with pytest.raises(ValueError):
        extend_clique_disjoint(g, 0, [(0, 1), (1, 3)])


def test_extension_grows_eta_exhaustively_n5():
    """eta(G_v) < eta(G) and eta(G-v) <= eta(G) for every non-free v."""
    for g in all_labeled(5):
        e = eta(g)[0]
        for v in range(g.n):
            if g.is_free_vertex(v):
                continue
            assert eta(g.saturate(v))[0] < e
            assert eta(g.minus_vertex(v))[0] <= e


def test_extension_randomized_instances():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(3, 10)
        g = gnp(n, rng.randint(1, 3), 4, rng.randrange(2 ** 31))
        nonfree = [v for v in range(n) if not g.is_free_vertex(v)]
        if not nonfree:
            continue
        v = rng.choice(nonfree)
        gv = g.saturate(v)
        cg = conflict_graph(gv)
        order = list(range(cg.n()))
        rng.shuffle(order)
        mask = 0
        chosen = []
        for i in order:
            if not (cg.adj[i] & mask):
                mask |= 1 << i
                chosen.append(cg.edge_index[i])
        h = chosen[: rng.randint(0, len(chosen))]
        out = extend_clique_disjoint(g, v, h)
        assert len(out) == len(h) + 1
        assert is_clique_disjoint(g, out.edges)


def test_eta_hat_equals_eta():
    rng = random.Random(5)
    for _ in range(50):
        g = gnp(7, 1, 3, rng.randrange(2 ** 31))
        assert eta(g)[0] == eta(ref_strip_isolated(g))[0]
