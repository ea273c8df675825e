import copy
import pickle
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from beibounds import invariants, regularity
from beibounds.graphio import decode_graph6, encode_graph6
from beibounds.graphs import (
    Graph,
    bits,
    canonical_rows,
    components,
    edge,
    key_rows,
    minus_vertex_rows,
    rows_key,
    stripped_key,
    triangles,
)
from beibounds.invariants import eta
from beibounds.generators import all_labeled, complete, gnp, net, path, union

from brute import (
    brute_free_vertex,
    brute_iv,
    cut_signature,
    ref_components,
    ref_induced_delete,
    ref_saturate,
    ref_strip_isolated,
    vertex_keys,
    with_injected_isolates,
)


def test_from_edge_list_path():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.n == 3


def test_from_edge_list_single_vertex():
    g = Graph.from_edge_list(1, [])
    assert g.n == 1 and g.edges() == []


def test_from_edge_list_duplicates_collapse():
    g = Graph.from_edge_list(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@pytest.mark.parametrize("bad", [[(0, 3)], [(3, 0)], [(-1, 0)]])
def test_from_edge_list_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, bad)


@pytest.mark.parametrize("build, message", [
    (lambda: path(3).has_edge(5, 0), "vertex 5 out of range for n=3"),
    (lambda: Graph(2, (0,)), "adjacency length does not match vertex count"),
    (lambda: Graph.from_edge_list(-1, []), "vertex count must be non-negative"),
    # the public transforms check v; the row helpers behind them do not
    (lambda: path(3).minus_vertex(3), "vertex 3 out of range for n=3"),
    (lambda: path(3).saturate(-1), "vertex -1 out of range for n=3"),
])
def test_malformed_graphs_and_vertices_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(1, 1)])


def test_edge_normalizes():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_net_graph_structure():
    g = net()
    assert g.n == 6 and g.edge_count() == 6
    assert g.is_clique(0b111)


def test_induced_delete_middle_of_path():
    g = path(3).induced_delete([1])
    assert g.n == 2 and g.edges() == []


def test_induced_delete_pendant_of_net():
    g = net().induced_delete([3])
    assert g.n == 5 and g.edge_count() == 5


def test_induced_delete_complete():
    assert complete(4).minus_vertex(2) == complete(3)


def test_equal_graphs_from_every_builder_compare_and_hash_equal():
    """A triangle with a pendant, read from graph6, from an edge list
    and by saturating the middle of a path."""
    built = [
        decode_graph6(encode_graph6(Graph.from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))),
        Graph.from_edge_list(4, [(2, 3), (1, 2), (0, 2), (0, 1)]),
        Graph.from_edge_list(4, [(0, 1), (0, 2), (2, 3)]).saturate(0),
    ]
    first = built[0]
    assert all(g == first and hash(g) == hash(first) for g in built)
    assert not any(g != first for g in built)
    assert len(set(built)) == 1
    assert first != Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])


def test_equal_graphs_share_one_eta_cache_entry():
    invariants._eta_cached.cache_clear()
    a = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    b = decode_graph6(encode_graph6(a))
    assert a is not b
    assert eta(a)[0] == eta(b)[0] == 3
    info = invariants._eta_cached.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _assert_vertex_keys_match_packed_rows(g):
    """Every derived key is the key of the literal rows of G - v or
    G_v, and the key of G_v differs from G's exactly at a non-free v."""
    key = rows_key(g.adj)
    nonfree = g.nonfree_mask()
    got = list(vertex_keys(key, g.n, g.full_mask()))
    assert [v for v, _, _ in got] == list(range(g.n))
    for v, minus, saturated in got:
        assert minus == rows_key(minus_vertex_rows(g.adj, v)), (g, v)
        assert saturated == rows_key(g.saturate(v).adj), (g, v)
        assert (saturated != key) == bool(nonfree >> v & 1), (g, v)


def test_vertex_keys_match_packed_rows_exhaustive_n6():
    for n in range(7):
        for g in all_labeled(n):
            _assert_vertex_keys_match_packed_rows(g)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 63, 64, 65])
def test_vertex_keys_match_packed_rows_across_slot_widths(n):
    """Rows take one byte up to n = 7, then two, four, eight and sixteen
    bytes up to 15, 31, 63 and 127, so G - v repacks at n = 8, 16, 32
    and 64."""
    for p_num, seed in [(0, 0), (1, 0), (1, 1), (2, 0), (3, 0), (4, 0)]:
        _assert_vertex_keys_match_packed_rows(gnp(n, p_num, 4, seed))


def test_vertex_keys_follow_the_mask():
    g = net()
    key = rows_key(g.adj)
    assert list(vertex_keys(key, g.n, 0)) == []
    assert [v for v, _, _ in vertex_keys(key, g.n, 0b100101)] == [0, 2, 5]


def test_stripped_key_is_the_key_of_the_stripped_graph_n6():
    for n in range(7):
        for g in all_labeled(n):
            if 0 in g.adj:
                assert stripped_key(rows_key(g.adj), g.adj) == rows_key(ref_strip_isolated(g).adj), g


@pytest.mark.parametrize("n", [8, 9, 16, 17, 33, 65])
def test_stripped_key_repacks_across_slot_widths(n):
    """Dropping isolated vertices may cross to narrower slots (below 8,
    16, 32 and 64 vertices) once or more."""
    for isolates in ([0], [n - 2, 2], [1] * (n // 2)):
        g = with_injected_isolates(gnp(n - len(isolates), 1, 2, n), isolates)
        assert stripped_key(rows_key(g.adj), g.adj) == rows_key(ref_strip_isolated(g).adj), g


def test_key_rows_inverts_rows_key():
    graphs = [g for n in range(6) for g in all_labeled(n)]
    graphs += [gnp(n, p_num, 4, 0) for n in (7, 8, 9, 15, 16, 17, 40, 63, 64, 65, 127, 128)
               for p_num in range(5)]
    keys = set()
    for g in graphs:
        key = rows_key(g.adj)
        assert type(key) is int and key_rows(key) == g.adj
        keys.add(key)
    assert len(keys) == len({g.adj for g in graphs})


def test_keys_of_different_vertex_counts_differ():
    """The top bit fixes n: the edgeless graphs on 0..129 vertices,
    whose rows are all 0, get 130 different keys."""
    keys = [rows_key((0,) * n) for n in range(130)]
    assert len(set(keys)) == 130
    assert [key_rows(key) for key in keys] == [(0,) * n for n in range(130)]


def test_graph_repr_and_foreign_equality():
    g = path(3)
    assert repr(g) == "Graph(n=3, adj=(2, 5, 2))"
    assert g != (3, g.adj) and (3, g.adj) != g
    assert g != g.adj


def test_graph_fields_cannot_be_assigned_or_deleted():
    """Graphs are cache keys, so a write to ``n`` or ``adj`` is refused
    and the graph keeps its value and hash."""
    g = path(3)
    before = hash(g)
    for name, value in (("n", 4), ("adj", (0, 0, 0)), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    for name in ("n", "adj"):
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g == path(3) and hash(g) == before and g.n == 3


def test_graph_pickles_and_copies():
    g = net()
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert twin.__class__ is Graph and twin == g and hash(twin) == hash(g)


def test_saturate_path_middle_gives_triangle():
    assert path(3).saturate(1) == complete(3)


def test_saturate_isolated_is_identity():
    g = union([path(3), complete(1)])
    assert g.saturate(3) == g


def test_saturate_c4_gives_diamond():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    d = g.saturate(0)
    assert d.has_edge(1, 3) and not d.has_edge(0, 2)
    assert d.edge_count() == 5


def test_free_vertices_of_net():
    g = net()
    assert g.is_free_vertex(3)      # pendant: one neighbor
    assert not g.is_free_vertex(0)  # triangle vertex with a pendant
    assert all(complete(5).is_free_vertex(v) for v in range(5))


def test_internal_vertex_count_against_brute_force():
    assert net().internal_vertex_count() == brute_iv(net()) == 3
    assert path(4).internal_vertex_count() == brute_iv(path(4)) == 2
    assert union([complete(3), complete(2)]).internal_vertex_count() == 0


def test_nonfree_mask_matches_brute_force_exhaustive_n5():
    """One pass gives the non-free vertices, and a graph with none is
    exactly a disjoint union of complete graphs."""
    for n in range(1, 6):
        for g in all_labeled(n):
            mask = g.nonfree_mask()
            assert mask == sum(1 << v for v in range(n) if not brute_free_vertex(g, v))
            assert (g.completes_decomposition() is not None) == (mask == 0)


def test_completes_decomposition():
    assert union([complete(3), complete(2)]).completes_decomposition() == [3, 2]
    assert path(3).completes_decomposition() is None
    assert union([complete(2), complete(1)]).completes_decomposition() == [2, 1]


def test_cut_signature():
    assert cut_signature(path(3), [1]) == [(0,), (2,)]
    assert cut_signature(net(), [0, 1, 2]) == [(3,), (4,), (5,)]
    assert cut_signature(net(), []) == [(0, 1, 2, 3, 4, 5)]


def test_canonical_rows_count_the_classes():
    """One canonical form per isomorphism class: 1, 2, 4, 11 and 34
    classes on 1..5 vertices (OEIS A000088)."""
    counts = [len({canonical_rows(g.adj) for g in all_labeled(n)}) for n in range(1, 6)]
    assert counts == [1, 2, 4, 11, 34]


def _is_relabelling(a: Graph, b: Graph) -> bool:
    """Some permutation of a's vertices maps its edges onto b's."""
    edges = {frozenset(e) for e in b.edges()}
    return a.n == b.n and any(
        {frozenset((p[u], p[v])) for u, v in a.edges()} == edges
        for p in permutations(range(a.n))
    )


@given(st.integers(0, regularity.CANONICAL_MAX_N), st.integers(0, 4), st.integers(0, 2 ** 16),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_canonical_rows_ignore_the_labelling(n, p_num, seed, rng):
    g = gnp(n, p_num, 4, seed)
    perm = rng.sample(range(n), n)
    h = Graph.from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()])
    rows = canonical_rows(g.adj)
    assert canonical_rows(h.adj) == rows
    assert _is_relabelling(g, Graph(n, rows))


def small_graphs(max_n=5):
    return st.integers(0, 2 ** 10 - 1).flatmap(
        lambda m: st.integers(1, max_n).map(
            lambda n: _mask_graph(n, m)
        )
    )


def _mask_graph(n, mask):
    from itertools import combinations

    pairs = list(combinations(range(n), 2))
    return Graph.from_edge_list(n, [pairs[k] for k in bits(mask % (1 << len(pairs)) if pairs else 0)])


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_saturate_idempotent_and_contains_g(g):
    for v in range(g.n):
        gv = g.saturate(v)
        assert gv.saturate(v) == gv
        assert all(gv.adj[u] & g.adj[u] == g.adj[u] for u in range(g.n))


@given(
    st.integers(0, 14).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1), st.integers(0, 2 ** n - 1)
    ))
)
@settings(max_examples=300, deadline=None)
def test_transforms_match_dict_relabelling_reference(args):
    n, edge_mask, drop_mask = args
    g = _mask_graph(n, edge_mask)
    drop = list(bits(drop_mask))
    assert g.induced_delete(drop) == ref_induced_delete(g, drop)
    for v in range(n):
        assert g.minus_vertex(v) == ref_induced_delete(g, [v])
        assert g.saturate(v) == ref_saturate(g, v)
    # the same graph with the drop set cut off, so its isolated vertices are dropped
    h = Graph(n, tuple(0 if drop_mask >> v & 1 else row & ~drop_mask
                       for v, row in enumerate(g.adj)))
    for graph in (g, h):
        isolated = [v for v in range(n) if not graph.adj[v]]
        assert graph.induced_delete(isolated) == ref_induced_delete(graph, isolated)


_EDGE_MASKS = st.one_of(
    st.integers(0, 2 ** 91 - 1),  # about half of the pairs: few components
    st.sets(st.integers(0, 90), max_size=16).map(lambda ks: sum(1 << k for k in ks)),
)


@given(st.integers(0, 14), _EDGE_MASKS, st.integers(0, 2 ** 14 - 1))
@settings(max_examples=300, deadline=None)
def test_components_match_bfs_reference(n, edge_mask, keep):
    g = _mask_graph(n, edge_mask)
    keep &= g.full_mask()
    want = ref_components(g, bits(keep))
    assert [tuple(bits(m)) for m in components(g.adj, keep)] == want
    assert cut_signature(g, bits(g.full_mask() & ~keep)) == want
    subs = g.component_subgraphs()
    assert [tuple(back) for _, back in subs] == ref_components(g, range(n))
    for sub, back in subs:
        assert sub == ref_induced_delete(g, set(range(n)) - set(back))


@given(st.integers(0, 14), _EDGE_MASKS, st.integers(0, 2 ** 14 - 1))
@settings(max_examples=300, deadline=None)
def test_triangles_match_the_triple_filter(n, edge_mask, verts):
    """The triangles inside ``verts`` as sorted triples, in
    lexicographic order, as filtering every triple of them gives."""
    g = _mask_graph(n, edge_mask)
    verts &= g.full_mask()
    want = [t for t in combinations(bits(verts), 3)
            if all(g.has_edge(u, v) for u, v in combinations(t, 2))]
    assert triangles(g.adj, verts) == want


def test_induced_delete_matches_reference_on_many_word_rows():
    # 130 labels span three machine words; the drop sets cross the word
    # boundaries and range from six labels to all but one
    n = 130
    g = _mask_graph(n, random.Random(5).getrandbits(n * (n - 1) // 2))
    for drop in (range(0, n, 2), range(1, n, 3), range(40, 100), range(1, n),
                 [0, 63, 64, 65, 127, 129]):
        assert g.induced_delete(drop) == ref_induced_delete(g, drop)


def test_minus_vertex_matches_reference_on_many_word_rows():
    # the one-shift deletion carries bits across the word boundaries
    n = 131
    g = _mask_graph(n, random.Random(6).getrandbits(n * (n - 1) // 2))
    for v in (0, 1, 62, 63, 64, 65, 100, 127, 128, 129, 130):
        assert g.minus_vertex(v) == ref_induced_delete(g, [v])


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_completes_decomposition_iff_iv_zero(g):
    assert (g.completes_decomposition() is not None) == (g.internal_vertex_count() == 0)


def test_iv_drop_lemma_exhaustive_n4():
    for g in all_labeled(4):
        iv = g.internal_vertex_count()
        for v in range(g.n):
            if g.is_free_vertex(v):
                continue
            gv = g.saturate(v)
            assert max(
                gv.internal_vertex_count(),
                g.minus_vertex(v).internal_vertex_count(),
                gv.minus_vertex(v).internal_vertex_count(),
            ) < iv


def test_supports_64_plus_vertices():
    g = gnp(70, 1, 3, 11)
    assert g.n == 70
    h = g.saturate(0)
    assert all(h.adj[u] & g.adj[u] == g.adj[u] for u in range(70))
