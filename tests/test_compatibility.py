from functools import cache

import pytest

from beibounds import invariants, regularity
from beibounds.compatibility import (
    NAMED_MAPS,
    KeyedMap,
    bound_chain,
    check_compatibility,
    clique_count_value,
    eta_value,
    induced_path_value,
    is_path_graph,
    iv_lemma_failures,
    iv_value,
    memoized,
    nonfree_vertex_failures,
    recursion_failures,
)
from beibounds.errors import ResourceLimitError
from beibounds.generators import (
    all_labeled, complete, cycle, fig2_closed, gnp, net, path, sierpinski, union,
)
from beibounds.graphs import CACHE_SIZE, Graph, bits, derived_keys, key_layout, key_rows, rows_key
from beibounds.invariants import eta, longest_induced_path, maximal_cliques
from beibounds.regularity import regularity_bei

from brute import (
    brute_compatibility,
    brute_free_vertex,
    brute_iv_lemma,
    brute_regularity_recursion,
    built_recursion_graphs,
    ref_eta,
    ref_strip_isolated,
    with_injected_isolates,
)


def test_eta_is_compatible_on_c4():
    rep = check_compatibility(eta_value, cycle(4))
    assert rep.passed
    assert rep.witness_vertex == 0
    assert rep.values["phi"] == 4
    assert rep.values["phi_saturated_witness"] == 2
    assert rep.values["phi_minus_witness"] == 2


def test_eta_is_compatible_on_complete_union():
    g = union([complete(3), complete(2)])
    rep = check_compatibility(eta_value, g)
    assert rep.passed
    assert rep.values["union_components"] == 2
    assert rep.values["phi"] == 2


def test_constant_zero_fails_condition_c():
    rep = check_compatibility(lambda g: 0, net())
    assert not rep.pass_c
    assert rep.counterexample["condition"] == "c"


def test_constant_zero_fails_condition_b():
    rep = check_compatibility(lambda g: 0, union([complete(2), complete(2)]))
    assert not rep.pass_b


def test_condition_a_failure_detected():
    # a map that shrinks in the presence of isolated vertices
    phi = lambda g: max(0, eta_value(g) - g.adj.count(0))
    g = union([complete(2), complete(1)])
    rep = check_compatibility(phi, g)
    assert not rep.pass_a
    assert rep.counterexample["condition"] == "a"


def test_strong_form_clean_on_named_graphs():
    for g in [net(), fig2_closed(), cycle(5), sierpinski(1)]:
        assert nonfree_vertex_failures(memoized(eta_value), g) == []


def test_iv_lemma_net_triangle_vertex():
    g = net()
    assert g.internal_vertex_count() == 3
    assert g.saturate(0).internal_vertex_count() == 2
    assert g.minus_vertex(0).internal_vertex_count() == 2
    assert list(iv_lemma_failures(g)) == []


def test_iv_lemma_p4_and_c4():
    assert list(iv_lemma_failures(path(4))) == []
    assert list(iv_lemma_failures(cycle(4))) == []


def test_recursion_inequality_examples():
    for g in [path(3), net(), complete(2)]:
        assert list(recursion_failures(g)) == [], g


def _edge_count_mod_4(g):
    return g.edge_count() % 4


def _nonfree(g):
    return [v for v in range(g.n) if not brute_free_vertex(g, v)]


def test_vertex_checks_yield_the_vertices_the_built_graph_references_fail_n5(patch_map):
    """On every labeled graph with n <= 5, ``recursion_failures`` and
    ``iv_lemma_failures`` yield, in ascending order, exactly the
    non-free vertices at which their references fail on the graphs that
    ``saturate`` and ``minus_vertex`` build.  With ``edges mod 4`` as
    the reg map, which breaks the inequality at some vertices, the map
    sees G once and then G_v, G - v and G_v - v at each non-free v."""
    reg = lambda g: regularity_bei(g).value
    graphs = [g for n in range(6) for g in all_labeled(n)]
    for g in graphs:
        assert list(recursion_failures(g)) == [
            v for v in _nonfree(g) if not brute_regularity_recursion(reg, g, v)], g
        assert list(iv_lemma_failures(g)) == [
            v for v in _nonfree(g) if not brute_iv_lemma(g, v)], g
    seen = []
    patch_map("reg", lambda h, real: seen.append(h) or _edge_count_mod_4(h))
    verdicts = set()
    for g in graphs:
        seen.clear()
        held = {v: brute_regularity_recursion(_edge_count_mod_4, g, v) for v in _nonfree(g)}
        assert list(recursion_failures(g)) == [v for v, ok in held.items() if not ok], g
        assert seen == [g] + [h for v in held for h in built_recursion_graphs(g, v)[:3]], g
        verdicts.update(held.values())
    assert verdicts == {True, False}


def test_is_path_graph():
    assert is_path_graph(path(1))
    assert is_path_graph(path(2))
    assert is_path_graph(path(5))
    assert not is_path_graph(cycle(4))
    assert not is_path_graph(union([path(2), path(2)]))
    assert not is_path_graph(net())


def test_bound_chain_net():
    rep = bound_chain(net())
    assert (rep.length_sum, rep.reg, rep.eta, rep.clique_count) == (3, 4, 4, 4)
    assert rep.passed
    assert rep.flags["reg=eta"] and not rep.flags["reg=L"]


def test_bound_chain_fig2():
    rep = bound_chain(fig2_closed())
    assert (rep.length_sum, rep.reg, rep.eta, rep.clique_count) == (3, 3, 4, 4)
    assert rep.passed
    assert rep.flags["reg=L"] and not rep.flags["reg=eta"]


def test_bound_chain_sierpinski_level1():
    rep = bound_chain(sierpinski(1))
    assert (rep.length_sum, rep.reg, rep.eta, rep.clique_count) == (3, 3, 3, 4)
    assert rep.flags["L=eta"] and rep.flags["reg=eta"] and not rep.flags["eta=c"]


def test_bound_chain_degrades_without_oracle(patch_map):
    def broken(g, real):
        raise ResourceLimitError("synthetic cap")

    patch_map("reg", broken)
    rep = bound_chain(path(4), with_reg=True)
    assert rep.reg is None
    assert rep.passed
    assert "reg=eta" not in rep.flags


# each id names the search behind the map
@pytest.mark.parametrize("name, map_name", [("L", "induced-path"), ("eta", "eta")],
                         ids=["L-longest_induced_path", "eta-eta"])
def test_bound_chain_skips_a_value_past_its_budget(patch_map, name, map_name):
    """A search that hits its budget leaves its value None, with the
    message, and drops every check and flag that needs it; the others
    stay.  A violation on the remaining values is still reported."""
    def capped(g, real):
        raise ResourceLimitError("synthetic budget")

    patch_map(map_name, capped)
    patch_map("reg", lambda g, real: 5)
    rep = bound_chain(net(), with_reg=True)
    assert rep.skipped == {name: "synthetic budget"}
    assert (rep.length_sum, rep.eta) == ((None, 4) if name == "L" else (3, None))
    assert (rep.clique_count, rep.reg) == (4, 5)
    assert all(name not in flag.split("=") for flag in rep.flags)
    assert [v["inequality"] for v in rep.violations] == (
        ["reg<=eta", "reg<=n-2"] if name == "L" else ["reg<=n-2"]
    )


def test_bound_chain_reads_the_values_of_the_searches():
    """Read through the keyed map caches, the chain's L, eta and c are
    the searches' own values on every labeled graph with n <= 4."""
    for n in range(5):
        for g in all_labeled(n):
            rep = bound_chain(g, with_reg=False)
            assert (rep.length_sum, rep.eta, rep.clique_count) == (
                longest_induced_path(g)[0], eta(g)[0], len(maximal_cliques(g)))


def test_bound_chain_flags_violations(patch_map):
    patch_map("reg", lambda g, real: 99)
    rep = bound_chain(path(4), with_reg=True)
    assert not rep.passed
    assert any(v["inequality"] == "reg<=eta" for v in rep.violations)


def test_compatibility_exhaustive_n4_for_eta():
    phi = memoized(eta_value)
    for g in all_labeled(4):
        assert check_compatibility(phi, g).passed
        assert nonfree_vertex_failures(phi, g) == []


def _edge_count_mod_3(g):
    return g.edge_count() % 3


@pytest.mark.parametrize(
    "phi, compatible",
    [(eta_value, True), (clique_count_value, True), (induced_path_value, False),
     (_edge_count_mod_3, False)],
    ids=["eta", "clique-count", "induced-path", "edges-mod-3"],
)
def test_compatibility_matches_every_vertex_reference_n5(phi, compatible):
    phi = memoized(phi)
    passed = set()
    for n in range(6):
        for g in all_labeled(n):
            ref = brute_compatibility(phi, g)
            want = (ref["passed"], ref["witness_vertex"], ref["values"],
                    ref["counterexample"])
            for strong, want_strong in [(False, None), (True, ref["strong"])]:
                rep = check_compatibility(phi, g, strong=strong)
                got = (rep.passed, rep.witness_vertex, rep.values, rep.counterexample)
                assert got == want, (g, strong)
                assert rep.strong_failures == want_strong, (g, strong)
            assert nonfree_vertex_failures(phi, g) == ref["strong"], g
            passed.add(rep.passed)
    assert passed == ({True} if compatible else {True, False})


def test_chain_exhaustive_n4_with_reg():
    for g in all_labeled(4):
        rep = bound_chain(g, with_reg=True)
        assert rep.passed, (g, rep.violations)


def test_nonfree_vertex_values_builds_g_minus_v_and_g_v():
    """The keys that ``check_compatibility`` derives from G's at each
    non-free vertex unpack to the same graphs as the checked
    ``minus_vertex`` and ``saturate``, and eta reads the same values by
    them as on those graphs."""
    for n in range(1, 6):
        layout = key_layout(n)
        for g in all_labeled(n):
            key = rows_key(g.adj)
            for v in bits(g.nonfree_mask()):
                minus, sat = g.minus_vertex(v), g.saturate(v)
                minus_key, sat_key = derived_keys(key, v, layout)
                assert (key_rows(minus_key), key_rows(sat_key)) == (minus.adj, sat.adj), (g, v)
                assert (eta_value.of_key(minus_key), eta_value.of_key(sat_key)) == (
                    eta(minus)[0], eta(sat)[0]), (g, v)


@pytest.mark.parametrize("map_name", sorted(NAMED_MAPS))
def test_named_maps_read_derived_graphs_by_key(map_name):
    """Each named map, read by the keys of G - v and G_v derived from
    G's, and called on the built graphs G, G - v and G_v, gives the
    values of its plain map."""
    phi = NAMED_MAPS[map_name]
    plain = {"eta": lambda g: eta(g)[0], "clique-count": clique_count_value,
             "induced-path": induced_path_value}[map_name]
    for g in [net(), cycle(5), fig2_closed(), union([path(3), complete(1)])]:
        key, layout = rows_key(g.adj), key_layout(g.n)
        for v in bits(g.nonfree_mask()):
            minus, sat = g.minus_vertex(v), g.saturate(v)
            want = (plain(minus), plain(sat))
            assert tuple(map(phi.of_key, derived_keys(key, v, layout))) == want, (g, v)
            assert (phi(minus), phi(sat)) == want, (g, v)
        assert phi(g) == plain(g)


def test_invariant_caches_are_bounded():
    # --exhaustive 7 reaches about 2M labeled graphs; 1 << 16 entries
    # still hold every labeled graph with n <= 6
    assert CACHE_SIZE >= 1 << 16
    for cached in (invariants._eta_cached, regularity._reg_cached, iv_value,
                   NAMED_MAPS["clique-count"], NAMED_MAPS["induced-path"]):
        assert cached.cache_info().maxsize == CACHE_SIZE


def test_memoized_keys_each_labeled_graph_by_one_int():
    """A memoized map calls phi once per labeled graph, on a graph equal
    to the one asked for; equal graphs built apart share the entry, and
    the edgeless graphs on 0..4 vertices, whose rows are all 0, get an
    entry each."""
    seen = []
    phi = memoized(lambda g: seen.append(g) or g.edge_count())
    graphs = [g for n in range(5) for g in all_labeled(n)]
    assert [phi(g) for g in graphs] == [g.edge_count() for g in graphs]
    assert seen == graphs
    assert [phi(Graph(g.n, tuple(g.adj))) for g in graphs] == [g.edge_count() for g in graphs]
    info = phi.cache_info()
    assert (info.misses, info.hits) == (len(graphs), len(graphs))
    phi.cache_clear()
    assert phi.cache_info().currsize == 0


def test_plain_map_is_called_on_g_its_stripped_graph_and_the_derived_graphs():
    """A map that is not keyed is called, in read order, on graphs equal
    to G, to G minus its isolated vertices when it has any, and to
    G - v and G_v at each non-free v; without the strong form the reads
    stop at the witness of (c).  eta is compatible, so no (c)
    counterexample reads more."""
    for n in range(6):
        for g in all_labeled(n):
            eta_g = eta(g)[0]
            head = [g] + ([ref_strip_isolated(g)] if 0 in g.adj else [])
            rows, upto_witness = [], None
            for v in range(n):
                if brute_free_vertex(g, v):
                    continue
                minus, sat = g.minus_vertex(v), g.saturate(v)
                rows += [minus, sat]
                if upto_witness is None and eta(minus)[0] <= eta_g and eta(sat)[0] < eta_g:
                    upto_witness = len(rows)
            for strong, want in [(False, head + rows[:upto_witness]), (True, head + rows)]:
                seen = []
                assert check_compatibility(lambda h: seen.append(h) or eta(h)[0], g,
                                           strong=strong).passed
                assert seen == want, (g, strong)


# each named map's plain callable, computed with no cache
_PLAIN_MAPS = {"eta": lambda g: ref_eta(g)[0], "clique-count": clique_count_value,
               "induced-path": induced_path_value}


def _assert_named_map_matches_the_reference(map_name, plain, g):
    """``check_compatibility`` on the named map gives the report fields
    and strong-form failures of ``brute_compatibility`` on ``plain``."""
    ref = brute_compatibility(plain, g)
    want = (ref["passed"], ref["witness_vertex"], ref["values"], ref["counterexample"])
    for strong, want_strong in [(False, None), (True, ref["strong"])]:
        rep = check_compatibility(NAMED_MAPS[map_name], g, strong=strong)
        assert (rep.passed, rep.witness_vertex, rep.values, rep.counterexample) == want, (
            g, map_name, strong)
        assert rep.strong_failures == want_strong, (g, map_name, strong)


@pytest.mark.parametrize("map_name", sorted(NAMED_MAPS))
def test_keyed_reads_give_the_plain_maps_report_n5(map_name):
    """Read by keys derived from G's, each named map gives the report
    that the every-vertex reference gives on its plain callable, with
    and without the strong form, on every labeled graph with n <= 5.
    The reference map is cached by graph, apart from the code checked."""
    plain = cache(_PLAIN_MAPS[map_name])
    for n in range(6):
        for g in all_labeled(n):
            _assert_named_map_matches_the_reference(map_name, plain, g)


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
def test_keyed_reads_give_the_plain_maps_report_across_slot_widths(n):
    """G - v and G minus its isolated vertices repack to narrower slots
    below n = 8 and 16; graphs on either side, with isolated vertices
    injected, read by key the every-vertex reference's reports."""
    plain = {"eta": lambda g: eta(g)[0], "clique-count": clique_count_value,
             "induced-path": induced_path_value}
    for p_num, seed, isolates in [(1, 0, []), (2, 1, [0]), (3, 2, [1, 1]), (2, 3, [0, n - 3])]:
        g = with_injected_isolates(gnp(n - len(isolates), p_num, 4, seed), isolates)
        for map_name, phi in plain.items():
            _assert_named_map_matches_the_reference(map_name, cache(phi), g)


@pytest.mark.parametrize("map_name", sorted(NAMED_MAPS))
def test_named_maps_reach_their_cache(map_name):
    """``cache_info`` and ``cache_clear`` reach each named map's cache."""
    phi = NAMED_MAPS[map_name]
    phi.cache_clear()
    assert phi.cache_info().currsize == 0
    assert phi(net()) == phi(net())
    info = phi.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    phi.cache_clear()
    assert phi.cache_info().currsize == 0


def test_keyed_reads_stop_at_the_first_witness_unless_strong():
    """On C4 every vertex is non-free and vertex 0 witnesses (c): the
    keyed loop reads G and the two rows of vertex 0, and with the strong
    form G and both rows of all four vertices."""
    keys = []
    phi = KeyedMap(lambda key: keys.append(key) or eta_value.of_key(key))
    assert check_compatibility(phi, cycle(4)).witness_vertex == 0
    assert len(keys) == 3
    keys.clear()
    assert check_compatibility(phi, cycle(4), strong=True).strong_failures == []
    assert len(keys) == 1 + 2 * 4


@pytest.mark.parametrize("strong", [False, True])
def test_failing_c_reads_only_the_free_vertices_again(strong):
    """A constant map fails (c) on P4, whose vertices 1 and 2 are
    non-free: its counterexample reuses the two rows the scan read, and
    reads phi(G - v) afresh only for the free vertices 0 and 3, by key
    or on the graph."""
    keys, graphs = [], []
    keyed = KeyedMap(lambda key: keys.append(key) or 0)
    plain = lambda g: graphs.append(g) or 0  # noqa: E731
    reports = [check_compatibility(phi, path(4), strong=strong) for phi in (keyed, plain)]
    assert reports[0] == reports[1]
    assert not reports[0].pass_c
    assert [row["v"] for row in reports[0].counterexample["per_vertex"]] == [0, 1, 2, 3]
    assert len(keys) == len(graphs) == 1 + 2 * 2 + 2
