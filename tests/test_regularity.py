import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from beibounds.errors import FieldDisagreementError, ResourceLimitError
from beibounds.generators import all_labeled, complete, cycle, fig2_closed, gnp, net, path, sierpinski, union, with_injected_isolates
from beibounds.graphio import encode_graph6
from beibounds.graphs import Graph, bits
from beibounds.invariants import longest_induced_path
from beibounds import regularity
from beibounds.regularity import (
    SquarefreeIdeal,
    homology_dims,
    initial_ideal,
    minimalize,
    regularity_bei,
    regularity_squarefree,
    require_field_agreement,
)

from brute import brute_regularity_squarefree, label_valid_path_monomials, ref_reg_witness


def supports(ideal):
    return set(ideal.supports())


# -- initial ideal -----------------------------------------------------------

def test_initial_ideal_p3_keeps_only_edge_monomials():
    # the length-2 path is label-invalid: its interior lies between the ends
    n = 3
    ideal = initial_ideal(path(3))
    assert supports(ideal) == {(0, n + 1), (1, n + 2)}


def test_initial_ideal_k3_is_edge_generated():
    n = 3
    ideal = initial_ideal(complete(3))
    assert supports(ideal) == {(0, n + 1), (0, n + 2), (1, n + 2)}


def test_initial_ideal_k2():
    assert supports(initial_ideal(complete(2))) == {(0, 3)}


def test_initial_ideal_c4_has_two_path_monomials():
    n = 4
    ideal = initial_ideal(cycle(4))
    assert supports(ideal) == {
        (0, n + 1), (1, n + 2), (2, n + 3), (0, n + 3),
        (0, 3, n + 2),       # 0-3-2: interior 3 > 2, contributes x3
        (1, n + 0, n + 3),   # 1-0-3: interior 0 < 1, contributes y0
    }


def test_initial_ideal_cap(monkeypatch):
    """The walk stops past the budget; P9 takes 92 steps."""
    monkeypatch.setattr(regularity, "SCAN_BUDGET", 50)
    with pytest.raises(ResourceLimitError, match="admissible-path walk exceeded 50 steps"):
        initial_ideal(path(9))


# The walk keeps every monomial it emits, so equality with the
# duplicate-free minimalized reference also rules out duplicates.

def test_admissible_walk_matches_reference_on_every_small_labeled_graph():
    for n in range(7):
        for g in all_labeled(n):
            assert initial_ideal(g).gens == minimalize(label_valid_path_monomials(g))


@given(st.integers(7, 9), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_admissible_walk_matches_reference_on_random_graphs(n, p_num, seed):
    g = gnp(n, p_num, 4, seed)
    assert initial_ideal(g).gens == minimalize(label_valid_path_monomials(g))


@pytest.mark.parametrize("n", range(2, 13))
def test_initial_ideal_closed_forms_above_the_cap(n):
    # K_n: only the edges are admissible; P_n: only its n - 1 edges are
    # label-valid; C_n: each pair i < j has exactly one admissible arc
    gens = {(i, n + j) for i in range(n) for j in range(i + 1, n)}
    assert supports(initial_ideal(complete(n))) == gens
    assert len(initial_ideal(path(n)).gens) == n - 1
    if n >= 3:
        assert len(initial_ideal(cycle(n)).gens) == n * (n - 1) // 2


def test_minimalize_is_an_antichain():
    gens = minimalize([0b011, 0b111, 0b110, 0b011])
    assert gens == (0b011, 0b110)


def test_every_path_monomial_is_divisible_by_a_minimal_generator():
    # adding non-minimal label-valid path monomials never changes the ideal
    for g in [cycle(4), cycle(5), net(), fig2_closed(), complete(5)]:
        ideal = initial_ideal(g)
        for mono in label_valid_path_monomials(g):
            assert any(gen & mono == gen for gen in ideal.gens)


# -- homology of induced subcomplexes ----------------------------------------

def test_two_points_have_reduced_h0():
    ideal = SquarefreeIdeal.from_supports(4, [(0, 1)])
    dims = homology_dims(ideal, [0, 1], 2)
    assert dims[0] == 1 and dims[-1] == 0


def test_empty_subset_reports_degree_minus_one():
    ideal = SquarefreeIdeal.from_supports(4, [(0, 1)])
    assert homology_dims(ideal, [], 2) == {-1: 1}


def test_cone_subsets_are_acyclic():
    ideal = SquarefreeIdeal.from_supports(4, [(0, 1)])
    dims = homology_dims(ideal, [0, 1, 2], 3)  # 2 lies in no generator: cone apex
    assert all(d == 0 for d in dims.values())


def test_hollow_triangle_is_a_circle():
    ideal = SquarefreeIdeal.from_supports(3, [(0, 1, 2)])
    dims = homology_dims(ideal, [0, 1, 2], 2)
    assert dims[1] == 1 and dims[0] == 0


# 6-vertex triangulation of the real projective plane: complete 1-skeleton,
# ten triangles, every edge in exactly two of them.  Its homology separates
# GF(2) from GF(3), which exercises boundary signs end to end.
_RP2_FACES = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]
_RP2_NONFACES = [t for t in combinations(range(6), 3) if t not in _RP2_FACES]


def test_projective_plane_homology_depends_on_characteristic():
    ideal = SquarefreeIdeal.from_supports(6, _RP2_NONFACES)
    gf2 = homology_dims(ideal, range(6), 2)
    gf3 = homology_dims(ideal, range(6), 3)
    assert gf2[1] == 1 and gf2[2] == 1
    assert gf3[1] == 0 and gf3[2] == 0


def _moore3_triangles():
    """Disk whose boundary 9-gon wraps three times around the triangle
    0-1-2: boundary edge i meets ring vertex 3 + i, and the ring 3..11 is
    coned to 12.  This is a mod-3 Moore space (H_1 = Z/3), so its homology
    separates GF(3) from every other field, where RP^2 cannot tell GF(3)
    from GF(5) or GF(7)."""
    tris = []
    for i in range(9):
        a, b = i % 3, (i + 1) % 3
        u, v = 3 + i, 3 + (i + 1) % 9
        tris += [(a, b, u), (b, u, v), (u, v, 12)]
    return tris


def _nonfaces(num_vars, facets):
    faces = {frozenset(s) for f in facets for r in range(len(f) + 1) for s in combinations(f, r)}
    return [c for r in range(1, 5) for c in combinations(range(num_vars), r)
            if frozenset(c) not in faces]


_MOORE3_NONFACES = _nonfaces(13, _moore3_triangles())


def test_mod3_moore_space_homology_only_in_characteristic_3():
    ideal = SquarefreeIdeal.from_supports(13, _MOORE3_NONFACES)
    assert homology_dims(ideal, range(13), 3) == {-1: 0, 0: 0, 1: 1, 2: 1}
    for p in (2, 5, 7):
        assert homology_dims(ideal, range(13), p) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_homology_rejects_non_prime():
    ideal = SquarefreeIdeal.from_supports(4, [(0, 1)])
    with pytest.raises(ValueError, match="4 is not prime"):
        homology_dims(ideal, [0, 1], 4)
    with pytest.raises(ValueError, match="4 is not prime"):
        regularity_squarefree(ideal, 4)


def test_variable_indices_checked_by_one_rule():
    with pytest.raises(ValueError, match="variable index 3 out of range"):
        SquarefreeIdeal.from_supports(3, [(0, 3)])
    with pytest.raises(ValueError, match="variable index 3 out of range"):
        homology_dims(SquarefreeIdeal.from_supports(3, [(0, 1)]), [3], 2)
    with pytest.raises(ValueError, match="unit ideal"):
        SquarefreeIdeal.from_supports(3, [()])


# -- regularity of squarefree ideals ------------------------------------------

def test_single_quadric_has_regularity_one():
    ideal = SquarefreeIdeal.from_supports(4, [(0, 2)])
    assert regularity_squarefree(ideal, 2).value == 1


def test_two_disjoint_quadrics_regularity_two():
    # complete intersection of two quadrics in disjoint variables
    ideal = SquarefreeIdeal.from_supports(6, [(0, 3), (1, 4)])
    res = regularity_squarefree(ideal, 2)
    assert res.value == 2
    assert res.witness_degree == 1


def test_zero_ideal_regularity_zero():
    ideal = SquarefreeIdeal(6, ())
    res = regularity_squarefree(ideal, 3)
    assert res.value == 0
    assert res.witness_vars == frozenset() and res.witness_degree == -1


def test_regularity_differs_across_fields_on_rp2():
    ideal = SquarefreeIdeal.from_supports(6, _RP2_NONFACES)
    assert regularity_squarefree(ideal, 2).value == 3
    assert regularity_squarefree(ideal, 3).value == 2


def test_regularity_differs_between_gf3_and_gf5_on_mod3_moore_space():
    ideal = SquarefreeIdeal.from_supports(13, _MOORE3_NONFACES)
    res3 = regularity_squarefree(ideal, 3)
    assert (res3.value, res3.witness_vars, res3.witness_degree) == (3, frozenset(range(13)), 2)
    assert regularity_squarefree(ideal, 5).value == 2


def test_require_field_agreement_raises_with_both_values():
    with pytest.raises(FieldDisagreementError) as err:
        require_field_agreement({2: 3, 3: 2})
    assert err.value.values_by_prime == {2: 3, 3: 2}
    require_field_agreement({2: 4, 3: 4})  # no raise


def test_var_cap_enforced():
    """20 disjoint pairs span 2^20 - 1 lattice elements, past the budget,
    and the scan stops before its lattice set holds them."""
    ideal = SquarefreeIdeal.from_supports(40, [(2 * i, 2 * i + 1) for i in range(20)])
    with pytest.raises(ResourceLimitError, match="lattice scan exceeded"):
        regularity_squarefree(ideal, 2)


# -- regularity of binomial edge ideals ---------------------------------------

@pytest.mark.parametrize(
    "g, want",
    [
        (net(), 4),
        (fig2_closed(), 3),
        (sierpinski(1), 3),
        (cycle(4), 2),
        (complete(4), 1),
        (union([complete(3), complete(2)]), 2),
        (union([complete(2), complete(2), complete(3)]), 3),
        (Graph.from_edge_list(3, []), 0),
        # the most scan work (15,378 lattice elements and 60,349 faces)
        # of 2,100 random connected gnp(8, k/10) graphs
        (gnp(8, 4, 10, 101), 5),
    ],
)
def test_regularity_named_values(g, want):
    res = regularity_bei(g)
    assert res.value == want
    assert res.fields_used == (2, 3) and res.agreement


@pytest.mark.parametrize("n", range(2, 9))
def test_path_regularity_is_n_minus_one(n):
    # forced by the sandwich L(P_n) = eta(P_n) = n-1
    assert regularity_bei(path(n)).value == n - 1


def test_fig2_vertex_deletions_all_have_regularity_three():
    g = fig2_closed()
    assert all(regularity_bei(g.minus_vertex(v)).value == 3 for v in range(6))


def test_regularity_ignores_isolated_vertices():
    g = net()
    padded = with_injected_isolates(g, [0, 3, 6])
    assert regularity_bei(padded).value == regularity_bei(g).value == 4


def test_witness_is_reproducible():
    for g in [net(), fig2_closed(), cycle(5), path(6), union([complete(3), complete(2)])]:
        res = regularity_bei(g)
        ideal = initial_ideal(g)
        for p in res.fields_used:
            dims = homology_dims(ideal, res.witness_vars, p)
            assert dims[res.witness_degree] > 0


def test_component_sum_matches_direct_scan_on_disconnected_graphs():
    checked = 0
    for g in all_labeled(4):
        if g.is_connected():
            continue
        direct = regularity_squarefree(initial_ideal(g), 2).value
        assert regularity_bei(g).value == direct
        checked += 1
    assert checked > 0


def test_component_cap_allows_large_unions():
    g = union([complete(4)] * 4)  # 16 vertices, components within cap
    assert regularity_bei(g).value == 4


def test_component_cap_enforced(monkeypatch):
    """P9's walk (92 steps) fits a budget of 10,000, and its scan (255
    lattice elements and 58,077 faces) does not."""
    regularity._component_regularity.cache_clear()
    monkeypatch.setattr(regularity, "SCAN_BUDGET", 10_000)
    with pytest.raises(ResourceLimitError, match="lattice scan exceeded 10000 work units"):
        regularity_bei(path(9))


@pytest.mark.parametrize("g, steps, elements, faces", [
    (net(), 36, 261, 374),
    (complete(8), 28, 7_279, 3),
    (cycle(9), 148, 11_580, 65_979),
])
def test_budget_counts_walk_steps_lattice_elements_and_faces(
    monkeypatch, g, steps, elements, faces
):
    """Each budget is pinned exactly: the walk passes at its step count
    and raises one below it, the lattice likewise at its element count,
    and the whole scan at elements plus faces."""
    gens = initial_ideal(g).gens
    for budget, stage, run in [
        (steps, "admissible-path walk", lambda: initial_ideal(g)),
        (elements, "lattice scan", lambda: regularity._lcm_lattice(gens)),
        (elements + faces, "lattice scan", lambda: regularity_bei(g)),
    ]:
        regularity._component_regularity.cache_clear()
        monkeypatch.setattr(regularity, "SCAN_BUDGET", budget - 1)
        with pytest.raises(ResourceLimitError, match=f"{stage} exceeded {budget - 1} "):
            run()
        monkeypatch.setattr(regularity, "SCAN_BUDGET", budget)
        run()


# -- the scan against an unpruned reference -----------------------------------

@st.composite
def squarefree_ideals(draw):
    nv = draw(st.integers(1, 8))
    variable = st.integers(0, nv - 1)
    supports = draw(st.lists(st.sets(variable, min_size=1, max_size=4), max_size=12))
    return SquarefreeIdeal.from_supports(nv, supports)


def _assert_matches_brute(ideal, p):
    res = regularity_squarefree(ideal, p)
    assert res.value == brute_regularity_squarefree(ideal, p)
    assert homology_dims(ideal, res.witness_vars, p)[res.witness_degree] > 0


@settings(max_examples=300, deadline=None)
@given(squarefree_ideals(), st.sampled_from((2, 3, 5)))
def test_scan_matches_every_subset_reference(ideal, p):
    _assert_matches_brute(ideal, p)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("name", ("rp2", "moore3"))
def test_scan_matches_every_subset_reference_on_torsion(name, p):
    # the field changes the value on both, so a prune that lost torsion shows
    num_vars, nonfaces = {"rp2": (6, _RP2_NONFACES), "moore3": (13, _MOORE3_NONFACES)}[name]
    _assert_matches_brute(SquarefreeIdeal.from_supports(num_vars, nonfaces), p)


def _connected_witness_corpus():
    for n in range(1, 5):
        yield from (g for g in all_labeled(n) if g.is_connected())
    samples = (gnp(5, 1, 2, seed) for seed in range(1000))
    yield from islice((g for g in samples if g.is_connected()), 60)


def test_witness_is_first_domination_free_union_attaining_the_value():
    """Among the subsets that attain the value, the witness is pinned to
    the first by descending size and ascending tuple that is a union of
    generators with no dominated vertex."""
    for g in _connected_witness_corpus():
        res = regularity_bei(g)
        ideal = SquarefreeIdeal.from_supports(
            2 * g.n, [list(bits(m)) for m in label_valid_path_monomials(g)])
        assert res.witness_vars == ref_reg_witness(ideal, res.value), encode_graph6(g)


# -- closed forms -----------------------------------------------------------------

@pytest.mark.parametrize("n", range(4, 11))
def test_cycle_regularity_is_n_minus_two(n):
    # Zafar-Zahid 2013
    assert regularity_bei(cycle(n)).value == n - 2


def _relabel(g, perm):
    return Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_component_subgraphs_are_induced_delete_graphs():
    """The component split hands the per-component cache the graphs
    induced_delete builds, so the cache keys do not depend on the split."""
    g = _relabel(union([net(), cycle(4), complete(1), path(3), complete(3)]),
                 random.Random(4).sample(range(17), 17))
    regularity._component_regularity.cache_clear()
    regularity_bei(g)
    for comp in g.component_masks():
        outside = [v for v in range(g.n) if not comp >> v & 1]
        hits = regularity._component_regularity.cache_info().hits
        regularity._component_regularity(g.induced_delete(outside))
        assert regularity._component_regularity.cache_info().hits == hits + 1


def test_many_small_components():
    """Cutting each component out of the whole graph cost O(n) per
    component: 2,500 disjoint K2 took about 30 s."""
    k = 500
    g = union([complete(2)] * k)
    res = regularity_bei(g)
    assert (res.value, res.witness_degree) == (k, k - 1)
    # each K2's share of the witness is {x_0, y_1} in its own labels,
    # whose complex (two points) has reduced H_0
    ideal = initial_ideal(complete(2))
    local = {}
    for v in res.witness_vars:
        label = v % g.n
        local.setdefault(label // 2, []).append(label % 2 + (2 if v >= g.n else 0))
    assert len(local) == k and sum(map(len, local.values())) == len(res.witness_vars)
    for w in local.values():
        for p in res.fields_used:
            assert homology_dims(ideal, w, p)[0] > 0


def _closed_graphs(n):
    """Connected closed graphs on n vertices in a closed labeling: edges
    {i, j} for i < j <= r[i], with r nondecreasing and r[i] > i."""
    def reaches(i, lo):
        if i == n - 1:
            yield []
            return
        for ri in range(max(lo, i + 1), n):
            for tail in reaches(i + 1, ri):
                yield [ri] + tail

    for r in reaches(0, 1):
        yield Graph.from_edge_list(n, [(i, j) for i in range(n - 1) for j in range(i + 1, r[i] + 1)])


def test_closed_graphs_regularity_equals_L():
    """Ene-Zarojanu 2015: reg = L for closed graphs.  Checked on every
    connected closed graph with 2 <= n <= 7, each under a seeded random
    relabeling, so the oracle never sees the closed labeling."""
    rng = random.Random(2015)
    graphs = [g for n in range(2, 8) for g in _closed_graphs(n)]
    assert len(graphs) == 196
    for g in graphs:
        h = _relabel(g, rng.sample(range(g.n), g.n))
        assert regularity_bei(h).value == longest_induced_path(h)[0]


@pytest.mark.parametrize("n", range(2, 9))
def test_complete_graph_regularity_is_one(n):
    assert regularity_bei(complete(n)).value == 1


def test_random_connected_graphs_sit_between_L_and_n_minus_one():
    # Matsuda-Murai 2013: L(G) <= reg <= n - 1
    rng = random.Random(8)
    checked = 0
    while checked < 30:
        g = gnp(rng.choice((7, 8)), 1, 2, rng.randrange(2**31))
        if not g.is_connected():
            continue
        res = regularity_bei(g)
        assert longest_induced_path(g)[0] <= res.value <= g.n - 1
        ideal = initial_ideal(g)
        for p in res.fields_used:
            assert homology_dims(ideal, res.witness_vars, p)[res.witness_degree] > 0
        checked += 1


def test_scan_ranks_only_domination_free_lattice_elements(monkeypatch):
    """The scan over every subset made 4,889 rank calls on C8 and 26,899
    on gnp(8, 1/2, 3); the pruned lattice scan makes 1 and 35."""
    calls = 0
    real = regularity._boundary_ranks

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(regularity, "_boundary_ranks", counted)
    for g in (cycle(8), gnp(8, 1, 2, 3)):
        calls = 0
        regularity._scan_ideal(initial_ideal(g), (2, 3))
        assert calls <= 100
