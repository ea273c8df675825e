import random
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from beibounds.compatibility import reg_value
from beibounds.errors import FieldDisagreementError, ResourceLimitError
from beibounds.generators import all_labeled, complete, cycle, fig2_closed, gnp, net, path, sierpinski, union
from beibounds.graphio import encode_graph6
from beibounds.graphs import Graph, bits, canonical_rows, minimalize
from beibounds.invariants import longest_induced_path
from beibounds import regularity
from beibounds.regularity import (
    SquarefreeIdeal,
    homology_dims,
    initial_ideal,
    regularity_bei,
    regularity_squarefree,
    require_field_agreement,
)

from brute import (
    brute_regularity_squarefree,
    buchberger_lead_terms,
    from_supports,
    label_valid_path_monomials,
    ref_domination_table,
    ref_faces,
    ref_has_dominated_vertex,
    ref_homology_dims,
    ref_reg_witness,
    ref_scan,
    ref_scan_survivors,
    ref_unions,
    with_injected_isolates,
)


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


def test_initial_ideal_cap(set_budget):
    """The walk stops past the budget; P9 takes 92 steps."""
    set_budget("SCAN_BUDGET", 50)
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


def _lead_masks(leads):
    """Variable bitmasks of squarefree exponent vectors, sorted."""
    assert all(e <= 1 for m in leads for e in m)
    return tuple(sorted(sum(1 << k for k, e in enumerate(m) if e) for m in leads))


def test_initial_ideal_is_the_buchberger_lead_ideal():
    """The oracle's trust point: its generators are the admissible-path
    monomials (Herzog-Hibi-Hreinsdottir-Kahle-Rauh 2010, Thm 3.2), and
    regularity transfers across that squarefree Groebner degeneration
    (Conca-Varbaro 2020).  A Groebner basis computed from the binomials
    has squarefree minimal lead terms equal to ``initial_ideal(g).gens``,
    on every labelled graph with n <= 5 and 100 sampled with n = 6: the
    initial ideal depends on the vertex order, so labellings matter."""
    rng = random.Random(32003)
    pairs = list(combinations(range(6), 2))
    sampled = [Graph.from_edge_list(6, [e for k, e in enumerate(pairs) if mask >> k & 1])
               for mask in (rng.getrandbits(len(pairs)) for _ in range(100))]
    for g in [g for n in range(1, 6) for g in all_labeled(n)] + sampled:
        assert _lead_masks(buchberger_lead_terms(g)) == initial_ideal(g).gens


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
    ideal = from_supports(4, [(0, 1)])
    dims = homology_dims(ideal, [0, 1], 2)
    assert dims[0] == 1 and dims[-1] == 0


def test_empty_subset_reports_degree_minus_one():
    ideal = from_supports(4, [(0, 1)])
    assert homology_dims(ideal, [], 2) == {-1: 1}


def test_cone_subsets_are_acyclic():
    ideal = from_supports(4, [(0, 1)])
    dims = homology_dims(ideal, [0, 1, 2], 3)  # 2 lies in no generator: cone apex
    assert all(d == 0 for d in dims.values())


def test_hollow_triangle_is_a_circle():
    ideal = from_supports(3, [(0, 1, 2)])
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
    ideal = from_supports(6, _RP2_NONFACES)
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
    ideal = from_supports(13, _MOORE3_NONFACES)
    assert homology_dims(ideal, range(13), 3) == {-1: 0, 0: 0, 1: 1, 2: 1}
    for p in (2, 5, 7):
        assert homology_dims(ideal, range(13), p) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_homology_rejects_non_prime():
    ideal = from_supports(4, [(0, 1)])
    with pytest.raises(ValueError, match="4 is not prime"):
        homology_dims(ideal, [0, 1], 4)
    with pytest.raises(ValueError, match="4 is not prime"):
        regularity_squarefree(ideal, 4)


def test_variable_indices_checked_by_one_rule():
    with pytest.raises(ValueError, match="variable index 3 out of range"):
        from_supports(3, [(0, 3)])
    with pytest.raises(ValueError, match="variable index 3 out of range"):
        homology_dims(from_supports(3, [(0, 1)]), [3], 2)
    with pytest.raises(ValueError, match="unit ideal"):
        from_supports(3, [()])


@pytest.mark.parametrize("gen", [0b100, 0, -1])
def test_ideal_rejects_generators_outside_its_variables(gen):
    """A generator must be a nonempty subset of the variables; before the
    check 0b100 over 2 variables was ignored by ``homology_dims`` and
    made ``regularity_squarefree`` raise IndexError."""
    with pytest.raises(ValueError, match=f"generator {gen} out of range for 2 variables"):
        SquarefreeIdeal(2, (gen,))


# -- regularity of squarefree ideals ------------------------------------------

def test_single_quadric_has_regularity_one():
    ideal = from_supports(4, [(0, 2)])
    assert regularity_squarefree(ideal, 2).value == 1


def test_two_disjoint_quadrics_regularity_two():
    # complete intersection of two quadrics in disjoint variables
    ideal = from_supports(6, [(0, 3), (1, 4)])
    res = regularity_squarefree(ideal, 2)
    assert res.value == 2
    assert res.witness_degree == 1


def test_zero_ideal_regularity_zero():
    ideal = SquarefreeIdeal(6, ())
    res = regularity_squarefree(ideal, 3)
    assert res.value == 0
    assert res.witness_vars == frozenset() and res.witness_degree == -1


def test_regularity_differs_across_fields_on_rp2():
    ideal = from_supports(6, _RP2_NONFACES)
    assert regularity_squarefree(ideal, 2).value == 3
    assert regularity_squarefree(ideal, 3).value == 2


def test_regularity_differs_between_gf3_and_gf5_on_mod3_moore_space():
    ideal = from_supports(13, _MOORE3_NONFACES)
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
    ideal = from_supports(40, [(2 * i, 2 * i + 1) for i in range(20)])
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
        # among the largest scans (7,122 lattice elements and 56,750
        # faces) of 2,100 random connected gnp(8, k/10) graphs
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


def test_component_cap_enforced(set_budget):
    """P9's walk (92 steps) fits a budget of 5,000, and its scan (255
    lattice elements and 6,561 faces) does not."""
    set_budget("SCAN_BUDGET", 5_000)
    with pytest.raises(ResourceLimitError, match="lattice scan exceeded 5000 work units"):
        regularity_bei(path(9))


@pytest.mark.parametrize("g, steps, elements, faces", [
    (net(), 36, 87, 321),
    (complete(8), 28, 28, 3),
    (cycle(9), 148, 3_871, 2_187),
])
def test_budget_counts_walk_steps_lattice_elements_and_faces(
    set_budget, g, steps, elements, faces
):
    """Each budget is pinned exactly: the walk passes at its step count
    and raises one below it, the lattice (the unions of generators with
    no forbidden pair) likewise at its element count, and the whole scan
    at elements plus faces."""
    gens = initial_ideal(g).gens
    forb = regularity._domination_table(gens, 2 * g.n)[1]
    for budget, stage, run in [
        (steps, "admissible-path walk", lambda: initial_ideal(g)),
        (elements, "lattice scan", lambda: regularity._lcm_lattice(gens, forb)),
        (elements + faces, "lattice scan", lambda: regularity_bei(g)),
    ]:
        set_budget("SCAN_BUDGET", budget - 1)
        with pytest.raises(ResourceLimitError, match=f"{stage} exceeded {budget - 1} "):
            run()
        set_budget("SCAN_BUDGET", budget)
        run()


# -- the scan against an unpruned reference -----------------------------------

@st.composite
def squarefree_ideals(draw):
    nv = draw(st.integers(1, 8))
    variable = st.integers(0, nv - 1)
    supports = draw(st.lists(st.sets(variable, min_size=1, max_size=4), max_size=12))
    return from_supports(nv, supports)


def _all_survivors(ideal):
    """Every level of ``_survivors`` in full, largest first, each
    checked to hold elements of its size only."""
    out = []
    for size, level in regularity._survivors(ideal)[0]:
        level = list(level)
        assert all(w.bit_count() == size for w in level)
        out += level
    return out


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
    _assert_matches_brute(from_supports(num_vars, nonfaces), p)


@settings(max_examples=150, deadline=None)
@given(squarefree_ideals())
@example(from_supports(6, _RP2_NONFACES))
@example(from_supports(13, _MOORE3_NONFACES))
@example(initial_ideal(net()))  # 261 unions, 87 of them with no forbidden pair
def test_pruned_lattice_keeps_every_survivor(ideal):
    """The scan's survivors are the unpruned reference's, in the same
    order, and every union of generators that holds a forbidden pair
    has a dominated vertex, so pruning it loses no survivor."""
    assert _all_survivors(ideal) == ref_scan_survivors(ideal)
    forb = regularity._domination_table(ideal.gens, ideal.num_vars)[1]
    faces = ref_faces(ideal)
    for w in ref_unions(ideal):
        if any(w & forb[u] for u in bits(w)):
            assert ref_has_dominated_vertex(w, faces)


_TORSION_AND_NET = (
    from_supports(6, _RP2_NONFACES),
    from_supports(13, _MOORE3_NONFACES),
    initial_ideal(net()),
)


def _with_examples(ideals):
    def wrap(test):
        for ideal in ideals:
            test = example(ideal)(test)
        return test
    return wrap


@settings(max_examples=150, deadline=None)
@given(squarefree_ideals())
@_with_examples(_TORSION_AND_NET)
def test_capped_scan_matches_the_size_break_reference(ideal):
    """Skipping each W that k disjoint generators inside it cap at
    |W| - k loses no value or witness, in any field or set of fields.
    A field's reference result does not depend on the fields beside it:
    the size break stops only where no field can rise."""
    ref = ref_scan(ideal, (2, 3, 5))
    for fields in ((2, 3), (2,), (3,), (5,)):
        assert regularity._scan_ideal(ideal, fields) == {p: ref[p] for p in fields}


@settings(max_examples=150, deadline=None)
@given(squarefree_ideals())
@_with_examples(_TORSION_AND_NET)
def test_disjoint_generators_cap_the_top_face(ideal):
    """Every face misses a variable of each generator, so the top face
    of each survivor W has at most |W| - k variables, for the k
    generators inside W packed pairwise disjoint in ``gens`` order."""
    faces = ref_faces(ideal)
    for w in _all_survivors(ideal):
        top = max(f.bit_count() for f in faces if f & ~w == 0)
        assert top <= regularity._face_size_cap(ideal.gens, w) < w.bit_count()


@pytest.mark.parametrize("g, tests", [(net(), 32), (path(7), 22)], ids=["net", "P7"])
def test_scan_tests_domination_only_on_the_levels_it_reaches(monkeypatch, g, tests):
    """The scan filters a level of the lattice only when it reaches it,
    so the levels at or below its size break are never tested: net's
    lattice has 87 elements and P7's 63."""
    calls = 0
    real = regularity._has_dominated_vertex

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(regularity, "_has_dominated_vertex", counted)
    regularity_bei(g)
    assert calls == tests


@st.composite
def ideals_and_subsets(draw):
    """An ideal from ``squarefree_ideals`` and a subset of its variables,
    the empty one included."""
    ideal = draw(squarefree_ideals())
    return ideal, draw(st.sets(st.integers(0, ideal.num_vars - 1)))


@settings(max_examples=300, deadline=None)
@given(ideals_and_subsets(), st.sampled_from((2, 3, 5)))
@example((from_supports(3, [(0, 1)]), set()), 2)
@example((from_supports(6, _RP2_NONFACES), set(range(6))), 2)
@example((from_supports(6, _RP2_NONFACES), set(range(6))), 3)
def test_homology_matches_the_dense_reference(ideal_and_subset, p):
    """``homology_dims`` equals the dense reference, keys ascending from
    -1, and ``reduced_homology`` over GF(2) and GF(3) yields every degree
    of the reference from the top down."""
    ideal, w = ideal_and_subset
    want = ref_homology_dims(ideal, w, p)
    assert list(homology_dims(ideal, w, p).items()) == list(want.items())
    both = {q: ref_homology_dims(ideal, w, q) for q in (2, 3)}
    got = list(regularity.reduced_homology(ideal, w, (2, 3)))
    assert got == [(t, {q: both[q][t] for q in (2, 3)}) for t in reversed(want)]


@st.composite
def generator_tuples(draw):
    """(nv, gens) for any tuple of nonempty masks, duplicates and
    non-minimal ones included."""
    nv = draw(st.integers(1, 8))
    return nv, tuple(draw(st.lists(st.integers(1, (1 << nv) - 1), max_size=12)))


@settings(max_examples=150, deadline=None)
@given(generator_tuples())
@example((3, (0b011, 0b011, 0b111, 0b110, 0b100)))
@_with_examples([(ideal.num_vars, ideal.gens) for ideal in _TORSION_AND_NET])
def test_domination_table_matches_the_double_loop(nv_gens):
    nv, gens = nv_gens
    table, forb = regularity._domination_table(gens, nv)
    assert table == ref_domination_table(gens, nv)
    # no generator holds a forbidden pair, so _lcm_lattice tests only unions
    assert all(forb[u] & g == 0 for g in gens for u in bits(g))


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
        ideal = from_supports(
            2 * g.n, [list(bits(m)) for m in label_valid_path_monomials(g)])
        assert res.witness_vars == ref_reg_witness(ideal, res.value), encode_graph6(g)


# -- closed forms -----------------------------------------------------------------

@pytest.mark.parametrize("n", range(4, 11))
def test_cycle_regularity_is_n_minus_two(n):
    # Zafar-Zahid 2013
    assert regularity_bei(cycle(n)).value == n - 2


@pytest.mark.parametrize("g, want", [
    (cycle(11), 9), (cycle(12), 10), (path(11), 10), (path(12), 11),
], ids=["C11", "C12", "P11", "P12"])
def test_closed_forms_past_ten_vertices(g, want):
    """reg(C_n) = n - 2 (Zafar-Zahid 2013) and reg(P_n) = n - 1 under the
    default budget.  The witness degree is the top one of its complex,
    so its homology there is the top faces less the top boundary rank,
    checked over GF(2) and GF(3); ``homology_dims`` would rank every
    degree, 5.8 s on P12's witness."""
    res = regularity_bei(g)
    assert res.value == want
    wmask = sum(1 << v for v in res.witness_vars)
    by_size = regularity._faces_by_size(initial_ideal(g).gens, wmask)
    top = len(by_size) - 1
    assert top == res.witness_degree + 1
    ranks = regularity._boundary_ranks(by_size, top, (2, 3))
    assert all(len(by_size[top]) > ranks[p] for p in (2, 3))


def _relabel(g, perm):
    return Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_component_subgraphs_are_induced_delete_graphs(component_scans):
    """The component split hands the scan, once per component in order,
    the graphs induced_delete builds."""
    g = _relabel(union([net(), cycle(4), complete(1), path(3), complete(3)]),
                 random.Random(4).sample(range(17), 17))
    regularity_bei(g)
    assert component_scans == [
        g.induced_delete([v for v in range(g.n) if not comp >> v & 1])
        for comp in g.component_masks()]


def test_regularity_value_matches_regularity_bei_exhaustive_n5():
    """The value read from a canonical scan is the labelled one's on
    every labeled graph that criterion 8 walks."""
    for n in range(6):
        for g in all_labeled(n):
            assert reg_value(g) == regularity_bei(g).value, g


def test_regularity_value_caches_no_skip(set_budget):
    """C9 (6,058 units) beside K3 passes a budget that K3 fits: the skip
    raises on each call, so no value was cached for the union or for C9."""
    set_budget("SCAN_BUDGET", 5_000)
    g = union([cycle(9), complete(3)])
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="lattice scan exceeded 5000 work units"):
            reg_value(g)


def test_isomorphic_components_share_one_scan(component_scans):
    """Relabellings of the net on their own and beside a triangle reach
    one scan, of the canonical labelling; a component above
    ``CANONICAL_MAX_N`` is scanned in its own labelling."""
    g = net()
    for seed in range(5):
        g = _relabel(g, random.Random(seed).sample(range(6), 6))
        assert reg_value(g) == 4
        assert reg_value(union([complete(3), g])) == 5
    assert [h.adj for h in component_scans] == [  # net and K3
        canonical_rows(net().adj), canonical_rows(complete(3).adj)]
    n = regularity.CANONICAL_MAX_N + 1
    big = _relabel(cycle(n), random.Random(0).sample(range(n), n))
    assert reg_value(big) == n - 2
    assert component_scans[2:] == [big]


def test_a_class_miss_relabels_once(monkeypatch, component_scans):
    """A cold read of a relabelled net runs ``canonical_rows`` once and
    scans its class once; a read of another relabelling runs it once
    and scans nothing."""
    calls = []
    real = regularity.canonical_rows
    monkeypatch.setattr(regularity, "canonical_rows", lambda adj: calls.append(adj) or real(adj))
    first = _relabel(net(), [1, 3, 5, 0, 2, 4])
    second = _relabel(net(), [0, 2, 4, 1, 3, 5])
    assert len({first.adj, second.adj, real(net().adj)}) == 3
    assert reg_value(first) == 4
    assert (len(calls), len(component_scans)) == (1, 1)
    assert reg_value(second) == 4
    assert (len(calls), len(component_scans)) == (2, 1)


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


def test_closed_labellings_regularity_equals_L():
    """Ene-Zarojanu 2015: reg = L for closed graphs.  A labelling is
    closed exactly when the initial ideal is generated in degree 2
    (Herzog-Hibi-Hreinsdottir-Kahle-Rauh 2010, Thm 1.1).  Checked on
    every closed labelling with n <= 6, disconnected ones included; the
    closed form stays out of the package, so the chain L <= reg it
    checks is not circular."""
    closed = [g for n in range(1, 7) for g in all_labeled(n)
              if all(m.bit_count() == 2 for m in initial_ideal(g).gens)]
    assert len(closed) == 689
    for g in closed:
        assert regularity_bei(g).value == longest_induced_path(g)[0]


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
