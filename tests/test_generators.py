from itertools import combinations

import pytest

from beibounds.generators import (
    all_labeled,
    complete,
    cycle,
    fig2_closed,
    gnp,
    net,
    path,
    sierpinski,
    union,
)
from beibounds.graphs import Graph, bits
from beibounds.invariants import maximal_cliques

from brute import with_injected_isolates


def test_path_cycle_complete_shapes():
    assert path(5).edge_count() == 4
    assert cycle(5).edge_count() == 5
    assert complete(5).edge_count() == 10
    assert all(cycle(6).degree(v) == 2 for v in range(6))


def test_union_offsets_labels():
    g = union([complete(3), complete(2)])
    assert g.n == 5
    assert g.has_edge(3, 4) and not g.has_edge(2, 3)


def test_named_graphs_basic_counts():
    assert net().n == 6 and net().edge_count() == 6
    assert fig2_closed().n == 6 and fig2_closed().edge_count() == 9


def test_fig2_maximal_cliques():
    assert maximal_cliques(fig2_closed()) == [(0, 1, 4), (0, 4, 5), (1, 2, 3), (1, 3, 4)]


def test_sierpinski_counts():
    # one midpoint per edge and 4x triangles per level
    v, e, t = 6, 9, 4
    for k in range(1, 5):
        g = sierpinski(k)
        assert (g.n, g.edge_count()) == (v, e)
        assert len(maximal_cliques(g)) == t == 4 ** k
        v, e, t = v + e, 2 * e + 3 * t, 4 * t


def test_sierpinski_level_cap():
    with pytest.raises(ValueError):
        sierpinski(7)


def test_gnp_is_seed_deterministic():
    a = gnp(12, 1, 3, 42)
    b = gnp(12, 1, 3, 42)
    c = gnp(12, 1, 3, 43)
    assert a == b
    assert a != c


def test_all_labeled_counts():
    assert sum(1 for _ in all_labeled(1)) == 1
    assert sum(1 for _ in all_labeled(3)) == 8
    assert sum(1 for _ in all_labeled(4)) == 64
    with pytest.raises(ValueError):
        next(all_labeled(8))


def test_all_labeled_streams_distinct_graphs():
    assert len(set(all_labeled(4))) == 64


def test_all_labeled_index_is_the_pair_mask():
    """The graph at index ``mask`` has the pairs of the set bits of
    ``mask``; sweep reports list graphs in this order."""
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        stream = list(all_labeled(n))
        assert len(stream) == 1 << len(pairs)
        for mask, g in enumerate(stream):
            assert g == Graph.from_edge_list(n, [pairs[k] for k in bits(mask)])


def test_with_injected_isolates():
    g = with_injected_isolates(path(3), [0, 2, 3])
    assert g.n == 6
    assert g.strip_isolated() == path(3)
