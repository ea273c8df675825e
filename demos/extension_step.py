"""The one-step extension from a saturated graph back to the original.

Saturating a non-free vertex v (completing its neighborhood) always
strictly lowers eta.  The constructive proof of that fact is an
algorithm: given any clique-disjoint set H of G_v it produces a
clique-disjoint set of G with one more edge.  N[v] is a clique of G_v,
so at most one member of H lies inside it: drop that member and add
{v,a} and {v,b} for the least non-adjacent pair a, b in N(v), or add
{v,a} alone if none lies inside.  This demo runs the step on small
graphs and shows the produced sets.
"""

from beibounds import eta, extend_clique_disjoint, is_clique_disjoint
from beibounds.generators import cycle, net, path


def demo(name, g, v, h):
    gv = g.saturate(v)
    assert is_clique_disjoint(gv, h)
    out = extend_clique_disjoint(g, v, h)
    print(f"{name}: v={v}, H in G_v = {sorted(h)}")
    print(f"  extended to {out.sorted_edges()}  (size {len(h)} -> {len(out)})")
    print()


if __name__ == "__main__":
    # the chord {1,3} of the saturated C4 lies inside N[0]: it is swapped out
    demo("C4, member inside N[v]", cycle(4), 0, [(1, 3)])

    # the edge {0,1} lies inside N[1] too, though it is an edge of P3
    demo("P3, member inside N[v]", path(3), 1, [(0, 1)])

    # {2,3} has the end 3 outside N[1]: it is kept, and {1,0} alone is added
    demo("P4, no member inside N[v]", path(4), 1, [(2, 3)])

    # start from an optimal set of the saturated graph and grow it
    g = net()
    size, h = eta(g.saturate(0))
    demo(f"net, from an optimum of G_0 (eta={size})", g, 0, h.edges)

    print("eta along saturation:", eta(net())[0], "->", eta(net().saturate(0))[0])
