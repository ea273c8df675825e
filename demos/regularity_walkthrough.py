"""How the regularity oracle works, end to end, on small graphs.

Three stages: (1) the squarefree initial ideal, whose minimal generators
are one monomial per admissible path (label-valid and chordless); (2) reduced homology of induced
subcomplexes of its Stanley-Reisner complex over GF(2) and GF(3);
(3) regularity as the maximum t+1 over subsets W with nonzero reduced
homology in degree t, with the witness (W, t) printed and re-checked.
"""

from beibounds import homology_dims, initial_ideal, regularity_bei
from beibounds.generators import cycle, net, path
from beibounds.regularity import variable_name


def pretty(ideal, n):
    return ["*".join(variable_name(v, n) for v in sup) for sup in ideal.supports()]


def walkthrough(name, g):
    print(f"== {name} (n={g.n}) ==")
    ideal = initial_ideal(g)
    print(f"initial ideal, {len(ideal.gens)} minimal generators:")
    print("  " + ", ".join(pretty(ideal, g.n)))
    res = regularity_bei(g)
    wit = sorted(res.witness_vars)
    names = [variable_name(v, g.n) for v in wit]
    print(f"reg = {res.value}  witness W = {names}, degree t = {res.witness_degree}")
    for p in res.fields_used:
        dims = homology_dims(ideal, res.witness_vars, p)
        print(f"  GF({p}) reduced homology on W: {dims}  (nonzero at t={res.witness_degree})")
    print()


if __name__ == "__main__":
    walkthrough("path P3", path(3))
    walkthrough("cycle C4", cycle(4))
    walkthrough("net", net())
