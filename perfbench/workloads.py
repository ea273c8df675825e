"""The four benchmark workloads: what each runs, on which inputs, and why.

A workload is either a CLI sweep (one ``beibounds`` command whose corpus
the CLI generates itself) or an API panel (graphs issued one call at a
time).  Panels are built here from ``--seed`` with the library's own
generators, so building them is part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# gnp seeds whose samples are connected and pairwise non-isomorphic, and
# not isomorphic to a named panel graph (checked by the input profile).
REG_GNP6_SEEDS = (1, 2, 3, 4)
ETA_DENSE = ((18, 0), (19, 0), (20, 0))
ETA_SPARSE = ((40, 0), (40, 1), (40, 2))

# Exact values of the panel graphs that have no closed form, computed once
# with the library as it stood when this benchmark was written.  Every
# panel call is checked against a value, so a solver that under-reports
# with a valid witness fails.
REFERENCE = {
    "net": {"reg": 4},
    "fig2_closed": {"reg": 3},
    "sierpinski_1": {"reg": 3, "lip": 3},
    "gnp6_1": {"reg": 3},
    "gnp6_2": {"reg": 3},
    "gnp6_3": {"reg": 3},
    "gnp6_4": {"reg": 3},
    "sierpinski_2": {"lip": 8},
    "sierpinski_3": {"lip": 24},
    "dense18_0": {"eta": 10, "cliques": 55, "lip": 4},
    "dense19_0": {"eta": 10, "cliques": 69, "lip": 4},
    "dense20_0": {"eta": 13, "cliques": 96, "lip": 5},
    "sparse40_0": {"eta": 64, "cliques": 65, "lip": 19},
    "sparse40_1": {"eta": 56, "cliques": 58, "lip": 18},
    "sparse40_2": {"eta": 61, "cliques": 64, "lip": 19},
}


BASE_SECONDS = 20  # the run length the pass counts below are set for


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    passes: int  # timed passes in a run of BASE_SECONDS
    argv: tuple[str, ...] = ()  # CLI sweeps
    expected_checked: int = 0
    calls: tuple[str, ...] = ()  # API panels: calls made on each graph
    panel: object = None  # (bb, seed) -> list of (name, Graph)

    @property
    def is_sweep(self) -> bool:
        return bool(self.argv)


def reg_panel(bb, seed: int) -> list:
    """Named 6-7 vertex graphs in their standard labeling plus fixed
    connected gnp(6, 1/2) samples, in seeded order.

    The seed sets only the issue order.  The oracle's cost follows the
    labeling (C7 takes 11-18 s across four relabelings, gnp(7, 1/2)
    3-18 s across draws), so relabeled or freshly drawn inputs would
    make the timings a property of the seed rather than of the code.
    C7 and the gnp(7, 1/2) samples (the cheapest, seed 0, takes 3-4.5 s,
    40% of a pass with it) are left out so that a run holds four passes.
    An odd count of graphs puts the median call on one graph rather than
    between two of different cost.
    """
    gen = bb.generators
    items = [
        ("net", gen.net()),
        ("fig2_closed", gen.fig2_closed()),
        ("sierpinski_1", gen.sierpinski(1)),
        ("cycle_6", gen.cycle(6)),
        ("complete_6", gen.complete(6)),
        ("path_7", gen.path(7)),
        ("complete_7", gen.complete(7)),
    ]
    items += [(f"gnp6_{s}", gen.gnp(6, 1, 2, s)) for s in REG_GNP6_SEEDS]
    random.Random(seed).shuffle(items)
    return items


def eta_panel(bb, seed: int) -> list:
    """Triforce levels 1-3, dense gnp(18..20, 3/4) and sparse
    gnp(40, 1/10) from fixed class seeds, in seeded order.

    Fresh gnp draws differ 25-fold in cost (eta of gnp(20, 3/4) takes
    0.3-6.5 s across seeds) and even a relabeling moves eta of
    sierpinski(3) between 0.9 and 2.5 s, so the seed sets only the
    issue order.
    """
    gen = bb.generators
    items = [(f"sierpinski_{k}", gen.sierpinski(k)) for k in (1, 2, 3)]
    items += [(f"dense{n}_{s}", gen.gnp(n, 3, 4, s)) for n, s in ETA_DENSE]
    items += [(f"sparse{n}_{s}", gen.gnp(n, 1, 10, s)) for n, s in ETA_SPARSE]
    random.Random(seed).shuffle(items)
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain_sweep",
            "verify chain --with-reg on 700 fixed random graphs up to 5 vertices: 87% of "
            "per-component reg calls repeat a graph, 97% a class, so caches show here",
            # the full n <= 5 sweep (1099 graphs, 30-50 s) would allow one pass
            # a run; 700 random graphs take about 6 s, so a run holds three
            3,
            argv=("verify", "chain", "--random", "700", "--max-n", "5", "--seed", "0",
                  "--with-reg", "--format", "json", "--jobs", "1"),
            expected_checked=700,
        ),
        Workload(
            "reg_single",
            "reg of 11 distinct 6-7 vertex graphs one call at a time: no input repeats, so "
            "caches do nothing and the subset scan and GF(3) rank dominate",
            4,
            calls=("reg",),
            panel=reg_panel,
        ),
        Workload(
            "eta_family",
            "eta, maximal cliques and longest induced path on triforce and gnp graphs up "
            "to 45 vertices: MIS and clique search with no regularity",
            # the residual of the host-speed scaling is widest here
            4,
            calls=("eta", "cliques", "lip"),
            panel=eta_panel,
        ),
        Workload(
            "compat_sweep",
            "verify compatible on all 33867 labeled graphs up to 6 vertices: 283k tiny eta "
            "calls (88% repeats), graph transforms, graph6 and CLI overhead",
            2,
            argv=("verify", "compatible", "--exhaustive", "6", "--format", "json",
                  "--jobs", "1"),
            expected_checked=33867,
        ),
    )
}
