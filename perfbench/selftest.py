"""Self-test of the harness arithmetic on hand-made inputs.

    python3 perfbench/selftest.py

Covers the host-speed scaling, the ten-samples-beyond percentile rule,
self time per span,
repeat-share counting, that a corrupted reference value or witness is
reported as a failure, and that an under-reported value with a valid
witness fails against the pinned panel references.  ``run.py`` runs it
before every benchmark.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from analysis import (  # noqa: E402
    CHECKS,
    REF_PROBE_S,
    check_chain,
    check_eta,
    check_lip,
    check_reg,
    component_counts,
    expected_value,
    repeat_shares,
    scaled_pass,
    tail_percentile,
)
from tracer import layer_totals, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def run() -> list[str]:
    import beibounds as bb

    problems: list[str] = []

    # host scaling: each item by the probe loops within half a second of
    # it (twice the reference time around the first, the reference time
    # around the second), the rest by the median of all loops
    r = REF_PROBE_S
    slow = {"rest_s": 0.5, "item_at": [0.1, 5.0], "item_s": [1.0, 4.0],
            "probe_at": [0.0, 1.2, 1.3, 4.6, 9.5], "probe_s": [2 * r, 2 * r, 2 * r, r, r]}
    _expect(problems, "scaled pass", scaled_pass(slow), (4.75, [0.5, 4.0]))

    # percentile rule: n samples -> level (n - 10) / n, the value with
    # exactly ten samples above it
    _expect(problems, "tail of 1..100", tail_percentile(list(range(100, 0, -1))), (90.0, 90))
    _expect(problems, "tail of 11 samples", tail_percentile(list(range(11))), (100 / 11, 0))
    _expect(problems, "tail of 10 samples", tail_percentile(list(range(10))), None)

    # self time: root [0,10] with children [1,3] and [2,5] (overlapping,
    # union [1,5]) and [6,7]; [1.5,2.5] is a grandchild under [1,3]
    start = [0.0, 1.0, 1.5, 2.0, 6.0]
    end = [10.0, 3.0, 2.5, 5.0, 7.0]
    parent = [-1, 0, 1, 0, 0]
    _expect(problems, "self times", self_times(start, end, parent), [5.0, 1.0, 1.0, 3.0, 1.0])
    # a span nested in one of the same name adds calls, not time
    totals = layer_totals(["a", "b"], [0.0, 1.0, 2.0], [10.0, 4.0, 3.0], [0, 0, 1], [-1, 0, 1])
    _expect(problems, "recursive span totals", totals["a"],
            {"calls": 2, "time_s": 10.0, "self_s": 9.0})

    # repeat shares: P3 twice, the same P3 relabeled, and K3
    p3 = bb.Graph.from_edge_list(3, [(0, 1), (1, 2)])
    p3b = bb.Graph.from_edge_list(3, [(0, 2), (1, 2)])
    k3 = bb.generators.complete(3)
    shares = repeat_shares({(p3.n, p3.adj): 2, (p3b.n, p3b.adj): 1, (k3.n, k3.adj): 1})
    _expect(problems, "labeled repeat share", shares["repeat_share"], 0.25)
    _expect(problems, "class repeat share", shares["iso_repeat_share"], 0.5)
    two_edges = bb.Graph.from_edge_list(5, [(0, 3), (1, 4)])
    k2, k1 = bb.generators.complete(2), bb.generators.complete(1)
    _expect(problems, "component multiset",
            component_counts({(two_edges.n, two_edges.adj): 3}, bb.Graph),
            {(k2.n, k2.adj): 6, (k1.n, k1.adj): 3})

    # checks accept true outputs and reject corrupted references or witnesses
    c5 = bb.generators.cycle(5)
    r = bb.regularity_bei(c5)
    reg = {"value": r.value, "witness_vars": sorted(r.witness_vars),
           "witness_degree": r.witness_degree}
    _expect(problems, "reg(C5) check", check_reg(bb, c5, reg, 3), [])
    if not check_reg(bb, c5, reg, 4):
        problems.append("a corrupted reference value passed the reg check")
    if not check_reg(bb, c5, {**reg, "witness_vars": reg["witness_vars"][:-1]}, 3):
        problems.append("a corrupted witness passed the reg check")
    # (the reference given matches the reported value, so only the witness can fail)
    tri = bb.generators.complete(3)
    if not check_eta(bb, tri, {"value": 2, "witness": [(0, 1), (1, 2)]}, 2):
        problems.append("two edges of one triangle passed the eta check")
    if not check_lip(bb, tri, {"value": 2, "paths": [[0, 1, 2]]}, 2):
        problems.append("a non-induced path passed the L check")

    # every panel call has a reference, and an under-reported value with a
    # valid witness fails against it: reg = (0, {}, -1), eta with an empty
    # witness, no maximal cliques, one-vertex paths
    panels = {}
    for w in WORKLOADS.values():
        for name, g in w.panel(bb, 0) if w.panel else ():
            panels[name] = g
            for kind in w.calls:
                if expected_value(kind, name) is None:
                    problems.append(f"no reference value for {kind} of {name}")
    for name, kind in (("net", "reg"), ("dense18_0", "eta"), ("dense18_0", "cliques"),
                       ("dense18_0", "lip")):
        g = panels[name]
        low = {
            "reg": {"value": 0, "witness_vars": [], "witness_degree": -1},
            "eta": {"value": 0, "witness": []},
            "cliques": {"cliques": []},
            "lip": {"value": 0, "paths": [[(c & -c).bit_length() - 1] for c in g.component_masks()]},
        }
        if not CHECKS[kind](bb, g, low[kind], expected_value(kind, name)):
            problems.append(f"an under-reported {kind} of {name} passed its check")
    _expect(problems, "chain L <= eta <= c", check_chain({"lip": 4, "eta": 10, "cliques": 55}), [])
    if not check_chain({"lip": 4, "eta": 3, "cliques": 55}):
        problems.append("L > eta passed the chain check")
    return problems


if __name__ == "__main__":
    found = run()
    for p in found:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if found else "passed"))
    sys.exit(1 if found else 0)
