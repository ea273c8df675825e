"""Acceptance suite: every criterion is exact (integer equalities and
inequalities, no tolerances) and prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines live;
the sweeps share the process-wide regularity cache, so running the file
as a whole is much faster than the per-criterion targets.
"""

import random
import time
from itertools import combinations_with_replacement

from beibounds.compatibility import (
    bound_chain,
    check_compatibility,
    eta_value,
    iv_lemma_failures,
    memoized,
    nonfree_vertex_failures,
    recursion_failures,
)
from beibounds.generators import (
    all_labeled,
    complete,
    fig2_closed,
    gnp,
    net,
    sierpinski,
    union,
    path,
)
from beibounds.graphio import encode_graph6
from beibounds.invariants import conflict_graph, eta, extend_clique_disjoint, is_clique_disjoint, longest_induced_path, maximal_cliques
from beibounds.regularity import regularity_bei

from brute import ref_strip_isolated, with_injected_isolates


def _report(criterion: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} [{time.perf_counter() - started:.1f}s] {detail}")
    assert ok, detail


def test_criterion_1_named_values():
    started = time.perf_counter()
    failures = []

    g = net()
    if eta(g)[0] != 4 or regularity_bei(g).value != 4:
        failures.append("net")

    g = fig2_closed()
    if longest_induced_path(g)[0] != 3 or eta(g)[0] != 4 or regularity_bei(g).value != 3:
        failures.append("fig2")
    for v in range(6):
        if regularity_bei(g.minus_vertex(v)).value != 3:
            failures.append(f"fig2-minus-{v}")

    g = sierpinski(1)
    values = (
        len(maximal_cliques(g)),
        eta(g)[0],
        longest_induced_path(g)[0],
        regularity_bei(g).value,
    )
    if values != (4, 3, 3, 3):
        failures.append(f"sierpinski1={values}")

    unions = 0
    for t in range(1, 5):
        for sizes in combinations_with_replacement((2, 3, 4), t):
            g = union([complete(s) for s in sizes])
            if eta(g)[0] != t or regularity_bei(g).value != t:
                failures.append(f"union{sizes}")
            unions += 1

    _report("1 (named values)", not failures,
            f"net, fig2 (+6 deletions), sierpinski(1), {unions} complete unions; failures={failures}",
            started)


def test_criterion_2_bound_chain_sweep_n5():
    started = time.perf_counter()
    violations = []
    count = 0
    for n in range(1, 6):
        for g in all_labeled(n):
            rep = bound_chain(g, with_reg=True)
            if rep.reg is None or not rep.passed:
                violations.append((encode_graph6(g), rep.violations))
            count += 1
    _report("2 (bound chain, all n<=5 with reg)", not violations,
            f"{count} graphs; L<=reg<=eta<=c, reg<=n-1, reg<=n-2 off-path; violations={violations[:3]}",
            started)


def test_criterion_3_eta_compatibility_n6():
    started = time.perf_counter()
    phi = memoized(eta_value)
    bad = []
    count = 0
    for n in range(1, 7):
        for g in all_labeled(n):
            if not check_compatibility(phi, g).passed:
                bad.append(("conditions", encode_graph6(g)))
            if nonfree_vertex_failures(phi, g):
                bad.append(("strong", encode_graph6(g)))
            count += 1
    _report("3 (eta compatibility, all n<=6)", not bad,
            f"{count} graphs, conditions a/b/c plus per-vertex strong form; failures={bad[:3]}",
            started)


def test_criterion_4_iv_lemma_n6():
    started = time.perf_counter()
    bad = []
    graphs = 0
    pairs = 0
    for n in range(1, 7):
        for g in all_labeled(n):
            graphs += 1
            pairs += g.internal_vertex_count()
            bad += [(encode_graph6(g), v) for v in iv_lemma_failures(g)]
    _report("4 (iv drop lemma, all n<=6)", not bad,
            f"{graphs} graphs, {pairs} (G, non-free v) pairs; failures={bad[:3]}",
            started)


def test_criterion_5_constructive_extension_randomized():
    started = time.perf_counter()
    rng = random.Random(9 * 2025)
    done = 0
    bad = []
    while done < 10_000:
        n = rng.randint(3, 12)
        g = gnp(n, rng.randint(1, 3), 4, rng.randrange(2 ** 32))
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
        try:
            out = extend_clique_disjoint(g, v, h)
            if len(out) != len(h) + 1 or not is_clique_disjoint(g, out.edges):
                bad.append((encode_graph6(g), v, h))
        except Exception as exc:  # any raise on a valid instance is a failure
            bad.append((encode_graph6(g), v, h, repr(exc)))
        done += 1
    _report("5 (constructive extension, 10000 seeded instances)", not bad,
            f"{done} instances on n<=12; failures={bad[:3]}", started)


def test_criterion_6_recursion_inequality_n5():
    started = time.perf_counter()
    bad = []
    pairs = 0
    for n in range(1, 6):
        for g in all_labeled(n):
            pairs += g.n
            bad += [(encode_graph6(g), v) for v in recursion_failures(g)]
    _report("6 (regularity recursion, all n<=5, all v)", not bad,
            f"{pairs} (G, v) pairs; failures={bad[:3]}", started)


def test_criterion_7_family_asymptotics():
    started = time.perf_counter()
    checks = []
    cliques = {k: len(maximal_cliques(sierpinski(k))) for k in range(1, 5)}
    checks.append(all(cliques[k] == 4 ** k for k in range(1, 5)))
    etas = {k: eta(sierpinski(k))[0] for k in range(1, 4)}
    checks.append(etas[1] == 3)
    checks.append(all(etas[k] <= 3 * 4 ** (k - 1) for k in range(1, 4)))
    gaps = [cliques[k] - etas[k] for k in range(1, 4)]
    checks.append(all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1)))
    _report("7 (family asymptotics)", all(checks),
            f"c={cliques}, eta={etas}, gaps={gaps}", started)


def test_criterion_8_oracle_cross_checks():
    started = time.perf_counter()
    problems = []

    for n in range(1, 8):
        if regularity_bei(path(n)).value != max(n - 1, 0):
            problems.append(f"path({n})")

    # dual-field agreement over the whole n<=5 corpus (regularity_bei
    # raises FieldDisagreementError on any mismatch, so completing the
    # sweep with agreement flags set is the check)
    count = 0
    for n in range(1, 6):
        for g in all_labeled(n):
            res = regularity_bei(g)
            if res.fields_used != (2, 3) or not res.agreement:
                problems.append(f"fields {encode_graph6(g)}")
            count += 1

    rng = random.Random(424242)
    for _ in range(1000):
        core = gnp(rng.randint(1, 5), rng.randint(1, 3), 4, rng.randrange(2 ** 32))
        positions = [rng.randint(0, core.n) for _ in range(rng.randint(1, 3))]
        padded = with_injected_isolates(core, positions)
        if regularity_bei(padded).value != regularity_bei(ref_strip_isolated(padded)).value:
            problems.append(f"isolates {encode_graph6(core)} {positions}")

    _report("8 (oracle cross-checks)", not problems,
            f"reg(P_n)=n-1 for n<=7; GF(2)=GF(3) on {count} graphs; 1000 isolate-injected graphs; problems={problems[:3]}",
            started)
