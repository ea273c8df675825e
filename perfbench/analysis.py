"""Harness-side arithmetic: host-speed scaling, percentiles, isomorphism
classes, repeat shares, input profiles and the output checks.

Nothing here runs inside a timed phase.  The checks re-derive each
answer with public functions that the solver did not use for it.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from itertools import permutations, product

from workloads import REFERENCE

BRUTE_FORCE_MAX_N = 7


# -- timing statistics -----------------------------------------------------


REF_PROBE_S = 0.0015  # probe loop time of the reference host speed
PROBE_WINDOW_S = 0.5  # probes this close to an item set its speed


def host_factor(probe_s: list[float]) -> float:
    """Reference probe time over the median of some probe loops.

    The host is shared: other tenants slow every process on it by up to
    half, in phases from a second to minutes, and an item's time moves
    with them.  Probe loops run just before and after it see the same
    slowdown, so its time multiplied by this factor is its time at the
    reference speed.
    """
    return REF_PROBE_S / statistics.median(probe_s)


def scaled_pass(p: dict) -> tuple[float, list[float]]:
    """(own time, item times) of one pass at the reference host speed.

    Each item is scaled by the probe loops within ``PROBE_WINDOW_S`` of
    it, the rest of the pass by all of its loops; the own time is the
    scaled rest plus the scaled items, probes excluded.
    """
    at, loops = p["probe_at"], p["probe_s"]
    items = []
    for start, t in zip(p["item_at"], p["item_s"]):
        lo = bisect_left(at, start - PROBE_WINDOW_S)
        hi = bisect_right(at, start + t + PROBE_WINDOW_S)
        items.append(t * host_factor(loops[lo:hi] or loops))
    return p["rest_s"] * host_factor(loops) + sum(items), items


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that still has at
    least ten samples beyond it, or None below eleven samples.

    With n samples that is the order statistic at 0-based rank n - 11,
    which has exactly ten samples after it: percentile 100 * (n - 10) / n.
    """
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


# -- isomorphism classes -------------------------------------------------


def canonical_form(n: int, adj: tuple[int, ...]) -> tuple[int, int]:
    """Brute-force canonical form of a graph on at most seven vertices.

    Vertices are first split into cells by (degree, sorted neighbour
    degrees), which every isomorphism preserves; the form is the least
    packed upper-triangle key over all orderings that keep the cells in
    order, so two graphs share it exactly when they are isomorphic.
    """
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute-force canonical form capped at n={BRUTE_FORCE_MAX_N}")
    deg = [a.bit_count() for a in adj]
    cells: dict[tuple, list[int]] = {}
    for v in range(n):
        sig = (deg[v], tuple(sorted(deg[u] for u in range(n) if adj[v] >> u & 1)))
        cells.setdefault(sig, []).append(v)
    ordered = [cells[k] for k in sorted(cells)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    best = None
    for parts in product(*(permutations(c) for c in ordered)):
        order = [v for p in parts for v in p]
        key = 0
        for u, v in pairs:
            key = key << 1 | (adj[order[u]] >> order[v] & 1)
        if best is None or key < best:
            best = key
    return n, best


def class_key(n: int, adj: tuple[int, ...], memo: dict) -> tuple:
    """Isomorphism-class key; graphs above seven vertices fall back to
    their labeled key, which can only undercount class repeats."""
    key = (n, adj)
    if key not in memo:
        memo[key] = canonical_form(n, adj) if n <= BRUTE_FORCE_MAX_N else ("labeled", key)
    return memo[key]


def repeat_shares(counts: dict[tuple, int], memo: dict | None = None) -> dict:
    """Labeled and class repeat shares of a multiset of (n, adj) keys.

    A call repeats when an earlier call had the same labeled graph (or
    the same isomorphism class); the share is repeats over calls.
    """
    memo = {} if memo is None else memo
    calls = sum(counts.values())
    if not calls:
        return {"calls": 0, "distinct": 0, "classes": 0,
                "repeat_share": 0.0, "iso_repeat_share": 0.0}
    classes = {class_key(n, adj, memo) for n, adj in counts}
    return {
        "calls": calls,
        "distinct": len(counts),
        "classes": len(classes),
        "repeat_share": 1 - len(counts) / calls,
        "iso_repeat_share": 1 - len(classes) / calls,
    }


def component_counts(graph_counts: dict[tuple, int], graph_cls) -> dict[tuple, int]:
    """Multiset of connected components, relabeled the way
    ``regularity_bei`` hands them to its per-component oracle."""
    out: dict[tuple, int] = {}
    for (n, adj), c in graph_counts.items():
        g = graph_cls(n, adj)
        full = g.full_mask()
        for comp in g.component_masks():
            drop = [v for v in range(n) if (full & ~comp) >> v & 1]
            sub = g.induced_delete(drop)
            key = (sub.n, sub.adj)
            out[key] = out.get(key, 0) + c
    return out


def profile(graphs: list, label: str, memo: dict | None = None) -> dict:
    """Item count, n and m ranges and repeat shares of a list of graphs."""
    counts: dict[tuple, int] = {}
    for g in graphs:
        counts[(g.n, g.adj)] = counts.get((g.n, g.adj), 0) + 1
    shares = repeat_shares(counts, memo)
    ns = [g.n for g in graphs]
    ms = [g.edge_count() for g in graphs]
    return {
        "what": label,
        "items": len(graphs),
        "n": [min(ns), max(ns)],
        "m": [min(ms), max(ms)],
        "repeat_share": round(shares["repeat_share"], 4),
        "iso_repeat_share": round(shares["iso_repeat_share"], 4),
    }


# -- output checks ---------------------------------------------------------


def expected_value(kind: str, name: str) -> int | None:
    """Reference value of a panel call: the closed form from the
    literature where there is one (reg of cycles, complete graphs and
    paths; eta and the maximal clique count 4^k of the triforce family),
    else the pinned value in ``workloads.REFERENCE``."""
    family, _, arg = name.partition("_")
    if kind == "reg" and arg.isdigit() and family in ("cycle", "complete", "path"):
        n = int(arg)
        return {"cycle": n - 2, "complete": 1, "path": n - 1}[family]
    if family == "sierpinski" and kind in ("eta", "cliques"):
        k = int(arg)
        return {1: 3, 2: 10, 3: 36}.get(k) if kind == "eta" else 4 ** k
    return REFERENCE.get(name, {}).get(kind)


def _value_errors(kind: str, got: int, expected: int | None) -> list[str]:
    if expected is None:
        return [f"no reference value for {kind}"]
    if got != expected:
        return [f"{kind}={got}, expected {expected}"]
    return []


def check_reg(bb, g, out: dict, expected: int | None) -> list[str]:
    """Value against its reference; witness re-checked by homology of
    the initial ideal's induced subcomplex over GF(2) and GF(3)."""
    value, wvars, t = out["value"], out["witness_vars"], out["witness_degree"]
    errs = _value_errors("reg", value, expected)
    if value and t + 1 != value:
        errs.append(f"witness degree {t} does not give reg {value}")
    if value:
        ideal = bb.initial_ideal(g)
        for p in (2, 3):
            if bb.homology_dims(ideal, wvars, p).get(t, 0) <= 0:
                errs.append(f"no GF({p}) homology at degree {t} on the witness")
    return errs


def check_eta(bb, g, out: dict, expected: int | None) -> list[str]:
    edges = [tuple(e) for e in out["witness"]]
    errs = _value_errors("eta", out["value"], expected)
    if len(set(edges)) != out["value"]:
        errs.append("witness size differs from eta")
    elif not bb.is_clique_disjoint(g, edges):
        errs.append("witness is not clique-disjoint")
    return errs


def check_cliques(bb, g, out: dict, expected: int | None) -> list[str]:
    cliques = [tuple(c) for c in out["cliques"]]
    if len(set(cliques)) != len(cliques):
        return ["duplicate maximal cliques"]
    for c in cliques:
        mask = sum(1 << v for v in c)
        if not g.is_clique(mask):
            return [f"{c} is not a clique"]
        common = g.full_mask() & ~mask
        for v in c:
            common &= g.adj[v]
        if common:
            return [f"{c} is not maximal"]
    return _value_errors("c", len(cliques), expected)


def check_lip(bb, g, out: dict, expected: int | None) -> list[str]:
    """Each witness path is an induced path; one per component; lengths add."""
    paths = out["paths"]
    comps = g.component_masks()
    owners = sorted(next(i for i, c in enumerate(comps) if c >> p[0] & 1) for p in paths)
    if owners != list(range(len(comps))):
        return ["one witness path per component expected"]
    total = 0
    for p in paths:
        if len(set(p)) != len(p):
            return [f"path {p} repeats a vertex"]
        mask = sum(1 << v for v in p)
        for i, v in enumerate(p):
            want = 0
            if i:
                want |= 1 << p[i - 1]
            if i + 1 < len(p):
                want |= 1 << p[i + 1]
            if g.adj[v] & mask != want:
                return [f"path {p} is not induced"]
        total += len(p) - 1
    if total != out["value"]:
        return [f"witness lengths sum to {total}, reported {out['value']}"]
    return _value_errors("L", out["value"], expected)


CHECKS = {"reg": check_reg, "eta": check_eta, "cliques": check_cliques, "lip": check_lip}


def check_chain(values: dict[str, int]) -> list[str]:
    """L <= eta <= c on the values one graph got, keyed by call kind;
    a missing value drops out of the chain."""
    names = {"lip": "L", "eta": "eta", "cliques": "c"}
    chain = [(names[k], values[k]) for k in names if k in values]
    return [f"{a}={x} exceeds {b}={y}" for (a, x), (b, y) in zip(chain, chain[1:]) if x > y]


def check_sweep(report: dict, exit_code: int, expected_checked: int) -> list[str]:
    errs = []
    if exit_code != 0:
        errs.append(f"exit code {exit_code}")
    if (report.get("results") or {}).get("graphs_checked") != expected_checked:
        errs.append(f"graphs_checked is not {expected_checked}")
    if report.get("violations"):
        errs.append(f"{len(report['violations'])} violations")
    return errs
