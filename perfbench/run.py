"""Benchmark for beibounds: verify sweeps, single reg calls and eta search.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload runs in a fresh
single-threaded interpreter (``worker.py``) against the sources under
``src/``.  A run makes ``max(2, round(passes * seconds / BASE_SECONDS))``
timed passes, where ``passes`` is the workload's pass count for a run of
``BASE_SECONDS``.  The count depends on ``--seconds`` alone, so every
commit does the same work in a run and the tail percentile rests on the
same number of samples.  Times are scaled to a reference host speed
by probes run between items (``analysis.host_factor``).  Outputs are
checked after the timed phase, never inside it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, or the per-layer metrics of an extra traced pass with
``--trace 1``.  Everything before that line is a human-readable
summary; with ``--trace 1`` it includes the workload's input profile,
whose isomorphism classes take up to 3 s to compute.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170  # a worker still running after this is killed
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> tuple[float, dict]:
    """Run one worker; return (set-up seconds, its last JSON line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if mode == "traced":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, f"spans-{workload}.bin")]
    env = {**os.environ, **CHILD_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.startswith('{"ready"'):
        raise WorkerError(f"{mode} worker for {workload} exited with code {code}")
    return setup, json.loads(rest.splitlines()[-1])


def src_loc() -> int:
    """Lines under src/ that are neither blank nor comment-only."""
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for ln in fh if ln.strip() and not ln.strip().startswith("#"))
    return total


def check_pass(bb, w, panel: dict, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one pass's outputs."""
    from analysis import CHECKS, check_chain, check_sweep, expected_value

    if w.is_sweep:
        report = result["report"]
        errs = check_sweep(report, result["exit_code"], w.expected_checked)
        skipped = result["reg_skipped"]
        if skipped:
            errs.append(f"reg skipped on {skipped} graphs")
        bad = {v.get("graph6") for v in report.get("violations") or []}
        checked = (report.get("results") or {}).get("graphs_checked")
        fatal = result["exit_code"] not in (0, 1) or checked != w.expected_checked
        failed = w.expected_checked if fatal else min(w.expected_checked, len(bad) + skipped)
        return w.expected_checked, failed, errs
    errs_of: list[list[str]] = []
    values: dict[str, dict[str, int]] = {}
    for out in result["outputs"]:
        name, kind = out["graph"], out["kind"]
        g = panel[name]
        if "error" in out:
            errs = [out["error"]]
        elif out["graph6"] != bb.encode_graph6(g):
            errs = ["worker ran a different input graph"]
        else:
            errs = CHECKS[kind](bb, g, out, expected_value(kind, name))
            values.setdefault(name, {})[kind] = (
                len(out["cliques"]) if kind == "cliques" else out["value"])
        errs_of.append(errs)
    for i, out in enumerate(result["outputs"]):  # charge a broken chain to each call
        errs_of[i] += check_chain(values.get(out["graph"], {}))
    msgs = [f"{out['graph']} {out['kind']}: {'; '.join(errs)}"
            for out, errs in zip(result["outputs"], errs_of) if errs]
    return len(result["outputs"]), len(msgs), msgs


def input_profile(bb, w, seed: int, memo: dict) -> list[dict]:
    from analysis import component_counts, profile, repeat_shares

    if not w.is_sweep:
        return [profile([g for _, g in w.panel(bb, seed)], "graphs issued", memo)]
    graphs = bb.cli.corpus_from_args(bb.cli.build_parser().parse_args(list(w.argv)))[1]
    out = [profile(graphs, "graphs checked", memo)]
    if "--with-reg" in w.argv:
        counts: dict[tuple, int] = {}
        for g in graphs:
            counts[(g.n, g.adj)] = counts.get((g.n, g.adj), 0) + 1
        comps = component_counts(counts, bb.Graph)
        shares = repeat_shares(comps, memo)
        out.append({"what": "per-component reg inputs", "items": shares["calls"],
                    "repeat_share": round(shares["repeat_share"], 4),
                    "iso_repeat_share": round(shares["iso_repeat_share"], 4)})
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list[tuple[float, dict]], passes: list[dict],
               sweep: bool) -> tuple[dict, str]:
    """Medians over the run's workers, every time at the reference host
    speed (``analysis.host_factor``).

    A sweep checks thousands of graphs of near-equal cost, so its tail
    counts each graph once, at its least time over the passes: a stall
    in one pass of any graph would otherwise set it.  A panel makes a
    few calls of distinct cost, so its tail counts each call once per
    pass, at its median over the passes.
    """
    from analysis import host_factor, scaled_pass, tail_percentile

    scaled = [scaled_pass(p) for p in passes]
    wall = statistics.median(w for w, _ in scaled)
    samples = [t for _, items in scaled for t in items]
    per_item = list(zip(*(items for _, items in scaled)))
    if sweep:
        typical = [min(ts) for ts in per_item]
    else:
        typical = [statistics.median(ts) for ts in per_item for _ in passes]
    tail = tail_percentile(typical)
    pct, tail_s = tail if tail else (100.0, max(typical))
    raw = statistics.median(p["wall_s"] for p in passes)
    probe = statistics.median(t for p in passes for t in p["probe_s"])
    note = (f"item_tail_ms is p{pct:.3f} of {len(typical)} samples; "
            f"unscaled median pass wall {raw:.4g} s, median probe loop {probe * 1000:.4g} ms")
    return {
        "setup_s": metric(statistics.median(t * host_factor(r["probe_s"]) for t, r in setups), "s"),
        "wall_s": metric(wall, "s"),
        "items_per_s": metric(len(per_item) / wall, "1/s"),
        "item_p50_ms": metric(statistics.median(samples) * 1000, "ms"),
        "item_tail_ms": metric(tail_s * 1000, "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }, note


def per_layer(bb, traced: dict, untraced_wall: float, memo: dict) -> dict:
    """Layer totals of the traced pass.  Span times are as measured;
    ``trace.overhead_s`` compares the traced pass with the untraced
    ``wall_s``, both at the reference host speed."""
    from analysis import component_counts, repeat_shares, scaled_pass

    layers = traced["layers"]
    spans, counters = layers["spans"], layers["counters"]
    args = {k: {(n, tuple(adj)): c for n, adj, c in v} for k, v in layers["args"].items()}

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out: dict[str, dict] = {}
    for name in ("rank_modp.rank_gf2", "rank_modp.rank_modp", "regularity.initial_ideal",
                 "regularity.regularity_bei", "invariants.eta", "invariants.conflict_graph",
                 "invariants.maximal_cliques", "invariants.longest_induced_path",
                 "graphs.saturate", "graphs.minus_vertex", "graphs.induced_delete",
                 "compatibility.check_compatibility", "compatibility.nonfree_vertex_failures",
                 "compatibility.bound_chain", "graphio.encode_graph6", "graphio.decode_graph6"):
        out[f"{name}.calls"] = metric(span(name, "calls"), "count")
        out[f"{name}.time_s"] = metric(span(name, "time_s"), "s")
    for name in ("compatibility.check_compatibility", "compatibility.bound_chain"):
        out[f"{name}.self_s"] = metric(span(name, "self_s"), "s")
    for key in ("rank_modp.rank_gf2.rows", "rank_modp.rank_modp.entries",
                "regularity.initial_ideal.gens", "invariants.conflict_graph.vertices"):
        out[key] = metric(counters.get(key, 0), "count")
    out["regularity.scan_self_s"] = metric(
        span("regularity.regularity_bei", "time_s") - span("regularity.initial_ideal", "time_s")
        - span("rank_modp.rank_gf2", "time_s") - span("rank_modp.rank_modp", "time_s"), "s")
    out["invariants.mis_self_s"] = metric(
        span("invariants.eta", "time_s") - span("invariants.conflict_graph", "time_s"), "s")
    comps = repeat_shares(component_counts(args["regularity.regularity_bei"], bb.Graph), memo)
    out["regularity.component_repeat_share"] = metric(comps["repeat_share"], "ratio")
    out["regularity.component_iso_repeat_share"] = metric(comps["iso_repeat_share"], "ratio")
    etas = repeat_shares(args["invariants.eta"], memo)
    out["invariants.eta.repeat_share"] = metric(etas["repeat_share"], "ratio")
    out["invariants.eta.iso_repeat_share"] = metric(etas["iso_repeat_share"], "ratio")
    out["generators.corpus_s"] = metric(span("generators.corpus", "time_s"), "s")
    out["cli.self_s"] = metric(span("cli.main", "self_s"), "s")
    out["trace.overhead_s"] = metric(scaled_pass(traced)[0] - untraced_wall, "s")
    out["src_loc"] = metric(src_loc(), "lines")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a terminated run unwinds, so spawn() kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "beibounds", "__init__.py")):
        print(f"error: no beibounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import selftest
    from workloads import BASE_SECONDS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        print("error: harness self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    import beibounds as bb
    import beibounds.cli  # noqa: F401  (the sweep profile rebuilds the CLI corpus)

    w = WORKLOADS[args.workload]
    setups: list[tuple[float, dict]] = []
    passes: list[dict] = []
    try:
        for _ in range(max(2, round(w.passes * args.seconds / BASE_SECONDS))):
            setup, result = spawn(w.name, args.seed, "pass")
            setups.append((setup, result))
            passes.append(result)
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(w.name, args.seed, "setup"))
        traced = spawn(w.name, args.seed, "traced")[1] if args.trace else None
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    panel = {} if w.is_sweep else dict(w.panel(bb, args.seed))
    attempted = failed = 0
    for result in passes + ([traced] if traced else []):
        a, f, msgs = check_pass(bb, w, panel, result)
        attempted += a
        failed += f
        for m in msgs[:20]:
            print(f"FAIL {m}")

    memo: dict = {}
    print(f"workload {w.name} (seed {args.seed}): {w.why}")
    if traced:
        for prof in input_profile(bb, w, args.seed, memo):
            print("profile " + json.dumps(prof))
    e2e, note = end_to_end(setups, passes, w.is_sweep)
    print(f"{len(passes)} timed passes, {len(setups)} set-ups; {note}")
    print(f"failed_share {failed / attempted:.4f} ({failed} of {attempted}); src_loc {src_loc()}")
    for name, m in e2e.items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    if traced:
        metrics = per_layer(bb, traced, e2e["wall_s"]["value"], memo)
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics = e2e
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
