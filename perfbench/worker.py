"""One set-up, and optionally one timed pass, of a workload in a fresh
interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|traced

The worker prints a JSON line ``{"ready": true}`` once set-up (imports
and panel generation) is done, which is what ``run.py`` clocks as
set-up time.  In ``setup`` mode it then prints one burst of host-speed
probe times; in ``pass`` and ``traced`` mode it runs the timed pass and
prints one JSON line with per-item and probe times and the outputs.
``traced`` installs the span wrappers first and also writes the spans
to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

PROBE_EVERY_S = 0.05  # one probe loop is due per this much pass time
PROBE_BURST = 10  # most loops in one probe, and the loops at either end of a pass
PROBE_LOOPS = 20_000  # about 1.5 ms of interpreter arithmetic


class Timeline:
    """Item times of one pass, with host-speed probes between items.

    A probe loop times a fixed slice of interpreter arithmetic.  Before
    an item, one loop is run for every ``PROBE_EVERY_S`` since the last
    probe (at most ``PROBE_BURST``), and a full burst runs at the start
    and the end of the pass; so probes take about 3% of a pass and never
    fall inside an item.  ``rest_s`` is what is neither an item nor a
    probe, so ``rest_s`` plus the item times is the pass's own time.
    Starts (``*_at``) are seconds since the pass began.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        # compact arrays keep the harness's share of peak RSS small
        self.item_at, self.item_s = array("d"), array("d")
        self.probe_at, self.probe_s = array("d"), array("d")
        self._start = None  # start of the open item
        self.probe(PROBE_BURST)

    def probe(self, loops: int) -> None:
        for _ in range(loops):
            a = time.perf_counter()
            s = 0
            for i in range(PROBE_LOOPS):
                s += i * i % 7
            self.probe_s.append(time.perf_counter() - a)
            self.probe_at.append(a - self.t0)
        self._last = time.perf_counter()

    def start(self) -> None:
        """Start an item, ending the open one if there is one."""
        self.end()
        due = int((time.perf_counter() - self._last) / PROBE_EVERY_S)
        if due:
            self.probe(min(due, PROBE_BURST))
        self._start = time.perf_counter()
        self.item_at.append(self._start - self.t0)

    def end(self) -> None:
        if self._start is not None:
            self.item_s.append(time.perf_counter() - self._start)
            self._start = None

    def result(self) -> dict:
        wall = time.perf_counter() - self.t0
        rest = wall - sum(self.item_s) - sum(self.probe_s)
        self.probe(PROBE_BURST)
        return {"wall_s": wall, "rest_s": rest, "item_at": self.item_at,
                "item_s": self.item_s, "probe_at": self.probe_at, "probe_s": self.probe_s}


def run_sweep(bb, w) -> dict:
    """One CLI command in-process; per-graph times from decode stamps.

    ``verify`` decodes each graph right before checking it and builds
    its report after the last one, so the gaps between consecutive
    ``decode_graph6`` calls, and from the last one to ``make_report``,
    are the per-graph times.  What comes before the first decode (corpus
    generation, argument parsing) and after the last graph (the report)
    is part of ``rest_s``.

    ``bound_chain`` drops reg silently when a resource cap stops it, so
    under ``--with-reg`` its reports are watched and each one without a
    reg is counted in ``reg_skipped``.
    """
    cli = bb.cli
    decode, chain, report_of = cli.decode_graph6, cli.bound_chain, cli.make_report
    timeline: Timeline | None = None
    skipped = 0

    def stamped(text):
        timeline.start()
        return decode(text)

    def reported(*a, **kw):
        timeline.end()
        return report_of(*a, **kw)

    def watched(g, with_reg=True, **kw):
        nonlocal skipped
        rep = chain(g, with_reg=with_reg, **kw)
        if with_reg and rep.reg is None:
            skipped += 1
        return rep

    cli.decode_graph6, cli.bound_chain, cli.make_report = stamped, watched, reported
    buf = io.StringIO()
    timeline = Timeline()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(w.argv))
    finally:
        timeline.end()
        cli.decode_graph6, cli.bound_chain, cli.make_report = decode, chain, report_of
    result = timeline.result()
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        report = {}
    return {
        **result,
        "exit_code": code,
        "reg_skipped": skipped,
        "report": {k: report.get(k) for k in ("results", "violations")},
    }


def call(bb, kind: str, g) -> dict:
    """One public API call, looked up on the package at call time."""
    if kind == "reg":
        r = bb.regularity_bei(g)
        return {"value": r.value, "witness_vars": sorted(r.witness_vars),
                "witness_degree": r.witness_degree}
    if kind == "eta":
        value, witness = bb.eta(g)
        return {"value": value, "witness": witness.sorted_edges()}
    if kind == "cliques":
        return {"cliques": bb.maximal_cliques(g)}
    if kind == "lip":
        value, paths = bb.longest_induced_path(g)
        return {"value": value, "paths": paths}
    raise ValueError(kind)


def run_panel(bb, w, panel) -> dict:
    """Each call in turn, timed on its own."""
    outputs = []
    timeline = Timeline()
    for name, g in panel:
        for kind in w.calls:
            timeline.start()
            try:
                out = call(bb, kind, g)
            except Exception as exc:  # a failed item is counted, not fatal
                out = {"error": f"{type(exc).__name__}: {exc}"}
            timeline.end()
            outputs.append({"graph": name, "kind": kind, **out})
    result = timeline.result()
    names = {name: bb.encode_graph6(g) for name, g in panel}
    for out in outputs:
        out["graph6"] = names[out["graph"]]
    return {**result, "outputs": outputs}


def layers(tracer) -> dict:
    from tracer import layer_totals

    return {
        "spans": layer_totals(tracer.names, tracer.start, tracer.end,
                              tracer.name, tracer.parent),
        "counters": tracer.counters,
        "args": {k: [[n, list(adj), c] for (n, adj), c in v.items()]
                 for k, v in tracer.args.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "pass", "traced"], required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import beibounds as bb
    import beibounds.cli  # noqa: F401  (the sweeps run the CLI in-process)

    panel = None
    if not w.is_sweep:
        with tracer.span("generators.corpus") if tracer else contextlib.nullcontext():
            panel = w.panel(bb, args.seed)
    print(json.dumps({"ready": True}), flush=True)
    if args.mode == "setup":
        print(json.dumps({"probe_s": Timeline().probe_s.tolist()}), flush=True)
        return 0

    result = run_sweep(bb, w) if w.is_sweep else run_panel(bb, w, panel)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update((k, v.tolist()) for k, v in list(result.items()) if isinstance(v, array))
    if tracer:
        tracer.uninstall()
        result["layers"] = layers(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
