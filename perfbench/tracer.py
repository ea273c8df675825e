"""Spans around the public functions of each beibounds module.

The tracer replaces a function in the namespace where its caller looks
it up (``beibounds.regularity.rank_gf2``, ``beibounds.cli.decode_graph6``,
``Graph.saturate``, ...) with a wrapper that records one span per call:
name, start, end and the enclosing span.  Spans live in flat arrays and
are written to a file once the pass ends.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array

# (module, attribute, span name): the name is "<defining module>.<function>"
SITES = [
    ("beibounds.regularity", "rank_gf2", "rank_modp.rank_gf2"),
    ("beibounds.regularity", "rank_modp", "rank_modp.rank_modp"),
    ("beibounds.regularity", "initial_ideal", "regularity.initial_ideal"),
    ("beibounds", "regularity_bei", "regularity.regularity_bei"),
    ("beibounds.compatibility", "regularity_bei", "regularity.regularity_bei"),
    ("beibounds", "eta", "invariants.eta"),
    ("beibounds.compatibility", "eta", "invariants.eta"),
    ("beibounds.invariants", "conflict_graph", "invariants.conflict_graph"),
    ("beibounds", "maximal_cliques", "invariants.maximal_cliques"),
    ("beibounds.compatibility", "maximal_cliques", "invariants.maximal_cliques"),
    ("beibounds", "longest_induced_path", "invariants.longest_induced_path"),
    ("beibounds.compatibility", "longest_induced_path", "invariants.longest_induced_path"),
    ("beibounds.graphs.Graph", "saturate", "graphs.saturate"),
    ("beibounds.graphs.Graph", "minus_vertex", "graphs.minus_vertex"),
    ("beibounds.graphs.Graph", "induced_delete", "graphs.induced_delete"),
    ("beibounds.cli", "check_compatibility", "compatibility.check_compatibility"),
    ("beibounds.cli", "nonfree_vertex_failures", "compatibility.nonfree_vertex_failures"),
    ("beibounds.cli", "bound_chain", "compatibility.bound_chain"),
    ("beibounds.cli", "encode_graph6", "graphio.encode_graph6"),
    ("beibounds.cli", "decode_graph6", "graphio.decode_graph6"),
    ("beibounds.cli", "corpus_from_args", "generators.corpus"),
    ("beibounds.cli", "main", "cli.main"),
]

# work counted at a boundary: span name -> (counter, f(args, result) -> int)
COUNTS = {
    "rank_modp.rank_gf2": ("rows", lambda a, r: len(a[0])),
    "rank_modp.rank_modp": ("entries", lambda a, r: a[0].size),
    "regularity.initial_ideal": ("gens", lambda a, r: len(r.gens)),
    "invariants.conflict_graph": ("vertices", lambda a, r: r.n()),
}
# span names whose graph argument is tallied for repeat shares
ARG_TALLY = ("regularity.regularity_bei", "invariants.eta")


def _resolve(path: str):
    """The module, or the attribute of a module, that a dotted path names."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.args: dict[str, dict[tuple, int]] = {n: {} for n in ARG_TALLY}
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def _wrapper(self, fn, name: str):
        count = COUNTS.get(name)
        tally = self.args.get(name)
        key = f"{name}.{count[0]}" if count else None

        @functools.wraps(fn)
        def wrapped(*a, **k):
            i = self.open(name)
            try:
                result = fn(*a, **k)
            finally:
                self.close(i)
            if count:
                self.counters[key] = self.counters.get(key, 0) + count[1](a, result)
            if tally is not None:
                g = a[0]
                gk = (g.n, g.adj)
                tally[gk] = tally.get(gk, 0) + 1
            return result

        return wrapped

    def install(self) -> None:
        for owner_path, attr, name in SITES:
            owner = _resolve(owner_path)
            fn = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(fn, name))
            self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path: str) -> None:
        """A JSON header line (span names, count, array layout), then the
        raw arrays in that order, each ``count`` native-endian items."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["start:d", "end:d", "name:i", "parent:i"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Spans are indexed in start order, so a parent precedes its children
    and each parent's children arrive sorted by start; the union is then
    merged in one pass.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the covered union so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        if end[i] > lo:
            covered[p] += end[i] - lo
            reach[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_totals(names, start, end, name, parent) -> dict[str, dict[str, float]]:
    """Per span name: calls, time_s (outermost spans of that name only,
    so recursion is not counted twice) and self_s."""
    selfs = self_times(start, end, parent)
    out = {nm: {"calls": 0, "time_s": 0.0, "self_s": 0.0} for nm in names}
    for i in range(len(start)):
        rec = out[names[name[i]]]
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            rec["time_s"] += end[i] - start[i]
    return out
