"""Command-line front end.

Subcommands: invariants, reg, verify {chain|compatible|iv-lemma|recursion},
gen, search.  Exit codes: 0 all checks pass, 1 a mathematical violation
was found (counterexample printed), 2 operational error (bad input,
resource cap, field disagreement).  Machine output (--format json) is a
single versioned report object per run.
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import sys
import time
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator

from . import __version__, generators
from .compatibility import (
    NAMED_MAPS,
    bound_chain,
    check_compatibility,
    iv_lemma_failures,
    nonfree_vertex_failures,  # noqa: F401  (perfbench/tracer.py wraps it here)
    recursion_failures,
)
from .errors import FieldDisagreementError, ParseError, ResourceLimitError, WitnessError
from .graphio import decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from .graphs import Graph
from .invariants import (
    eta,
    is_clique_disjoint,
    is_induced_path,
    longest_induced_path,
    maximal_cliques,
)
from .regularity import (
    RegularityResult,
    homology_dims,
    initial_ideal,
    regularity_bei,
    variable_name,
)

SCHEMA = "beibounds/report-v1"
# Most graphs in one task of a ``verify --jobs > 1`` pool.
_MAX_CHUNK = 1024
# The chain value each budgeted ``verify compatible --map`` computes,
# under which a graph past its budget is listed as skipped.
_MAP_VALUES = {"eta": "eta", "induced-path": "L"}
# verify kind -> the failing non-free vertices of a graph, ascending
_VERTEX_CHECKS = {"iv-lemma": iv_lemma_failures, "recursion": recursion_failures}


# -- input handling ---------------------------------------------------------


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def parse_graph_text(text: str) -> list[Graph]:
    """Auto-detect edge-list (one graph) vs graph6 (one per line)."""
    lines = [ln for ln in text.splitlines() if ln.split("#", 1)[0].strip()]
    if not lines:
        raise ParseError("no graph data found", line=1)
    first = lines[0].split("#", 1)[0].strip()
    if first.isdigit():
        return [parse_edge_list(text)]
    return [decode_graph6(ln.strip()) for ln in lines]


def load_inputs(paths: list[str]) -> list[Graph]:
    graphs = []
    for p in paths or ["-"]:
        graphs.extend(parse_graph_text(_read_source(p)))
    return graphs


# -- generation specs -------------------------------------------------------


def build_spec(tokens: list[str]) -> Graph:
    """Build a graph from a spec like ['path', '5'] or ['net']."""
    if not tokens:
        raise ValueError("empty generator spec")
    name, args = tokens[0], tokens[1:]
    if name == "union":
        specs = [sub.strip() for sub in ",".join(args).split(",")]
        if not any(specs):
            raise ValueError("generator 'union' is missing arguments")
        return generators.union([build_spec(sub.split(":")) for sub in specs if sub])
    if name not in _SPECS:
        raise ValueError(f"unknown generator {name!r}")
    make, types = _SPECS[name]
    if len(args) < len(types):
        raise ValueError(f"generator {name!r} is missing arguments")
    if len(args) > len(types):
        raise ValueError(f"generator {name!r} has extra arguments: {' '.join(args[len(types):])}")
    values = []
    for parse, text in zip(types, args):
        try:
            values.append(parse(text))
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"generator {name!r}: bad argument {text!r}") from None
    return make(*values)


def _fraction(text: str) -> tuple[int, int]:
    """An argparse type for NUM/DEN, the edge probability of gnp."""
    num, _, den = text.partition("/")
    try:
        return int(num), int(den)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not NUM/DEN") from None


# spec name -> (generator, a parser per argument)
_SPECS = {
    "path": (generators.path, (int,)),
    "cycle": (generators.cycle, (int,)),
    "complete": (generators.complete, (int,)),
    "sierpinski": (generators.sierpinski, (int,)),
    "net": (generators.net, ()),
    "fig2-closed": (generators.fig2_closed, ()),
    "gnp": (lambda n, frac, seed: generators.gnp(n, *frac, seed), (int, _fraction, int)),
}


# -- corpora ---------------------------------------------------------------


# a corpus part: its graph count and a function that makes its graphs
_Part = tuple[int, Callable[[], Iterable[Graph]]]


# ``cmd_verify`` and ``cmd_search`` read a corpus once; the input profile
# of ``perfbench/run.py`` takes its ``len()`` and reads it again.
class Corpus:
    """The graphs of a sweep, made afresh on each iteration.

    Each part knows its count, so ``len()`` builds no graph, and a sweep
    that consumes the graphs as they come holds one at a time.
    """

    def __init__(self, parts: list[_Part]):
        self._parts = parts

    def __len__(self) -> int:
        return sum(count for count, _ in self._parts)

    def __iter__(self) -> Iterator[Graph]:
        return chain.from_iterable(make() for _, make in self._parts)


def corpus_from_args(args) -> tuple[str, Corpus]:
    """A description of the corpus and its graphs: the input files, then
    ``--exhaustive``, ``--random`` and ``--sierpinski``, in that order.

    Files are read and ``--random`` graphs drawn here, as lists: a
    ``gnp`` draw costs about a third of a ``verify chain`` step on a
    small graph, so the draws stay out of the sweep.
    ``--exhaustive`` and ``--sierpinski`` are only counted here and made
    as the sweep reaches them, afresh on each iteration.  Every flag is
    checked against its generator's cap here, so a bad one fails before
    the first graph is checked.
    """
    parts: list[_Part] = []
    desc = []
    if args.inputs:
        loaded = load_inputs(args.inputs)
        parts.append((len(loaded), lambda: loaded))
        desc.append(f"{len(loaded)} graphs from files")
    if args.exhaustive:
        top = args.exhaustive
        if top > generators.ALL_LABELED_MAX_N:
            raise ValueError(f"all_labeled capped at n={generators.ALL_LABELED_MAX_N}")
        count = sum(1 << n * (n - 1) // 2 for n in range(1, top + 1))
        parts.append((count, lambda: chain.from_iterable(
            map(generators.all_labeled, range(1, top + 1)))))
        desc.append(f"all labeled graphs on 1..{top} vertices ({count})")
    if args.random:
        num, den = args.gnp
        rng = random.Random(args.seed)
        drawn = [generators.gnp(rng.randint(1, args.max_n), num, den, rng.randrange(2**32))
                 for _ in range(args.random)]
        parts.append((len(drawn), lambda: drawn))
        desc.append(
            f"{args.random} random graphs (n<={args.max_n}, p={num}/{den}, seed={args.seed})"
        )
    if args.sierpinski:
        if args.sierpinski > generators.SIERPINSKI_MAX_LEVEL:
            raise ValueError(
                f"sierpinski level must be in 1..{generators.SIERPINSKI_MAX_LEVEL}")
        levels = range(1, args.sierpinski + 1)
        parts.append((len(levels), lambda: map(generators.sierpinski, levels)))
        desc.append(f"sierpinski levels 1..{args.sierpinski}")
    if not parts:
        raise ValueError("empty corpus: give inputs or corpus flags")
    return "; ".join(desc), Corpus(parts)


# -- reports ----------------------------------------------------------------


def make_report(command, inputs, results, violations, started) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "inputs": inputs,
        "results": results,
        "violations": violations,
    }


def emit(report: dict, fmt: str, code: int) -> None:
    """Print the report.  The text form ends with ``ok=True`` exactly
    when ``code``, the command's exit code, is 0."""
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    for key in ("inputs", "results"):
        val = report[key]
        if isinstance(val, list):
            for item in val:
                print(f"{key[:-1]}: {item}")
        else:
            print(f"{key}: {val}")
    for v in report["violations"]:
        print(f"VIOLATION: {v}")
    print(f"ok={code == 0} elapsed={report['elapsed_s']}s")


# -- per-graph records -------------------------------------------------------


def _check_witnesses(g: Graph, eta_val: int, edges, length: int, paths) -> None:
    """Re-check the eta and L witnesses with code the solvers do not use.

    The eta witness must be a clique-disjoint edge set of size eta; the
    L witness must hold one induced path inside each component, in
    component order, with lengths summing to L.
    """
    if len(edges) != eta_val or not is_clique_disjoint(g, edges):
        raise WitnessError(
            f"eta witness {edges} is not a clique-disjoint edge set of size {eta_val}"
        )
    comps = g.component_masks()
    if not (
        len(paths) == len(comps)
        and sum(len(p) - 1 for p in paths) == length
        and all(path and is_induced_path(g, path) and all(comp >> v & 1 for v in path)
                for path, comp in zip(paths, comps))
    ):
        raise WitnessError(
            f"L witness {paths} is not one induced path per component with lengths summing to {length}"
        )


def _check_reg_witness(g: Graph, reg: RegularityResult) -> None:
    """Re-check the reg witness with ``homology_dims``, which computes
    every degree and shares none of the scan's pruning.

    The witness splits into one share of variables per component, and
    reg adds over components.  So in every field used, each share must
    have nonzero reduced homology in the component's own initial ideal,
    and its top such degree t_i must give sum(t_i + 1) = reg; that is,
    t_i = reg_i - 1.  Each component is checked on its own, so many
    small components stay cheap.
    """
    bad = reg.witness_degree != reg.value - 1
    totals = dict.fromkeys(reg.fields_used, 0)
    for sub, back in g.component_subgraphs():
        share = [i for i, v in enumerate(back) if v in reg.witness_vars]
        share += [sub.n + i for i, v in enumerate(back) if g.n + v in reg.witness_vars]
        ideal = initial_ideal(sub)
        for p in totals:
            dims = homology_dims(ideal, share, p)
            top = max((t for t, dim in dims.items() if dim), default=None)
            if top is None:
                bad = True
            else:
                totals[p] += top + 1
    if bad or any(total != reg.value for total in totals.values()):
        names = sorted(variable_name(v, g.n) for v in reg.witness_vars)
        raise WitnessError(
            f"reg witness {names} in degree {reg.witness_degree} does not certify reg = {reg.value}"
        )


def invariant_record(g: Graph, with_reg: bool) -> dict:
    eta_val, witness = eta(g)
    length, paths = longest_induced_path(g)
    cliques = maximal_cliques(g)
    _check_witnesses(g, eta_val, witness.sorted_edges(), length, paths)
    rec = {
        "graph6": encode_graph6(g),
        "n": g.n,
        "m": g.edge_count(),
        "iv": g.internal_vertex_count(),
        "L": length,
        "L_witness_paths": paths,
        "eta": eta_val,
        "eta_witness": witness.sorted_edges(),
        "c": len(cliques),
    }
    if with_reg:
        reg = regularity_bei(g)
        _check_reg_witness(g, reg)
        rec["reg"] = reg.value
        rec["reg_witness"] = {
            "vars": sorted(variable_name(v, g.n) for v in reg.witness_vars),
            "degree": reg.witness_degree,
            "fields": list(reg.fields_used),
        }
    return rec


def reg_record(g: Graph) -> dict:
    reg = regularity_bei(g)
    _check_reg_witness(g, reg)
    return {
        "graph6": encode_graph6(g),
        "reg": reg.value,
        "witness_vars": sorted(variable_name(v, g.n) for v in reg.witness_vars),
        "witness_degree": reg.witness_degree,
        "fields": list(reg.fields_used),
        "agreement": reg.agreement,
    }


def _verify_one(
    kind: str, with_reg: bool, map_name: str, g6: str
) -> tuple[str, list[dict], dict[str, str]]:
    """The graph6 string of one graph, its violation records, and the
    values that a resource cap skipped (chain: L, eta, reg; compatible:
    the map's value, L or eta; recursion: reg), each with its message;
    run in worker processes under ``--jobs > 1``.  A skip ends the
    graph's checks and keeps the violations found before it."""
    g = decode_graph6(g6)
    out = []
    skipped: dict[str, str] = {}
    try:
        if kind == "chain":
            rep = bound_chain(g, with_reg=with_reg)
            skipped = rep.skipped
            for v in rep.violations:
                out.append({"graph6": g6, **v,
                            "values": {"L": rep.length_sum, "eta": rep.eta,
                                       "c": rep.clique_count, "reg": rep.reg}})
        elif kind == "compatible":
            phi = NAMED_MAPS[map_name]
            # the per-vertex strong form holds for eta at every non-free vertex
            strong = map_name == "eta"
            rep = check_compatibility(phi, g, strong=strong)
            if not rep.passed:
                out.append({"graph6": g6, "counterexample": rep.counterexample})
            if strong:
                for bad in rep.strong_failures:
                    out.append({"graph6": g6, "strong_form": bad})
        elif kind in _VERTEX_CHECKS:
            for v in _VERTEX_CHECKS[kind](g):
                out.append({"graph6": g6, "vertex": v})
        else:
            raise ValueError(f"unknown verify kind {kind!r}")
    except ResourceLimitError as exc:
        # bound_chain skips its own values, and iv-lemma has no budget
        skipped[_MAP_VALUES[map_name] if kind == "compatible" else "reg"] = str(exc)
    return g6, out, skipped


def _print_skips(skipped: list[tuple[str, str]], what: str = "") -> None:
    """List on stderr the graphs a resource cap skipped, one
    ``graph6: message`` line each, under a header naming ``what``."""
    if skipped:
        print(f"error: a resource cap skipped {what}{len(skipped)} graph(s):", file=sys.stderr)
        for g6, message in skipped:
            print(f"{g6}: {message}", file=sys.stderr)


def _records(
    record: Callable[[Graph], dict], graphs: Iterable[Graph], skipped: list[tuple[str, str]]
) -> Iterator[dict]:
    """``record`` of each graph in turn; a graph that a resource cap
    stops yields nothing and goes on ``skipped`` as (graph6, message)."""
    for g in graphs:
        try:
            yield record(g)
        except ResourceLimitError as exc:
            skipped.append((encode_graph6(g), str(exc)))


def _emit_with_skips(command, inputs, results, skipped, started, fmt) -> int:
    """Emit the report with one ``skipped`` row per graph a resource cap
    stopped, after the others, then list those graphs on stderr; the
    exit code is 2 if there are any."""
    results += [{"graph6": g6, "skipped": message} for g6, message in skipped]
    code = 2 if skipped else 0
    emit(make_report(command, inputs, results, [], started), fmt, code)
    _print_skips(skipped)
    return code


# -- subcommands -------------------------------------------------------------


def _cmd_records(args, command: str, record: Callable[[Graph], dict]) -> int:
    started = time.perf_counter()
    skipped: list[tuple[str, str]] = []
    results = list(_records(record, load_inputs(args.inputs), skipped))
    inputs = [r["graph6"] for r in results] + [g6 for g6, _ in skipped]
    return _emit_with_skips([command], inputs, results, skipped, started, args.format)


def cmd_invariants(args) -> int:
    return _cmd_records(args, "invariants", partial(invariant_record, with_reg=args.with_reg))


def cmd_reg(args) -> int:
    return _cmd_records(args, "reg", reg_record)


def _outcomes(verify: Callable, codes: Iterator[str], jobs: int, size: int) -> Iterator:
    """``verify`` on each graph6 string, in corpus order, in ``jobs``
    processes.  The pool takes the strings as it needs them, in chunks
    of at most ``_MAX_CHUNK``, so a sweep holds a bounded number of
    graphs whatever the corpus size."""
    if jobs == 1:
        yield from map(verify, codes)
        return
    from multiprocessing import Pool  # a slow import few runs need

    with Pool(jobs) as pool:
        yield from pool.imap(verify, codes, max(1, min(size // (4 * jobs), _MAX_CHUNK)))


def cmd_verify(args) -> int:
    started = time.perf_counter()
    desc, corpus = corpus_from_args(args)
    with_reg = args.with_reg or args.require_reg
    verify = partial(_verify_one, args.kind, with_reg, args.map)
    # each graph is encoded as the sweep reaches it, and only its string goes on
    codes = map(encode_graph6, corpus)
    checked = 0
    violations: list[dict] = []
    # chain value -> (graph6, message) per graph a resource cap skipped it on
    skipped: dict[str, list[tuple[str, str]]] = {"L": [], "eta": [], "reg": []}
    for g6, batch, skips in _outcomes(verify, codes, args.jobs, len(corpus)):
        checked += 1
        violations.extend(batch)
        for name, message in skips.items():
            skipped[name].append((g6, message))
    results = {"kind": args.kind, "graphs_checked": checked}
    if args.kind == "compatible":  # the only kind that reads --map
        results["map"] = args.map
    # a value is dropped, not failed, when a resource cap stops it
    names = {"chain": ("L", "eta", "reg"), "recursion": ("reg",),
             "compatible": (_MAP_VALUES[args.map],) if args.map in _MAP_VALUES else ()}
    for name in names.get(args.kind, ()):
        results[f"{name}_skipped"] = len(skipped[name])
        results[f"{name}_skipped_graphs"] = [g6 for g6, _ in skipped[name]]
    report = make_report(["verify", args.kind], desc, results, violations, started)
    # a skipped L or eta fails the sweep; a skipped reg only with
    # --require-reg, or under recursion, which checks nothing else
    failed = [name for name in ("L", "eta", "reg") if skipped[name] and (
        name != "reg" or args.require_reg or args.kind == "recursion")]
    code = 1 if violations else 2 if failed else 0
    emit(report, args.format, code)
    for name in failed:
        _print_skips(skipped[name], f"{name} on ")
    return code


def cmd_gen(args) -> int:
    g = build_spec(args.spec)
    if args.format == "edges":
        sys.stdout.write(format_edge_list(g))
    else:
        print(encode_graph6(g))
    return 0


GAPS = {
    "c-eta": ("c", "eta"),
    "eta-L": ("eta", "L"),
    "c-reg": ("c", "reg"),
}


def cmd_search(args) -> int:
    started = time.perf_counter()
    desc, graphs = corpus_from_args(args)
    hi, lo = GAPS[args.gap]
    skipped: list[tuple[str, str]] = []
    rows = ((rec[hi] - rec[lo], rec["graph6"],
             {k: rec[k] for k in ("n", "L", "eta", "c", "reg") if k in rec})
            for rec in _records(partial(invariant_record, with_reg="reg" in (hi, lo)),
                                graphs, skipped))
    # only the --top rows are kept, in the order a full sort would give;
    # nsmallest reads no row for n = 0, so it takes one to check every graph
    top = heapq.nsmallest(max(args.top, 1), rows, key=lambda r: (-r[0], r[1]))[: args.top]
    results = [{"gap": gap, "graph6": g6, "values": vals} for gap, g6, vals in top]
    return _emit_with_skips(["search", args.gap], desc, results, skipped, started, args.format)


# -- argument parsing ---------------------------------------------------------


def _at_least(low: int):
    """An argparse type for whole numbers no smaller than ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return count


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("inputs", nargs="*", help="graph files ('-' for stdin)")
    p.add_argument("--exhaustive", type=_at_least(0), metavar="N",
                   help="all labeled graphs on 1..N vertices")
    p.add_argument("--random", type=_at_least(0), metavar="COUNT")
    p.add_argument("--gnp", type=_fraction, default="1/2", metavar="NUM/DEN")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=_at_least(1), default=8)
    p.add_argument("--sierpinski", type=_at_least(0), metavar="K",
                   help="sierpinski levels 1..K")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="beibounds", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="n, m, iv, L, eta, c (and reg) with witnesses")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--with-reg", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reg", help="regularity with homology witness")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_reg)

    p = sub.add_parser("verify", help="sweep a corpus against a checked property")
    p.add_argument("kind", choices=["chain", "compatible", "iv-lemma", "recursion"])
    _add_corpus_flags(p)
    p.add_argument("--map", default="eta", choices=sorted(NAMED_MAPS))
    p.add_argument("--with-reg", action="store_true")
    p.add_argument("--require-reg", action="store_true",
                   help="implies --with-reg; exit 2 (after the report) if a resource "
                        "cap skipped reg on any graph, listing them on stderr")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="build a named graph or family member")
    p.add_argument("spec", nargs="+", help="e.g. path 5, net, sierpinski 2")
    p.add_argument("--format", choices=["graph6", "edges"], default="graph6")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="rank corpus graphs by a bound gap")
    p.add_argument("--gap", required=True, choices=sorted(GAPS))
    _add_corpus_flags(p)
    p.add_argument("--top", type=_at_least(0), default=5)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_search)
    return ap


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line; graph files may come before or after options.

    argparse fills a ``nargs="*"`` positional in the same run of
    positionals as the one before it, so in ``verify chain --with-reg
    FILE`` the inputs bind (empty) next to ``kind`` and FILE comes back
    unparsed.  Such leftovers are the command's remaining inputs.
    """
    ap = build_parser()
    args, extra = ap.parse_known_args(argv)
    if hasattr(args, "inputs"):
        args.inputs += [a for a in extra if a == "-" or not a.startswith("-")]
        extra = [a for a in extra if a != "-" and a.startswith("-")]
    if extra:
        ap.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, ResourceLimitError, FieldDisagreementError,
            WitnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
