import contextlib
import io
import json
import os
import re
import subprocess
import sys

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import beibounds
from beibounds import cli, compatibility, generators, invariants, regularity
from beibounds.cli import build_spec, main, parse_args, parse_graph_text
from beibounds.errors import ResourceLimitError
from beibounds.generators import cycle, net, path, sierpinski, union
from beibounds.graphio import encode_graph6
from beibounds.graphs import Graph, canonical_rows, rows_key

from brute import ref_search_rows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_net_edges(capsys):
    code, out, _ = run(capsys, "gen", "net", "--format", "edges")
    assert code == 0
    assert out.splitlines()[0] == "6"
    assert "0 1" in out


def test_gen_path_graph6_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "path", "3")
    assert code == 0
    assert out.strip() == encode_graph6(path(3))


def test_gen_sierpinski_2_is_15_vertices(capsys):
    code, out, _ = run(capsys, "gen", "sierpinski", "2")
    assert code == 0
    assert parse_graph_text(out)[0].n == 15


def test_gen_union_spec():
    g = build_spec(["union", "complete:3,complete:2"])
    assert g.n == 5 and g.edge_count() == 4


@pytest.mark.parametrize("spec, want", [
    ("path 4", lambda: generators.path(4)),
    ("cycle 5", lambda: generators.cycle(5)),
    ("complete 4", lambda: generators.complete(4)),
    ("sierpinski 1", lambda: generators.sierpinski(1)),
    ("net", generators.net),
    ("fig2-closed", generators.fig2_closed),
    ("gnp 6 1/2 3", lambda: generators.gnp(6, 1, 2, 3)),
    # the empty part is skipped
    ("union path:2,,cycle:3", lambda: generators.union([generators.path(2), generators.cycle(3)])),
])
def test_gen_every_spec_matches_its_generator(capsys, spec, want):
    code, out, _ = run(capsys, "gen", *spec.split())
    assert code == 0 and out == encode_graph6(want()) + "\n"


def test_gen_help_examples_build(capsys):
    """Each example ``gen --help`` gives runs as shown, one argument per word."""
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    examples = help_text.split("e.g. ", 1)[1].split(" options:", 1)[0].split(", ")
    assert examples == ["path 5", "net", "sierpinski 2"]
    for spec in examples:
        code, out, err = run(capsys, "gen", *spec.split())
        assert code == 0 and err == ""
        assert out == encode_graph6(build_spec(spec.split())) + "\n"


def test_gen_missing_arguments_exits_2(capsys):
    code, out, err = run(capsys, "gen", "gnp", "6", "1/2")
    assert code == 2 and out == ""
    assert err == "error: generator 'gnp' is missing arguments\n"


@pytest.mark.parametrize("spec, message", [
    ("path 3 7", "generator 'path' has extra arguments: 7"),
    ("net 3", "generator 'net' has extra arguments: 3"),
    ("union path:2:9,cycle:3", "generator 'path' has extra arguments: 9"),
    ("gnp 6 1/2/3 3", "generator 'gnp': bad argument '1/2/3'"),
    ("gnp 6 1 3", "generator 'gnp': bad argument '1'"),
    ("path x", "generator 'path': bad argument 'x'"),
    ("path -1", "generator 'path': bad argument '-1'"),
    ("cycle -1", "generator 'cycle': bad argument '-1'"),
    ("complete -1", "generator 'complete': bad argument '-1'"),
    ("gnp -2 1/2 0", "generator 'gnp': bad argument '-2'"),
    ("sierpinski 0", "generator 'sierpinski': sierpinski level must be in 1..6"),
    ("sierpinski 7", "generator 'sierpinski': sierpinski level must be in 1..6"),
    ("gnp 5 3/2 0", "generator 'gnp': edge probability must satisfy 0 <= p_num <= p_den"),
    ("gnp 5 1/0 0", "generator 'gnp': edge probability must satisfy 0 <= p_num <= p_den"),
    ("gnp 5 -1/2 0", "generator 'gnp': edge probability must satisfy 0 <= p_num <= p_den"),
    ("cycle 2", "generator 'cycle': cycle needs at least 3 vertices"),
])
def test_gen_bad_arguments_exit_2_naming_the_generator(capsys, spec, message):
    code, out, err = run(capsys, "gen", *spec.split())
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec", [["union"], ["union", ","]])
def test_gen_empty_union_exits_2(capsys, spec):
    code, out, err = run(capsys, "gen", *spec)
    assert code == 2 and out == ""
    assert err == "error: generator 'union' is missing arguments\n"


def test_gen_unknown_spec_exits_2(capsys):
    code, _, err = run(capsys, "gen", "frobnicate")
    assert code == 2 and "error" in err


def test_invariants_json_net(capsys, tmp_path):
    f = tmp_path / "net.g6"
    f.write_text(encode_graph6(net()) + "\n")
    code, out, _ = run(capsys, "invariants", str(f), "--with-reg", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "beibounds/report-v1"
    rec = report["results"][0]
    assert (rec["L"], rec["eta"], rec["c"], rec["reg"]) == (3, 4, 4, 4)


def test_invariants_reads_edge_list_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n0 1\n1 2\n"))
    code, out, _ = run(capsys, "invariants", "-", "--format", "json")
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert rec["n"] == 3 and rec["eta"] == 2


def _invariants_of_net(capsys, tmp_path):
    f = tmp_path / "net.g6"
    f.write_text(encode_graph6(net()) + "\n")
    return run(capsys, "invariants", str(f), "--format", "json")


def test_invariants_rechecks_eta_witness(capsys, tmp_path, monkeypatch):
    import beibounds.cli as cli
    from beibounds.invariants import CliqueDisjointSet
    # (0, 1) and (1, 2) lie in the triangle 0-1-2 of the net
    fake = lambda g: (2, CliqueDisjointSet(frozenset({(0, 1), (1, 2)})))
    monkeypatch.setattr(cli, "eta", fake)
    code, out, err = _invariants_of_net(capsys, tmp_path)
    assert code == 2 and out == ""
    assert "eta witness [(0, 1), (1, 2)] is not a clique-disjoint edge set of size 2" in err


@pytest.mark.parametrize("paths, length", [
    ([[3, 0, 1, 4]], 2),          # lengths sum to 3, not 2
    ([[3, 0, 1, 2]], 3),          # 0-1-2 is a triangle: not induced
    ([[3, 0], [1, 4]], 2),        # two paths in one component
    ([[3, 0, 3]], 2),             # a repeated vertex
    ([[3, 4]], 1),                # 3 and 4 are not adjacent
])
def test_invariants_rechecks_L_witness(capsys, tmp_path, monkeypatch, paths, length):
    import beibounds.cli as cli
    monkeypatch.setattr(cli, "longest_induced_path", lambda g: (length, paths))
    code, out, err = _invariants_of_net(capsys, tmp_path)
    assert code == 2 and out == ""
    assert "L witness" in err


def _corrupt_reg(result, how):
    if how == "drop a variable":
        return replace(result, witness_vars=result.witness_vars - {min(result.witness_vars)})
    if how == "value too high":
        return replace(result, value=result.value + 1, witness_degree=result.witness_degree + 1)
    return replace(result, witness_degree=result.witness_degree - 1)


@pytest.mark.parametrize("how", ["drop a variable", "value too high", "wrong degree"])
@pytest.mark.parametrize("argv", [["reg"], ["invariants", "--with-reg"]])
def test_reg_witness_is_rechecked(capsys, tmp_path, monkeypatch, argv, how):
    """Each component's share of the witness must carry its part of reg
    in its top nonzero degree of reduced homology, in every field used."""
    import beibounds.cli as cli
    real = cli.regularity_bei
    monkeypatch.setattr(cli, "regularity_bei", lambda g: _corrupt_reg(real(g), how))
    f = tmp_path / "g.g6"
    f.write_text(encode_graph6(union([net(), path(2), cycle(4)])) + "\n")
    code, out, err = run(capsys, *argv, str(f), "--format", "json")
    assert code == 2 and out == ""
    assert "reg witness" in err and "does not certify" in err


def test_reg_witness_recheck_is_per_component():
    """The witness is checked one component at a time, so 2,500
    disjoint K2 stay fast (graph6 input of that size is slow to parse,
    so the check is called directly)."""
    from beibounds.cli import _check_reg_witness
    g = union([path(2)] * 2500)
    _check_reg_witness(g, beibounds.regularity_bei(g))


def test_reg_witness_recheck_ranks_only_down_to_the_top_degree(monkeypatch):
    """P12's witness has homology in its top degree, so the re-check
    builds its faces once and ranks one boundary map for both fields;
    ranking every degree took 22 ranks, and one walk per field built the
    faces twice and ranked twice."""
    g = path(12)
    reg = beibounds.regularity_bei(g)
    calls = {"_boundary_ranks": 0, "_faces_by_size": 0}
    for name in calls:
        real = getattr(regularity, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(regularity, name, counted)
    cli._check_reg_witness(g, reg)
    assert calls == {"_boundary_ranks": 1, "_faces_by_size": 1}


def test_reg_subcommand(capsys, tmp_path):
    f = tmp_path / "g.g6"
    f.write_text(encode_graph6(sierpinski(1)) + "\n")
    code, out, _ = run(capsys, "reg", str(f), "--format", "json")
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert rec["reg"] == 3 and rec["fields"] == [2, 3] and rec["agreement"]


def test_verify_chain_exhaustive_3_passes(capsys):
    code, out, _ = run(capsys, "verify", "chain", "--exhaustive", "3", "--with-reg",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["results"]["graphs_checked"] == 11


def _chain_with_reg(capsys, tmp_path, *order):
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(net()) + "\n" + encode_graph6(path(4)) + "\n")
    argv = [str(f) if a == "FILE" else a for a in order]
    code, out, err = run(capsys, "verify", "chain", *argv, "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["results"]["graphs_checked"] == 2
    assert report["results"]["reg_skipped"] == 0
    assert report["violations"] == []


def test_verify_chain_inputs_before_options(capsys, tmp_path):
    _chain_with_reg(capsys, tmp_path, "FILE", "--with-reg")


def test_verify_chain_inputs_after_options(capsys, tmp_path):
    _chain_with_reg(capsys, tmp_path, "--with-reg", "FILE")


# A reg budget of 5,000 work units, which C9's scan (3,871 lattice
# elements and 2,187 faces) passes and net's (408 units) fits, and the
# message of C9's skip.
SMALL_SCAN_BUDGET = 5_000
C9_SKIP = "lattice scan exceeded 5000 work units"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_chain_reports_reg_skipped_by_component_cap(capsys, tmp_path, jobs, set_budget):
    set_budget("SCAN_BUDGET", SMALL_SCAN_BUDGET)
    c9 = encode_graph6(cycle(9))
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(net()) + "\n" + c9 + "\n")
    code, out, _ = run(capsys, "verify", "chain", str(f), "--with-reg",
                       "--jobs", jobs, "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["graphs_checked"] == 2
    assert results["reg_skipped"] == 1
    assert results["reg_skipped_graphs"] == [c9]

    code, out, _ = run(capsys, "verify", "chain", str(f), "--with-reg", "--jobs", jobs)
    assert code == 0
    assert "'reg_skipped': 1" in out and c9 in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_chain_require_reg_exits_2_on_a_skip(capsys, tmp_path, jobs, fmt, set_budget):
    set_budget("SCAN_BUDGET", SMALL_SCAN_BUDGET)
    c9 = encode_graph6(cycle(9))
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(net()) + "\n" + c9 + "\n")
    code, out, err = run(capsys, "verify", "chain", str(f), "--require-reg",
                         "--jobs", jobs, "--format", fmt)
    assert code == 2
    assert err.splitlines() == ["error: a resource cap skipped reg on 1 graph(s):",
                                f"{c9}: {C9_SKIP}"]
    if fmt == "json":
        results = json.loads(out)["results"]
        assert (results["reg_skipped"], results["reg_skipped_graphs"]) == (1, [c9])
    else:
        assert "'reg_skipped': 1" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_chain_require_reg_passes_a_clean_corpus(capsys, jobs, fmt):
    code, out, err = run(capsys, "verify", "chain", "--exhaustive", "3", "--require-reg",
                         "--jobs", jobs, "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        results = json.loads(out)["results"]
        assert (results["graphs_checked"], results["reg_skipped"]) == (11, 0)


def test_verify_chain_without_reg_skips_nothing(capsys, tmp_path, set_budget):
    set_budget("SCAN_BUDGET", SMALL_SCAN_BUDGET)
    f = tmp_path / "c9.g6"
    f.write_text(encode_graph6(cycle(9)) + "\n")
    code, out, _ = run(capsys, "verify", "chain", str(f), "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["reg_skipped"], results["reg_skipped_graphs"]) == (0, [])


@pytest.mark.parametrize("argv", [
    ["invariants", "GRAPH"],
    ["search", "--gap", "eta-L", "--sierpinski", "3"],
    ["verify", "chain", "--sierpinski", "3"],
])
def test_L_node_budget_exits_2(capsys, set_budget, tmp_path, argv):
    """L of sierpinski(3) expands about 49k search nodes; with a budget
    of 1,000 every command that computes L stops with exit 2."""
    set_budget("NODE_BUDGET", 1_000)
    f = tmp_path / "s3.g6"
    f.write_text(encode_graph6(sierpinski(3)) + "\n")
    code, _, err = run(capsys, *[str(f) if a == "GRAPH" else a for a in argv])
    assert code == 2 and "induced-path search exceeded 1000 nodes" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
# each id names the search behind the map
@pytest.mark.parametrize("name, map_name, other", [
    ("L", "induced-path", "eta"),
    ("eta", "eta", "L"),
], ids=["L-longest_induced_path-eta", "eta-eta-L"])
def test_verify_chain_keeps_results_past_a_search_budget(
    capsys, patch_map, tmp_path, jobs, name, map_name, other
):
    """A search that hits its budget on one graph skips that value there
    and the checks that need it; every other result stays in the report,
    and the command exits 2 after it.  (Workers fork, so they see the
    patched map.)"""
    def capped(g, real):
        if g == net():
            raise ResourceLimitError("search exceeded 7 nodes")
        return real(g)

    patch_map(map_name, capped)
    net6 = encode_graph6(net())
    f = tmp_path / "graphs.g6"
    f.write_text("\n".join(encode_graph6(g) for g in (path(4), net(), cycle(5))) + "\n")
    code, out, err = run(capsys, "verify", "chain", str(f), "--with-reg",
                         "--jobs", jobs, "--format", "json")
    assert code == 2
    report = json.loads(out)
    results = report["results"]
    assert results["graphs_checked"] == 3 and report["violations"] == []
    assert (results[f"{name}_skipped"], results[f"{name}_skipped_graphs"]) == (1, [net6])
    assert results[f"{other}_skipped"] == results["reg_skipped"] == 0
    assert err.splitlines() == [
        f"error: a resource cap skipped {name} on 1 graph(s):",
        f"{net6}: search exceeded 7 nodes",
    ]


# each id names the search behind the map
@pytest.mark.parametrize("gap, map_name", [
    ("eta-L", "induced-path"),
    ("eta-L", "eta"),
    ("c-reg", "reg"),
], ids=["eta-L-longest_induced_path", "eta-L-eta", "c-reg-regularity_bei"])
def test_search_keeps_results_past_a_search_budget(capsys, patch_map, tmp_path, gap, map_name):
    """A graph whose L, eta or reg hits a resource cap is listed with its
    message after the ranked rows, the other graphs are still ranked,
    and the command exits 2 after the report."""
    def capped(g, real):
        if g == net():
            raise ResourceLimitError("search exceeded 7 nodes")
        return real(g)

    patch_map(map_name, capped)
    net6, p4, c5 = (encode_graph6(g) for g in (net(), path(4), cycle(5)))
    f = tmp_path / "graphs.g6"
    f.write_text("\n".join((p4, net6, c5)) + "\n")
    code, out, err = run(capsys, "search", "--gap", gap, str(f), "--format", "json")
    assert code == 2
    results = json.loads(out)["results"]
    assert [(r.get("gap"), r["graph6"]) for r in results] == [(2, c5), (0, p4), (None, net6)]
    assert results[-1]["skipped"] == "search exceeded 7 nodes"
    assert err.splitlines() == [
        "error: a resource cap skipped 1 graph(s):",
        f"{net6}: search exceeded 7 nodes",
    ]


def test_bound_chain_reads_eta_then_L_then_c_then_reg_so_search_reports_eta_first(
    capsys, patch_map, tmp_path
):
    """``bound_chain`` reads eta, then L, then c, then reg, and ``search``
    reports the first skip in that order: a graph past both the eta and
    the L budget is listed with eta's message."""
    reads = []

    def recorder(map_name):
        return lambda g, real: reads.append(map_name) or real(g)

    order = ["eta", "induced-path", "clique-count", "reg"]
    for map_name in order:
        patch_map(map_name, recorder(map_name))
    compatibility.bound_chain(net(), with_reg=True)
    assert reads == order

    def capped(map_name):
        def read(g, real):
            raise ResourceLimitError(f"{map_name} search exceeded 7 nodes")
        return read

    patch_map("induced-path", capped("induced-path"))
    patch_map("eta", capped("eta"))
    net6 = encode_graph6(net())
    f = tmp_path / "net.g6"
    f.write_text(net6 + "\n")
    code, out, err = run(capsys, "search", "--gap", "eta-L", str(f), "--format", "json")
    assert code == 2
    assert json.loads(out)["results"] == [{"graph6": net6, "skipped": "eta search exceeded 7 nodes"}]
    assert err.splitlines()[1:] == [f"{net6}: eta search exceeded 7 nodes"]


def test_search_ranks_the_levels_below_an_L_budget_hit(capsys, set_budget):
    set_budget("NODE_BUDGET", 1_000)
    code, out, err = run(capsys, "search", "--gap", "eta-L", "--sierpinski", "3",
                         "--format", "json")
    assert code == 2
    results = json.loads(out)["results"]
    s1, s2, s3 = (encode_graph6(sierpinski(k)) for k in (1, 2, 3))
    assert sorted(r["graph6"] for r in results[:2]) == sorted([s1, s2])
    assert results[2] == {"graph6": s3,
                          "skipped": "induced-path search exceeded 1000 nodes"}
    assert err.splitlines()[1:] == [f"{s3}: induced-path search exceeded 1000 nodes"]


@pytest.mark.parametrize("gap, map_name", [("c-reg", "reg"), ("c-eta", "eta")])
def test_search_fails_a_ranked_value_its_witness_does_not_give(capsys, patch_map, gap, map_name):
    """Rows are ranked on the keyed maps that ``verify chain`` reads, and
    each reported row is computed again with its witnesses checked, so a
    map one too high stops the command before the report."""
    patch_map(map_name, lambda g, real: real(g) + 1)
    code, out, err = run(capsys, "search", "--gap", gap, "--exhaustive", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "differ from the ranked" in err


def test_search_rechecks_only_the_reported_rows(capsys, monkeypatch):
    """Graphs that are not reported get no witness check, as in ``verify chain``."""
    records = []
    real = cli.invariant_record
    monkeypatch.setattr(cli, "invariant_record",
                        lambda g, with_reg: records.append(g) or real(g, with_reg))
    code, out, _ = run(capsys, "search", "--gap", "c-eta", "--exhaustive", "4", "--top", "3",
                       "--format", "json")
    assert code == 0
    assert [encode_graph6(g) for g in records] == [r["graph6"] for r in json.loads(out)["results"]]


@pytest.mark.parametrize("gap, corpus", [
    ("c-eta", ["--exhaustive", "5"]),
    ("eta-L", ["--exhaustive", "5"]),
    ("c-reg", ["--random", "60", "--max-n", "7", "--seed", "2"]),
], ids=["c-eta", "eta-L", "c-reg"])
def test_search_rows_match_ranking_every_invariant_record(capsys, gap, corpus):
    """With ``--top`` past the corpus size, ``search`` reports every row
    that ranking ``invariant_record`` of each graph gives."""
    code, out, _ = run(capsys, "search", "--gap", gap, *corpus, "--top", "2000",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"] == ref_search_rows(_corpus(*corpus), gap)


def test_text_report_ok_agrees_with_the_exit_code(capsys, tmp_path, set_budget):
    """C9 is past the reg budget, so its row is skipped and the command
    exits 2; the text report must not end with ok=True."""
    set_budget("SCAN_BUDGET", SMALL_SCAN_BUDGET)
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(cycle(9)) + "\n" + encode_graph6(net()) + "\n")
    code, out, _ = run(capsys, "search", "--gap", "c-reg", str(f))
    assert code == 2
    assert out.splitlines()[-1].startswith("ok=False ")
    f.write_text(encode_graph6(net()) + "\n")
    code, out, _ = run(capsys, "search", "--gap", "c-reg", str(f))
    assert code == 0
    assert out.splitlines()[-1].startswith("ok=True ")


@pytest.mark.parametrize("top", ["0", "1", "3"])
def test_search_checks_every_graph_whatever_the_top(capsys, tmp_path, set_budget, top):
    """Only ``--top`` rows are kept, but every graph is still checked,
    so a skip after the ranked rows is listed even with ``--top 0``."""
    set_budget("SCAN_BUDGET", SMALL_SCAN_BUDGET)
    c9, p4, c5, k3 = map(encode_graph6, (cycle(9), path(4), cycle(5), generators.complete(3)))
    f = tmp_path / "graphs.g6"
    f.write_text("\n".join((p4, c5, c9, k3, c5)) + "\n")
    code, out, err = run(capsys, "search", "--gap", "c-reg", str(f), "--top", top,
                         "--format", "json")
    assert code == 2
    ranked = [(2, c5), (2, c5), (0, k3), (0, p4)][:int(top)]
    results = json.loads(out)["results"]
    assert [(r["gap"], r["graph6"]) for r in results[:-1]] == ranked
    assert results[-1] == {"graph6": c9, "skipped": C9_SKIP}
    assert err.splitlines()[1:] == [f"{c9}: {C9_SKIP}"]


@pytest.mark.parametrize("extra", [[], ["--require-reg"]])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_recursion_reports_a_reg_skip(capsys, tmp_path, set_budget, jobs, extra):
    """A graph past the reg budget is skipped, the sweep carries on, and
    the command exits 2 after the report, with or without --require-reg."""
    set_budget("SCAN_BUDGET", SMALL_SCAN_BUDGET)
    c9 = encode_graph6(cycle(9))
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(net()) + "\n" + c9 + "\n")
    code, out, err = run(capsys, "verify", "recursion", str(f), "--jobs", jobs,
                         "--format", "json", *extra)
    assert code == 2
    report = json.loads(out)
    assert report["violations"] == []
    assert {k: report["results"][k] for k in ("graphs_checked", "reg_skipped",
                                              "reg_skipped_graphs")} == {
        "graphs_checked": 2, "reg_skipped": 1, "reg_skipped_graphs": [c9]}
    assert err.splitlines() == ["error: a resource cap skipped reg on 1 graph(s):",
                                f"{c9}: {C9_SKIP}"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_compatible_reports_a_map_skip(capsys, set_budget, jobs):
    """A graph whose map value passes the node budget is skipped, the
    sweep carries on, and the command exits 2 after the report."""
    set_budget("NODE_BUDGET", 1_000)
    code, out, err = run(capsys, "verify", "compatible", "--map", "induced-path",
                         "--sierpinski", "3", "--jobs", jobs, "--format", "json")
    assert code == 2
    report = json.loads(out)
    s3 = encode_graph6(sierpinski(3))
    assert report["violations"] == []
    assert report["results"] == {
        "kind": "compatible", "map": "induced-path", "graphs_checked": 3,
        "L_skipped": 1, "L_skipped_graphs": [s3]}
    assert err.splitlines() == ["error: a resource cap skipped L on 1 graph(s):",
                                f"{s3}: induced-path search exceeded 1000 nodes"]


def test_verify_compatible_reports_an_eta_skip(capsys, tmp_path, set_budget):
    """With --map eta the skip is listed under eta."""
    set_budget("NODE_BUDGET", 100)
    dense = encode_graph6(generators.gnp(18, 3, 4, 0))
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(net()) + "\n" + dense + "\n")
    code, out, err = run(capsys, "verify", "compatible", str(f), "--format", "json")
    assert code == 2
    results = json.loads(out)["results"]
    assert (results["graphs_checked"], results["eta_skipped_graphs"]) == (2, [dense])
    assert err.splitlines()[1:] == [f"{dense}: independent-set search exceeded 100 nodes"]


def test_verify_recursion_keeps_a_violation_found_before_a_skip(capsys, patch_map, tmp_path):
    c9 = encode_graph6(cycle(9))
    reads = []

    def reg(g, real):
        if len(reads) == 4:  # the first read at vertex 1
            raise ResourceLimitError("synthetic budget")
        # reg(C9), then 0 for G_v, G - v and G_v - v at vertex 0, where
        # 7 <= max(0, 0, 0 + 1) fails
        reads.append((g, real(g) if not reads else 0))
        return reads[-1][1]

    patch_map("reg", reg)
    f = tmp_path / "c9.g6"
    f.write_text(c9 + "\n")
    code, out, err = run(capsys, "verify", "recursion", str(f), "--format", "json")
    assert code == 1
    # reg(C9), read once per graph, before any vertex
    assert reads[0] == (cycle(9), 7)
    assert [g for g, _ in reads].count(cycle(9)) == 1
    report = json.loads(out)
    assert report["violations"] == [{"graph6": c9, "vertex": 0}]
    assert report["results"]["reg_skipped_graphs"] == [c9]
    assert err.splitlines()[1:] == [f"{c9}: synthetic budget"]


@pytest.mark.parametrize("kind", ["recursion", "iv-lemma"])
def test_verify_vertex_checks_pack_each_graph_once(capsys, monkeypatch, kind):
    """The vertex checks derive the keys of G - v, G_v and G_v - v from
    G's, so a sweep packs each of its 75 graphs once."""
    calls = []
    real = compatibility.rows_key
    monkeypatch.setattr(compatibility, "rows_key", lambda adj: calls.append(adj) or real(adj))
    code, _, _ = run(capsys, "verify", kind, "--exhaustive", "4", "--format", "json")
    assert code == 0
    assert calls == [g.adj for n in range(1, 5) for g in generators.all_labeled(n)]


def test_verify_recursion_skips_a_graph_with_no_non_free_vertex(capsys, tmp_path, set_budget):
    """reg(G) is read before the vertex loop, so K9, whose vertices are
    all free and whose scan passes the budget, is still skipped.  K9's
    walk takes 36 steps and its scan 39 units (36 lattice elements and 3
    faces), so a budget of 38 skips it in the scan."""
    budget = 38
    set_budget("SCAN_BUDGET", budget)
    k9 = encode_graph6(generators.complete(9))
    f = tmp_path / "k9.g6"
    f.write_text(k9 + "\n")
    code, out, err = run(capsys, "verify", "recursion", str(f), "--format", "json")
    assert code == 2
    report = json.loads(out)
    assert report["violations"] == []
    assert report["results"]["reg_skipped_graphs"] == [k9]
    assert err.splitlines() == ["error: a resource cap skipped reg on 1 graph(s):",
                                f"{k9}: lattice scan exceeded {budget} work units"]
    set_budget("SCAN_BUDGET", budget + 1)
    assert run(capsys, "verify", "recursion", str(f), "--format", "json")[0] == 0


@pytest.mark.parametrize("argv", [["reg"], ["invariants", "--with-reg"]])
def test_per_graph_commands_report_past_a_reg_skip(capsys, tmp_path, set_budget, argv):
    """The net is reported, C9 follows as a skipped row and is named on
    stderr, and the command exits 2 after the report."""
    set_budget("SCAN_BUDGET", SMALL_SCAN_BUDGET)
    net6, c9 = encode_graph6(net()), encode_graph6(cycle(9))
    f = tmp_path / "graphs.g6"
    f.write_text(net6 + "\n" + c9 + "\n")
    code, out, err = run(capsys, *argv, str(f), "--format", "json")
    assert code == 2
    report = json.loads(out)
    assert report["inputs"] == [net6, c9]
    first, skipped = report["results"]
    assert (first["graph6"], first["reg"]) == (net6, 4)
    assert skipped == {"graph6": c9, "skipped": C9_SKIP}
    assert err.splitlines() == ["error: a resource cap skipped 1 graph(s):", f"{c9}: {C9_SKIP}"]


def test_verify_unknown_option_still_exits_2(capsys, tmp_path):
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(net()) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "chain", "--with-reg", str(f), "--frobnicate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "--gap", "eta-L", "--exhaustive", "2", "--top", "-1"],
    ["verify", "chain", "--exhaustive", "2", "--jobs", "0"],
    ["verify", "chain", "--exhaustive", "2", "--jobs", "-1"],
    ["verify", "chain", "--random", "3", "--max-n", "0"],
    ["verify", "chain", "--exhaustive", "2", "--random", "-2"],
    ["verify", "chain", "--exhaustive", "-1"],
    ["search", "--gap", "eta-L", "--sierpinski", "-1"],
])
def test_count_options_out_of_range_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {argv[-2]}: {argv[-1]} is below" in err


@pytest.mark.parametrize("frac", ["1/2/3", "1", "x/2"])
def test_gnp_flag_must_be_num_den_exit_2(capsys, frac):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "chain", "--random", "3", "--gnp", frac])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument --gnp: '{frac}' is not NUM/DEN" in err


def test_verify_compatible_exhaustive_4(capsys):
    code, out, _ = run(capsys, "verify", "compatible", "--exhaustive", "4",
                       "--map", "eta", "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_verify_compatible_computes_each_eta_once(capsys):
    invariants._eta_cached.cache_clear()
    code, _, _ = run(capsys, "verify", "compatible", "--exhaustive", "5",
                     "--format", "json")
    assert code == 0
    # the 1,099 labeled graphs on 1..5 vertices and the 0-vertex graph:
    # every derived graph G - v or G_v is a hit on the one eta cache
    assert invariants._eta_cached.cache_info().misses == 1100


def test_verify_compatible_keys_the_eta_cache_by_int(capsys, monkeypatch):
    """Every ``_eta_cached`` argument of the sweep is the int key of a
    labeled graph, never a row tuple.  The eta map holds the cache
    itself as its lookup, so the sweep reaches it there."""
    keys = []
    real = invariants._eta_cached
    real.cache_clear()
    assert compatibility.NAMED_MAPS["eta"].lookup is real

    def record(key):
        keys.append(key)
        return real(key)

    monkeypatch.setattr(invariants, "_eta_cached", record)
    monkeypatch.setattr(compatibility.NAMED_MAPS["eta"], "lookup", record)
    code, _, _ = run(capsys, "verify", "compatible", "--exhaustive", "4", "--format", "json")
    assert code == 0
    assert keys and all(type(key) is int for key in keys)
    # the 64 + 8 + 2 + 1 labeled graphs on 1..4 vertices and the 0-vertex graph
    assert real.cache_info().misses == 76


def test_verify_compatible_builds_no_clique_list_up_to_5_vertices(capsys, clique_mask_calls):
    """Every edge of every labeled graph with n <= 5 whose common
    neighbourhood is no clique lies in some edge's single maximal
    clique, so no ``eta`` miss of the sweep lists cliques (each of the
    1,100 misses did before the singleton pass)."""
    code, _, _ = run(capsys, "verify", "compatible", "--exhaustive", "5", "--format", "json")
    assert code == 0
    assert invariants._eta_cached.cache_info().misses == 1100
    assert clique_mask_calls == []


def test_verify_chain_scans_each_class_once(capsys, component_scans):
    """A cold ``verify chain --exhaustive 5 --with-reg`` scans the 31
    connected classes on 1..5 vertices once each; a scan per labeled
    component made 772."""
    code, _, _ = run(capsys, "verify", "chain", "--exhaustive", "5", "--with-reg",
                     "--format", "json")
    assert code == 0
    assert len(component_scans) == 31
    assert len({canonical_rows(g.adj) for g in component_scans}) == 31


@pytest.mark.parametrize("argv", [
    ["chain", "--exhaustive", "3"],
    ["recursion", "--exhaustive", "3"],
    ["iv-lemma", "--exhaustive", "3"],
    ["compatible", "--exhaustive", "3"],
    ["compatible", "--exhaustive", "3", "--map", "induced-path"],
])
def test_verify_reports_the_map_only_for_compatible(capsys, argv):
    """Only ``verify compatible`` reads ``--map``, so only its report
    names the map."""
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    results = json.loads(out)["results"]
    if argv[0] == "compatible":
        assert results["map"] == (argv[-1] if "--map" in argv else "eta")
    else:
        assert code == 0 and "map" not in results


def test_verify_iv_lemma_random_corpus(capsys):
    code, out, _ = run(capsys, "verify", "iv-lemma", "--random", "30", "--max-n", "7",
                       "--seed", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_verify_recursion_small(capsys):
    code, out, _ = run(capsys, "verify", "recursion", "--exhaustive", "3",
                       "--format", "json")
    assert code == 0


def test_verify_jobs_parallel_matches_serial(capsys):
    code1, out1, _ = run(capsys, "verify", "chain", "--exhaustive", "3", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "chain", "--exhaustive", "3", "--jobs", "2",
                         "--format", "json")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["violations"] == r2["violations"]
    assert r1["results"] == r2["results"]


def test_verify_reports_violation_with_exit_1(capsys, monkeypatch):
    import beibounds.cli as cli
    monkeypatch.setitem(cli.NAMED_MAPS, "eta", lambda g: 0)
    code, out, _ = run(capsys, "verify", "compatible", "--exhaustive", "2",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["violations"]


def test_verify_compatible_violation_records_in_order(capsys, monkeypatch):
    import beibounds.cli as cli
    monkeypatch.setitem(cli.NAMED_MAPS, "eta", lambda g: 0)
    code, out, _ = run(capsys, "verify", "compatible", "--exhaustive", "3",
                       "--format", "json")
    assert code == 1
    zeros = [{"v": v, "phi_minus": 0, "phi_saturated": 0} for v in range(3)]
    expected = [{"graph6": "A_", "counterexample": {"condition": "b", "phi": 0, "components": 1}}]
    # each labeled P3: the condition-(c) counterexample over every vertex,
    # then the strong form at its middle (only non-free) vertex
    for g6, middle in [("Bo", 0), ("Bg", 1), ("BW", 2)]:
        expected.append({"graph6": g6, "counterexample": {"condition": "c", "phi": 0,
                                                          "per_vertex": zeros}})
        expected.append({"graph6": g6, "strong_form": {"v": middle, "phi": 0, "phi_minus": 0,
                                                       "phi_saturated": 0}})
    expected.append({"graph6": "Bw", "counterexample": {"condition": "b", "phi": 0, "components": 1}})
    assert json.loads(out)["violations"] == expected


def test_verify_compatible_jobs_parallel_matches_serial(capsys):
    argv = ["verify", "compatible", "--map", "induced-path", "--exhaustive", "5",
            "--format", "json"]
    code1, out1, _ = run(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 1
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["violations"] and r1["violations"] == r2["violations"]
    assert r1["results"] == r2["results"]


def test_verify_compatible_eta_jobs_2_gives_the_same_report(capsys):
    argv = ["verify", "compatible", "--exhaustive", "4", "--map", "eta", "--format", "json"]
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, *argv, "--jobs", jobs)
        assert code == 0
        report = json.loads(out)
        del report["elapsed_s"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["results"]["graphs_checked"] == 75


@pytest.mark.parametrize("kind", ["recursion", "iv-lemma"])
def test_verify_recursion_and_iv_lemma_jobs_2_print_the_serial_report(capsys, kind):
    """The keyed reads of ``verify recursion`` and ``verify iv-lemma``
    give the same report, byte for byte apart from ``elapsed_s``, in
    one process and over a pool of forked workers."""
    argv = ["verify", kind, "--exhaustive", "5", "--format", "json"]
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        runs.append((code, re.sub(r'"elapsed_s": [0-9.]+', '"elapsed_s": 0', out), err))
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0 and json.loads(out)["results"]["graphs_checked"] == 1099


def test_verify_jobs_2_prints_the_serial_report_with_violations_and_skips(capsys, patch_map):
    """The pool's results come back in corpus order over several chunks,
    so ``--jobs 2`` prints the ``--jobs 1`` report byte for byte apart
    from ``elapsed_s``: the same violations and ``*_skipped_graphs``
    lists in the same order, and the same stderr.  (Workers fork, so
    they see the patched maps.)"""
    def eta(g, real):
        if g.edge_count() % 4 == 1:
            raise ResourceLimitError("search exceeded 7 nodes")
        return real(g) + 1  # breaks eta <= c wherever eta = c

    def lip(g, real):
        if g.edge_count() % 4 == 3:
            raise ResourceLimitError("search exceeded 9 nodes")
        return real(g)

    patch_map("eta", eta)
    patch_map("induced-path", lip)
    argv = ["verify", "chain", "--exhaustive", "4", "--random", "60", "--max-n", "6",
            "--seed", "2", "--format", "json"]
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        runs.append((code, re.sub(r'"elapsed_s": [0-9.]+', '"elapsed_s": 0', out), err))
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    report = json.loads(out)
    results = report["results"]
    assert code == 1 and results["graphs_checked"] == 135
    assert report["violations"] and results["L_skipped_graphs"] and results["eta_skipped_graphs"]


def _corpus(*argv):
    return cli.corpus_from_args(parse_args(["verify", "chain", *argv]))[1]


def test_verify_chain_searches_each_labeled_graph_once(capsys, monkeypatch):
    """``verify chain`` reads L and c through the keyed map caches, so a
    corpus that repeats labeled graphs runs the induced-path search and
    the clique listing once per distinct graph."""
    keys = {"longest_induced_path": [], "maximal_cliques": []}
    for target, seen in keys.items():
        real = getattr(compatibility, target)
        monkeypatch.setattr(compatibility, target,
                            lambda g, real=real, seen=seen: seen.append(rows_key(g.adj)) or real(g))
    for phi in compatibility.NAMED_MAPS.values():
        phi.cache_clear()
    argv = ["--random", "300", "--max-n", "4", "--seed", "0"]
    code, _, _ = run(capsys, "verify", "chain", *argv, "--jobs", "1")
    assert code == 0
    distinct = sorted({rows_key(g.adj) for g in _corpus(*argv)})
    assert len(distinct) < 300
    assert sorted(keys["longest_induced_path"]) == sorted(keys["maximal_cliques"]) == distinct


def test_corpus_size_needs_no_graph_and_the_first_arrives_at_once(monkeypatch):
    """``len()`` of the n <= 7 corpus is the sum of 2^C(n,2) over n, made
    without a graph, and its first graph, K1, comes before any other."""
    made = []
    real = generators.all_labeled

    def counted(n):
        for g in real(n):
            made.append(g)
            yield g

    monkeypatch.setattr(generators, "all_labeled", counted)
    corpus = _corpus("--exhaustive", "7")
    assert len(corpus) == 2_131_019 and made == []
    assert next(iter(corpus)) == Graph(1, (0,)) and made == [Graph(1, (0,))]


def test_corpus_iterates_again_to_the_same_graphs(tmp_path):
    f = tmp_path / "net.g6"
    f.write_text(encode_graph6(net()) + "\n")
    for argv in ([str(f), "--exhaustive", "3", "--random", "40", "--max-n", "6", "--seed", "9",
                  "--sierpinski", "2"],
                 ["--random", "25", "--seed", "4"]):
        corpus = _corpus(*argv)
        first = list(corpus)
        assert list(corpus) == first and len(first) == len(corpus)
    assert len(_corpus(str(f), "--exhaustive", "3", "--random", "40", "--sierpinski", "2")) == 54


@pytest.mark.parametrize("argv", [
    ["--exhaustive", "4"],
    ["--exhaustive", "3", "--random", "25", "--max-n", "6", "--sierpinski", "1"],
])
def test_graphs_checked_is_the_corpus_size(capsys, argv):
    code, out, _ = run(capsys, "verify", "iv-lemma", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["graphs_checked"] == len(_corpus(*argv))


@pytest.mark.parametrize("argv", [
    ["verify", "compatible", "--exhaustive", "8"],
    ["verify", "chain", "--exhaustive", "3", "--exhaustive", "8"],
    ["search", "--gap", "c-eta", "--exhaustive", "8", "--format", "json"],
])
def test_exhaustive_above_the_cap_exits_2_before_any_graph(capsys, monkeypatch, argv):
    """The cap of ``all_labeled`` is checked before the sweep starts, so
    no graph is made or checked and no report is printed."""
    made = []
    monkeypatch.setattr(generators, "all_labeled", made.append)
    monkeypatch.setattr(cli, "decode_graph6", made.append)
    code, out, err = run(capsys, *argv)
    assert (code, out, made) == (2, "", [])
    assert err == f"error: all_labeled capped at n={generators.ALL_LABELED_MAX_N}\n"


def test_sierpinski_above_the_cap_exits_2_before_any_graph(capsys, monkeypatch):
    """The cap of ``--sierpinski`` is checked before the sweep starts, so
    no graph is made or checked and no report is printed."""
    made = []
    monkeypatch.setattr(generators, "sierpinski", made.append)
    monkeypatch.setattr(cli, "decode_graph6", made.append)
    code, out, err = run(capsys, "verify", "chain", "--sierpinski", "7")
    assert (code, out, made) == (2, "", [])
    assert err == f"error: sierpinski level must be in 1..{generators.SIERPINSKI_MAX_LEVEL}\n"


def test_text_report_prints_violations_and_ends_ok_false(capsys, patch_map):
    patch_map("eta", lambda g, real: 0)
    code, out, _ = run(capsys, "verify", "compatible", "--exhaustive", "3")
    lines = out.splitlines()
    assert code == 1
    assert any(ln.startswith("VIOLATION: {") for ln in lines)
    assert lines[-1].startswith("ok=False ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_iv_lemma_reports_the_failing_vertices(capsys, monkeypatch, jobs):
    """With iv read as 1 everywhere, iv fails to drop at the middle
    vertex of each labelled P3.  (Workers fork, so they see the patch.)"""
    monkeypatch.setattr(compatibility, "iv_value", compatibility.KeyedMap(lambda key: 1))
    code, out, _ = run(capsys, "verify", "iv-lemma", "--exhaustive", "3", "--jobs", jobs,
                       "--format", "json")
    violations = json.loads(out)["violations"]
    assert code == 1 and len(violations) == 3
    assert all(set(v) == {"graph6", "vertex"} for v in violations)


def test_bad_input_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("3\n0 9\n")
    code, _, err = run(capsys, "invariants", str(f))
    assert code == 2 and "error" in err


def test_empty_corpus_exits_2(capsys):
    code, _, err = run(capsys, "verify", "chain")
    assert code == 2


def test_search_gap_eta_L(capsys, tmp_path):
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(net()) + "\n" + encode_graph6(sierpinski(1)) + "\n")
    code, out, _ = run(capsys, "search", "--gap", "eta-L", str(f), "--top", "1",
                       "--format", "json")
    assert code == 0
    top = json.loads(out)["results"][0]
    assert top["gap"] == 1 and top["graph6"] == encode_graph6(net())


def test_search_sierpinski_c_minus_eta(capsys):
    code, out, _ = run(capsys, "search", "--gap", "c-eta", "--sierpinski", "2",
                       "--top", "2", "--format", "json")
    assert code == 0
    gaps = [r["gap"] for r in json.loads(out)["results"]]
    assert gaps == [6, 1]


def test_python_m_beibounds_help():
    src = os.path.dirname(os.path.dirname(beibounds.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "beibounds", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: beibounds")


_CLI_TOKENS = [
    "invariants", "reg", "verify", "gen", "search", "chain", "compatible",
    "iv-lemma", "recursion", "-", "--exhaustive", "--random", "--gnp",
    "--seed", "--max-n", "--sierpinski", "--map", "eta", "clique-count",
    "--with-reg", "--require-reg", "--jobs", "--format", "json", "text",
    "graph6", "edges", "--gap", "--top", "-h", "--help", "--version", "--",
    "0", "-1", "7", "1/2", "x", "path", "5", "--frob", "--ex", "--s",
]


@given(st.lists(st.one_of(st.sampled_from(_CLI_TOKENS), st.text(max_size=6)),
                max_size=8))
@settings(max_examples=300, deadline=None)
def test_parse_args_returns_a_namespace_or_exits_2(tokens):
    # parse only: main could start --jobs N workers or a long sweep
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse_args(tokens)
    except SystemExit as exc:
        if exc.code == 0:  # --help or --version, printed on stdout
            assert out.getvalue().startswith("usage:") or \
                out.getvalue().strip() == beibounds.__version__
        else:
            assert exc.code == 2
            assert "error:" in err.getvalue()
    else:
        assert callable(args.func)
