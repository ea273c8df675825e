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
from beibounds import cli, generators, invariants
from beibounds.cli import build_spec, main, parse_args, parse_graph_text
from beibounds.errors import ResourceLimitError
from beibounds.generators import cycle, net, path, sierpinski, union
from beibounds.graphio import encode_graph6
from beibounds.graphs import Graph


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
])
def test_gen_bad_arguments_exit_2_naming_the_generator(capsys, spec, message):
    code, out, err = run(capsys, "gen", *spec.split())
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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
    fake = lambda g: (2, CliqueDisjointSet(g, frozenset({(0, 1), (1, 2)})))
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
    in homology_dims, in every field used."""
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


@pytest.fixture
def small_scan_budget(monkeypatch):
    """A reg budget of 10,000 work units, which C9's scan (11,580
    lattice elements) passes and net's (635 units) fits.  The cache is
    cleared so that no C9 value from an earlier test hides the skip;
    workers fork, so they see the budget too."""
    from beibounds import regularity
    regularity._component_regularity.cache_clear()
    monkeypatch.setattr(regularity, "SCAN_BUDGET", 10_000)
    return "lattice scan exceeded 10000 work units"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_chain_reports_reg_skipped_by_component_cap(capsys, tmp_path, jobs,
                                                           small_scan_budget):
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
def test_verify_chain_require_reg_exits_2_on_a_skip(capsys, tmp_path, jobs, fmt,
                                                    small_scan_budget):
    c9 = encode_graph6(cycle(9))
    f = tmp_path / "graphs.g6"
    f.write_text(encode_graph6(net()) + "\n" + c9 + "\n")
    code, out, err = run(capsys, "verify", "chain", str(f), "--require-reg",
                         "--jobs", jobs, "--format", fmt)
    assert code == 2
    assert err.splitlines() == ["error: a resource cap skipped reg on 1 graph(s):",
                                f"{c9}: {small_scan_budget}"]
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


def test_verify_chain_without_reg_skips_nothing(capsys, tmp_path, small_scan_budget):
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
def test_L_node_budget_exits_2(capsys, monkeypatch, tmp_path, argv):
    """L of sierpinski(3) expands about 118k search nodes; with a budget
    of 1,000 every command that computes L stops with exit 2."""
    from beibounds import invariants
    monkeypatch.setattr(invariants.longest_induced_path, "__defaults__", (1_000,))
    f = tmp_path / "s3.g6"
    f.write_text(encode_graph6(sierpinski(3)) + "\n")
    code, _, err = run(capsys, *[str(f) if a == "GRAPH" else a for a in argv])
    assert code == 2 and "induced-path search exceeded 1000 nodes" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name, target, other", [
    ("L", "longest_induced_path", "eta"),
    ("eta", "eta", "L"),
])
def test_verify_chain_keeps_results_past_a_search_budget(
    capsys, monkeypatch, tmp_path, jobs, name, target, other
):
    """A search that hits its budget on one graph skips that value there
    and the checks that need it; every other result stays in the report,
    and the command exits 2 after it.  (Workers fork, so they see the
    patched search.)"""
    import beibounds.compatibility as compat
    real = getattr(compat, target)

    def capped(g):
        if g == net():
            raise ResourceLimitError("search exceeded 7 nodes")
        return real(g)

    monkeypatch.setattr(compat, target, capped)
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


@pytest.mark.parametrize("gap, target", [
    ("eta-L", "longest_induced_path"),
    ("eta-L", "eta"),
    ("c-reg", "regularity_bei"),
])
def test_search_keeps_results_past_a_search_budget(capsys, monkeypatch, tmp_path, gap, target):
    """A graph whose L, eta or reg hits a resource cap is listed with its
    message after the ranked rows, the other graphs are still ranked,
    and the command exits 2 after the report."""
    from beibounds import cli
    real = getattr(cli, target)

    def capped(g):
        if g == net():
            raise ResourceLimitError("search exceeded 7 nodes")
        return real(g)

    monkeypatch.setattr(cli, target, capped)
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


def test_search_ranks_the_levels_below_an_L_budget_hit(capsys, monkeypatch):
    monkeypatch.setattr(invariants.longest_induced_path, "__defaults__", (1_000,))
    code, out, err = run(capsys, "search", "--gap", "eta-L", "--sierpinski", "3",
                         "--format", "json")
    assert code == 2
    results = json.loads(out)["results"]
    s1, s2, s3 = (encode_graph6(sierpinski(k)) for k in (1, 2, 3))
    assert sorted(r["graph6"] for r in results[:2]) == sorted([s1, s2])
    assert results[2] == {"graph6": s3,
                          "skipped": "induced-path search exceeded 1000 nodes"}
    assert err.splitlines()[1:] == [f"{s3}: induced-path search exceeded 1000 nodes"]


def test_text_report_ok_agrees_with_the_exit_code(capsys, tmp_path, small_scan_budget):
    """C9 is past the reg budget, so its row is skipped and the command
    exits 2; the text report must not end with ok=True."""
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
def test_search_checks_every_graph_whatever_the_top(capsys, tmp_path, small_scan_budget, top):
    """Only ``--top`` rows are kept, but every graph is still checked,
    so a skip after the ranked rows is listed even with ``--top 0``."""
    c9, p4, c5, k3 = map(encode_graph6, (cycle(9), path(4), cycle(5), generators.complete(3)))
    f = tmp_path / "graphs.g6"
    f.write_text("\n".join((p4, c5, c9, k3, c5)) + "\n")
    code, out, err = run(capsys, "search", "--gap", "c-reg", str(f), "--top", top,
                         "--format", "json")
    assert code == 2
    ranked = [(2, c5), (2, c5), (0, k3), (0, p4)][:int(top)]
    results = json.loads(out)["results"]
    assert [(r["gap"], r["graph6"]) for r in results[:-1]] == ranked
    assert results[-1] == {"graph6": c9, "skipped": small_scan_budget}
    assert err.splitlines()[1:] == [f"{c9}: {small_scan_budget}"]


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


def test_verify_jobs_2_prints_the_serial_report_with_violations_and_skips(capsys, monkeypatch):
    """The pool's results come back in corpus order over several chunks,
    so ``--jobs 2`` prints the ``--jobs 1`` report byte for byte apart
    from ``elapsed_s``: the same violations and ``*_skipped_graphs``
    lists in the same order, and the same stderr.  (Workers fork, so
    they see the patched searches.)"""
    import beibounds.compatibility as compat
    real_eta, real_lip = compat.eta, compat.longest_induced_path

    def eta(g):
        if g.edge_count() % 4 == 1:
            raise ResourceLimitError("search exceeded 7 nodes")
        value, witness = real_eta(g)
        return value + 1, witness  # breaks eta <= c wherever eta = c

    def lip(g):
        if g.edge_count() % 4 == 3:
            raise ResourceLimitError("search exceeded 9 nodes")
        return real_lip(g)

    monkeypatch.setattr(compat, "eta", eta)
    monkeypatch.setattr(compat, "longest_induced_path", lip)
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
