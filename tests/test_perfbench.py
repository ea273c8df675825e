"""The benchmark harness still runs against the library: its self-test
passes, every tracer site names a function that exists, the CLI names
that the sweep clock wraps are called as it expects, and the input
profile reads a sweep's corpus, so a library change that would break
benchmark runs fails here first."""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import beibounds

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name: str):
    """``perfbench/<name>.py`` as the module ``perfbench_<name>``, loaded
    from the file as it is (dataclasses look their module up by name)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


def test_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and "selftest passed" in done.stdout, done.stdout + done.stderr


@pytest.mark.parametrize("owner, attr, name", tracer.SITES)
def test_tracer_site_resolves(owner, attr, name):
    """``Tracer.install`` wraps ``owner.__dict__[attr]``."""
    assert callable(tracer._resolve(owner).__dict__[attr])


def test_every_tracer_shim_import_is_a_site():
    """An import kept only for the tracer (its ``# noqa: F401`` reason
    cites perfbench/tracer.py) names a ``(module, attr)`` site, so a
    shim whose site was dropped fails here instead of staying dead."""
    sites = {(owner, attr) for owner, attr, _ in tracer.SITES}
    stray = []
    for path in sorted(pathlib.Path(beibounds.__file__).parent.glob("*.py")):
        module = "beibounds" if path.stem == "__init__" else f"beibounds.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                _, _, reason = lines[alias.lineno - 1].partition("# noqa: F401")
                if "perfbench/tracer.py" in reason:
                    name = alias.asname or alias.name
                    if (module, name) not in sites:
                        stray.append(f"{path.name}:{alias.lineno}: {name}")
    assert stray == []


@pytest.mark.parametrize("argv, graphs, chain", [
    (["verify", "compatible", "--exhaustive", "4"], 75, False),
    (["verify", "chain", "--random", "50", "--max-n", "4", "--seed", "0"], 50, True),
], ids=["compatible", "chain"])
def test_sweep_clock_names_run_once_per_graph(capsys, monkeypatch, argv, graphs, chain):
    """``perfbench/worker.py`` times a sweep's graphs from one
    ``cli.decode_graph6`` call to the next, ends the last at
    ``cli.make_report`` and watches ``cli.bound_chain``: each is looked
    up on ``cli`` at call time, decode and the chain run once per graph,
    and the report is made once."""
    from beibounds import cli

    calls = {"decode_graph6": 0, "bound_chain": 0, "make_report": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(cli, name), **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert cli.main([*argv, "--format", "json", "--jobs", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["graphs_checked"] == graphs
    assert calls == {"decode_graph6": graphs, "bound_chain": graphs if chain else 0,
                     "make_report": 1}


@pytest.mark.parametrize("argv, items", [
    (("verify", "chain", "--random", "30", "--max-n", "4", "--seed", "0", "--with-reg"),
     [("graphs checked", 30), ("per-component reg inputs", 42)]),
    (("verify", "compatible", "--exhaustive", "4"), [("graphs checked", 75)]),
], ids=["chain", "compatible"])
def test_input_profile_counts_a_sweep_corpus(monkeypatch, argv, items):
    """Every ``--trace 1`` pass of a sweep runs ``run.input_profile``,
    which takes the ``len()`` of ``cli.corpus_from_args``'s corpus and
    reads it more than once; a corpus that could be read only once
    would fail here rather than in every traced sweep."""
    from beibounds import cli  # noqa: F401  (input_profile reads beibounds.cli)

    monkeypatch.syspath_prepend(PERFBENCH)  # run.py imports analysis by name
    run, workloads = _load("run"), _load("workloads")
    w = workloads.Workload("sweep", "a small sweep", 1, argv=argv)
    assert [(p["what"], p["items"]) for p in run.input_profile(beibounds, w, 0, {})] == items
