"""Package-wide rules that no single module's tests can see."""

import ast
import os
import pathlib
import subprocess
import sys

import beibounds


def test_package_imports_only_the_standard_library():
    """``dependencies = []`` in pyproject.toml holds: every absolute
    import under the package is a standard-library module or the
    package itself (numpy stays in the tests)."""
    outside = []
    for path in sorted(pathlib.Path(beibounds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "beibounds":
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_every_module_level_import_is_used():
    """No linter runs on the package, its tests or the demos, so this
    stands in for pyflakes' F401: each name a module imports at its top
    level is read in that module or listed in its ``__all__``, or its
    line says ``# noqa: F401`` and then why the import stays.  Only loads
    count as reads, so a field or local of the same name hides no unused
    import."""
    tests = pathlib.Path(__file__).parent
    unused = []
    for path in sorted([*pathlib.Path(beibounds.__file__).parent.glob("*.py"),
                        *tests.glob("*.py"), *(tests.parent / "demos").glob("*.py")]):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        lines = text.splitlines()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                _, noqa, reason = lines[alias.lineno - 1].partition("# noqa: F401")
                if name not in read and not (noqa and reason.strip()):
                    unused.append(f"{path.parent.name}/{path.name}:{alias.lineno}: {name}")
    assert unused == []


def test_exports_resolve_and_every_import_is_exported():
    """Each name in ``__all__`` exists, and each name ``__init__.py``
    takes with ``from .module import name`` is listed there, so an
    export dropped from one place is dropped from both."""
    assert all(hasattr(beibounds, name) for name in beibounds.__all__)
    tree = ast.parse(pathlib.Path(beibounds.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    assert imported - set(beibounds.__all__) == set()


def test_cli_looks_up_the_benchmark_hooks_at_call_time(monkeypatch, capsys):
    """The benchmark worker patches ``decode_graph6`` (its per-graph
    clock), ``bound_chain`` (called with ``with_reg=``) and
    ``make_report`` on ``beibounds.cli``; each must be looked up when
    ``verify chain`` runs, not bound earlier."""
    from beibounds import cli

    calls = {"decode": 0, "chain": [], "report": 0}
    decode, chain, report = cli.decode_graph6, cli.bound_chain, cli.make_report

    def counted_decode(text):
        calls["decode"] += 1
        return decode(text)

    def counted_chain(g, **kw):
        calls["chain"].append(kw.get("with_reg"))
        return chain(g, **kw)

    def counted_report(*args, **kw):
        calls["report"] += 1
        return report(*args, **kw)

    monkeypatch.setattr(cli, "decode_graph6", counted_decode)
    monkeypatch.setattr(cli, "bound_chain", counted_chain)
    monkeypatch.setattr(cli, "make_report", counted_report)
    code = cli.main(["verify", "chain", "--random", "3", "--max-n", "4", "--seed", "0",
                     "--with-reg", "--format", "json", "--jobs", "1"])
    capsys.readouterr()
    assert code == 0
    assert calls == {"decode": 3, "chain": [True, True, True], "report": 1}


def test_cli_import_leaves_the_process_pool_out():
    """A process pool (``multiprocessing.pool``, or ``concurrent.futures``)
    is imported only by ``verify --jobs > 1``, so a fresh ``import
    beibounds.cli`` (every benchmark worker's set-up) does not pay for
    it."""
    src = str(pathlib.Path(beibounds.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, beibounds.cli; "
         "print([m for m in ('multiprocessing.pool', 'concurrent.futures') if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
