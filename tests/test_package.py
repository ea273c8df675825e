"""Package-wide rules that no single module's tests can see."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
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


def test_every_file_parses_under_the_declared_python_floor():
    """``requires-python = ">=3.10"`` in pyproject.toml holds for the
    syntax of the package, its tests and the demos: each parses with
    the 3.10 grammar."""
    tests = pathlib.Path(__file__).parent
    for path in sorted([*pathlib.Path(beibounds.__file__).parent.glob("*.py"),
                        *tests.glob("*.py"), *(tests.parent / "demos").glob("*.py")]):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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


def test_docstring_cross_references_resolve():
    """Every :func:, :class: and :meth: target in a docstring or comment
    under ``src/`` (bar ``__main__.py``, which runs the CLI on import)
    names a real object, so a rename cannot leave the old name in the
    prose: a target ``mod.name`` is ``beibounds.mod.name``, and a bare
    name is defined in its own module or on one of that module's
    classes."""
    role = re.compile(r":(?:func|class|meth):`([^`]+)`")
    targets, broken = 0, []
    for path in sorted(pathlib.Path(beibounds.__file__).parent.glob("*.py")):
        if path.name == "__main__.py":
            continue
        name = "beibounds" if path.stem == "__init__" else f"beibounds.{path.stem}"
        module = importlib.import_module(name)
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
                   if c.__module__ == name]
        for target in role.findall(path.read_text(encoding="utf-8")):
            targets += 1
            mod, _, attr = target.rpartition(".")
            if mod:
                try:
                    ok = hasattr(importlib.import_module(f"beibounds.{mod}"), attr)
                except ImportError:
                    ok = False
            else:
                ok = (getattr(getattr(module, attr, None), "__module__", None) == name
                      or any(hasattr(c, attr) for c in classes))
            if not ok:
                broken.append(f"{path.name}: {target}")
    assert targets and broken == []


def test_readme_dotted_names_resolve():
    """Every backticked dotted name in README.md that starts with
    ``beibounds``, ``Graph`` or a module of the package names a real
    attribute, so a deleted or renamed object cannot stay documented
    there (the docstring test above covers ``src/``): ``mod.name`` is
    ``beibounds.mod.name`` and ``Graph.name`` is on ``graphs.Graph``."""
    modules = {m.name for m in pkgutil.iter_modules(beibounds.__path__)} - {"__main__"}
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    names = sorted({
        name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", readme.read_text(encoding="utf-8"))
        if name.split(".")[0] in modules | {"beibounds", "Graph"}
    })
    broken = []
    for name in names:
        head, *rest = name.removeprefix("beibounds.").split(".")
        obj = importlib.import_module(f"beibounds.{head}") if head in modules else getattr(beibounds, head, None)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            broken.append(name)
    assert names and broken == []


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
