"""Package-wide rules that no single module's tests can see."""

import ast
import pathlib
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
