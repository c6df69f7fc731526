"""Every name a `dpmargin` module imports is read in that module."""

import ast
import pathlib

import dpmargin

SRC = pathlib.Path(dpmargin.__file__).parent

# Imports kept on purpose: the future import changes how annotations are
# evaluated, and perfbench's tracer wraps `tuning.child_seed` by that name.
KEPT = {("tuning.py", "child_seed")}


def unused_imports(path: pathlib.Path) -> list[str]:
    """The names `path` imports (at any depth) and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read and (path.name, name) not in KEPT)


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py's imports are the package's public names
    paths = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert len(paths) >= 10
    assert [entry for path in paths for entry in unused_imports(path)] == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "from dataclasses import dataclass, replace\n"
                      "from .optimizer import lane_width\n\n\n"
                      "@dataclass\nclass A:\n    x: int = 0\n\n\n"
                      "def f():\n    import numpy as np\n    return os.path.sep\n")
    assert unused_imports(module) == ["mod.py:13 np", "mod.py:3 replace", "mod.py:4 lane_width"]
