"""Every name a `dpmargin` module imports is read in that module, and no
module imports a package module it is barred from."""

import ast
import pathlib

import pytest

import dpmargin

SRC = pathlib.Path(dpmargin.__file__).parent

# Imports kept on purpose: the future import changes how annotations are
# evaluated, and perfbench's tracer wraps `tuning.child_seed` by that name.
KEPT = {("tuning.py", "child_seed")}

# Package modules a module must not import.  `optimizer` decides which map a
# candidate has and builds its rows, so the tuner knows no map type.
BARRED = {"tuning.py": {"projection"}}


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


def package_imports(path: pathlib.Path) -> dict[str, int]:
    """The package modules `path` imports (at any depth), each with the line
    of its first import: `.projection`, `dpmargin.projection` and
    `from . import projection` all read as `projection`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("dpmargin")):
            module = (node.module or "").removeprefix("dpmargin").strip(".")
            names = [module] if module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.removeprefix("dpmargin.") for alias in node.names
                     if alias.name.startswith("dpmargin.")]
        else:
            continue
        for name in names:
            found[name] = min(found.get(name, node.lineno), node.lineno)
    return found


def barred_imports(path: pathlib.Path) -> list[str]:
    """The package modules `path` imports that `BARRED` bars it from."""
    imported = package_imports(path)
    return sorted(f"{path.name}:{imported[name]} {name}"
                  for name in BARRED.get(path.name, ()) if name in imported)


def test_no_module_imports_a_package_module_it_is_barred_from():
    assert (SRC / "tuning.py").exists()
    assert [entry for path in sorted(SRC.glob("*.py")) for entry in barred_imports(path)] == []


@pytest.mark.parametrize("text, line", [
    ("from .projection import JlMatrix\n", 1),
    ("from dpmargin.projection import IdentityMap\n", 1),
    ("import numpy\nimport dpmargin.projection as proj\n", 2),
    ("from .data import Dataset\n\n\ndef f():\n    from . import data, projection\n", 5),
])
def test_the_check_sees_a_barred_import(tmp_path, text, line):
    (tmp_path / "tuning.py").write_text(text)
    (tmp_path / "master.py").write_text(text)  # master may import it
    assert barred_imports(tmp_path / "tuning.py") == [f"tuning.py:{line} projection"]
    assert barred_imports(tmp_path / "master.py") == []
