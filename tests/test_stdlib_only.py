"""The package's source, read with `ast` or imported in a fresh interpreter.

The package has no runtime dependencies: it imports only the standard library.
Its root re-exports nothing, so importing one module loads only that module and
what it imports. Every public top-level function and class is used somewhere in
the library itself, and every module reads each name it imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metricdim

SOURCES = sorted(Path(metricdim.__file__).parent.glob("*.py"))


def test_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


@pytest.mark.parametrize("module, loaded", [
    ("metricdim.graph", {"metricdim", "metricdim.graph"}),
    ("metricdim.resolving",
     {"metricdim", "metricdim.errors", "metricdim.graph", "metricdim.resolving"}),
])
def test_importing_a_module_loads_only_its_imports(module, loaded):
    script = ("import sys; import " + module + "; "
              "print(' '.join(m for m in sys.modules if m.partition('.')[0] == 'metricdim'))")
    env = {**os.environ, "PYTHONPATH": str(Path(metricdim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert set(out.split()) == loaded


def test_every_public_definition_is_used_in_the_library():
    # a use is a Name or an Attribute anywhere outside __init__.py, its own module included
    defined, used = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            (path.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert defined
    assert [f"{file}: {name}" for file, name in defined if name not in used] == []


def test_every_import_is_used():
    # an import is used when an `ast.Name` in its own module reads the bound name
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []
