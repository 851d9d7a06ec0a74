"""The package has no runtime dependencies: it imports only the standard library."""

import ast
import sys
from pathlib import Path

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
