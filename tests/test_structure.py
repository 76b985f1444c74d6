"""The package's modules reach each other through public names only: no
module under ``src/proxyifm`` imports an underscore name from another, so
what a module keeps private it may change alone."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proxyifm"


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {'.' * node.level}{node.module or ''}"
                            f" {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
