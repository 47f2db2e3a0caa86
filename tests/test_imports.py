"""Module boundaries: no module of the package imports another module's
private (underscore) names, so each formula is reached through its public
entry point."""

import ast
from pathlib import Path

import fatpoints

PACKAGE = Path(fatpoints.__file__).parent


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} imports {alias.name} from "
            f"{'.' * node.level}{node.module or ''}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("fatpoints"))
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_the_guard_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .linsys import (\n    FatPointScheme,\n    _derivative_rows,\n)\n")
    assert private_imports(bad) == ["bad.py:1 imports _derivative_rows from .linsys"]
