"""Every name a module of the package imports is used in it.

A dependency-free stand-in for a linter's unused-import rule: each
`src/diel/*.py` but `__init__.py` (which imports to re-export) is parsed with
`ast`, and an imported name must appear as a name or an attribute root
somewhere else in the module. An import kept on purpose, for callers that
reach the name through the module, is marked `# noqa: F401` on its line.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diel"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                # a name of a parenthesized import sits on a line of its own
                line = next((n for n in range(node.lineno, (node.end_lineno or node.lineno) + 1)
                             if name in lines[n - 1]), node.lineno)
                if "# noqa: F401" not in lines[line - 1]:
                    imported[name] = line
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names what it reads
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    used |= {
        name.id for note in annotations if isinstance(note, ast.Constant) and isinstance(note.value, str)
        for name in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(name, ast.Name)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_a_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import_and_honours_its_mark():
    assert unused_imports("import os\nfrom a import (\n    b,\n    c,\n)\nc()\n") == ["os (line 1)", "b (line 3)"]
    assert unused_imports("from a import b  # noqa: F401\n") == []
    assert unused_imports("import os.path\nos.path.join()\n") == []
    assert unused_imports("from a import B\ndef f(x: 'B | None') -> None: ...\n") == []
    assert unused_imports('from a import walk\n"""a docstring may say walk"""\n') == ["walk (line 1)"]
