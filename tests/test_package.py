import ast
from pathlib import Path

import wasmsmell

SOURCES = sorted(Path(wasmsmell.__file__).parent.glob("*.py"))


def test_package_root_exports_three_names():
    assert wasmsmell.__all__ == ["analyze_source", "canonical_json", "is_relevant"]
    for name in wasmsmell.__all__:
        assert callable(getattr(wasmsmell, name))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that the module never
    reads, neither as a name nor through ``__all__``."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    assert SOURCES
    unused = {}
    for path in SOURCES:
        names = unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_unused_import_check_sees_every_kind_of_binding():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as j\nfrom re import compile, sub as s\n"
        "__all__ = ['compile']\n"
        "def f(x: s) -> None: pass\n"
    )
    assert unused_imports(tree) == ["os (line 3)", "j (line 4)"]
