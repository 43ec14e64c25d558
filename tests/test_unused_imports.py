import ast

from source_walk import parsed_sources


def _unused_imports(tree):
    """Names a module imports but never reads, in import order.

    `import a.b` binds `a`; `from __future__` imports bind nothing.
    """
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    unused = {
        f"{path.parent.name}/{path.name}: {name}"
        for path, tree in parsed_sources("src/gramcode", "tests", "bench")
        if path.name != "__init__.py"
        for name in _unused_imports(tree)
    }
    assert not unused, sorted(unused)


def test_unused_import_detector():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom math import comb, gcd\n"
        "def f(x: comb) -> int:\n    return os.sep\n"
    )
    assert _unused_imports(tree) == ["system", "gcd"]
