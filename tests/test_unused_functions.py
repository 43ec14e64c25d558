import ast

from source_walk import parsed_sources

# Paper results that acceptance criteria and unit tests check, and the
# trace replay path: kept in the library without a caller of their own.
ALLOWED = {
    "code_size_ambient",
    "cycle_decomposition",
    "format_profile_file",
    "inject",
    "monotonicity_check",
    "star_distance",
    "star_identification_bound",
    "support_readout",
    "tan_shallit_count",
    "trace_from_json",
}


def _defined(tree):
    """Names of the functions and non-dunder methods a module defines, nested ones included."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _read(tree):
    """Names a module reads, as a bare name or as an attribute.

    Imports are not reads, so an `__init__.py` re-export consumes nothing.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _unused_functions(defining, reading):
    """Qualified `module: function` entries that no reading tree reads."""
    read = set().union(*map(_read, reading))
    return [
        f"{name}: {function}"
        for name, tree in defining
        for function in _defined(tree)
        if function not in read
    ]


def test_every_function_has_a_consumer():
    sources = parsed_sources("src/gramcode", "bench")
    defining = [(path.name, tree) for path, tree in sources if path.parent.name == "gramcode"]
    unused = _unused_functions(defining, [tree for _, tree in sources])
    assert [entry for entry in unused if entry.split(": ")[1] not in ALLOWED] == []
    # a name that gains a consumer leaves the allowlist
    assert ALLOWED <= {entry.split(": ")[1] for entry in unused}


def test_unused_function_detector():
    lib = ast.parse(
        "def used():\n    pass\n"
        "def dead():\n    pass\n"
        "class K:\n    def __len__(self):\n        return 0\n"
        "    def method(self):\n        def inner():\n            pass\n"
        "    @property\n    def size(self):\n        return helper()\n"
    )
    user = ast.parse(
        "from lib import dead\n"
        "used()\nk.size\n"
        "def helper():\n    pass\n"
    )
    assert _unused_functions([("lib.py", lib)], [lib, user]) == [
        "lib.py: dead", "lib.py: method", "lib.py: inner",
    ]
