import ast

from source_walk import ROOT, parsed_sources, qualified_functions

ALLOWED = set()


def _self_calls(tree):
    """Qualified names of the functions whose bodies call them by name."""
    return [
        name
        for name, function in qualified_functions(tree)
        if any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == function.name
            for sub in ast.walk(function)
        )
    ]


def test_no_function_calls_itself():
    recursive = {
        (str(path.relative_to(ROOT)), name)
        for path, tree in parsed_sources("src/gramcode", "bench")
        for name in _self_calls(tree)
    }
    assert recursive == ALLOWED, sorted(recursive ^ ALLOWED)


def test_self_call_detector():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    def h():\n        h()\n    return h\n"
        "def k():\n    return f(1)\n"
    )
    assert _self_calls(tree) == ["f", "g.h"]
