import ast

from source_walk import parsed_sources, qualified_functions


def _unused_parameters(tree):
    """Qualified `function: parameter` pairs whose body never reads the parameter.

    A read anywhere in the body counts, nested functions included; the
    parameter's own default and annotation do not.  `self` and `cls` are
    exempt.
    """
    found = []
    for name, function in qualified_functions(tree):
        a = function.args
        params = [
            arg.arg
            for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
            if arg is not None and arg.arg not in ("self", "cls")
        ]
        read = {
            sub.id
            for stmt in function.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        found.extend(f"{name}: {param}" for param in params if param not in read)
    return found


def test_no_unused_parameters():
    unused = {
        f"{path.name}::{entry}"
        for path, tree in parsed_sources("src/gramcode")
        for entry in _unused_parameters(tree)
    }
    assert not unused, sorted(unused)


def test_unused_parameter_detector():
    tree = ast.parse(
        "def f(a, b: int = 0, *rest, c, **extra):\n    return a + len(rest) + c\n"
        "class K:\n    def m(self, x, y=None):\n        def inner():\n            return x\n"
        "        return inner\n"
        "    @classmethod\n    def n(cls, z):\n        z = 1\n"
        "def g(w=lambda w: w):\n    pass\n"
    )
    assert _unused_parameters(tree) == [
        "f: b", "f: extra", "K.m: y", "K.n: z", "g: w",
    ]
