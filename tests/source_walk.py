"""The walk over a module's functions that the source lints share."""

import ast

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def qualified_functions(tree):
    """(qualified name, node) for every function in tree, nested ones included.

    In source order, each function before the ones defined inside it.  A
    qualified name joins the enclosing classes and functions with dots.
    """
    found = []
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, FUNCTIONS):
            found.append((prefix + node.name, node))
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            prefix += node.name + "."
        stack.extend((child, prefix) for child in reversed(list(ast.iter_child_nodes(node))))
    return found
