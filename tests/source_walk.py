"""The source loader and the function walk that the source lints share."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parsed_sources(*folders):
    """(path, tree) for every .py file in the folders, named relative to ROOT.

    Folder by folder, in the order given, and sorted by path within each.
    """
    return [
        (path, ast.parse(path.read_text()))
        for folder in folders
        for path in sorted((ROOT / folder).glob("*.py"))
    ]


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
