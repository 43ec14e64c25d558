"""The mutant catalogue in mutants.py still applies to today's src/."""

import ast

from mutants import EQUIVALENT, MUTANTS, ROOT, SRC


def test_each_catalogued_text_occurs_once():
    for m in MUTANTS + EQUIVALENT:
        assert m.old != m.new, m.name
        assert (SRC / m.file).read_text().count(m.old) == 1, m.name


def test_each_mutant_names_tests_that_exist():
    names = [m.name for m in MUTANTS + EQUIVALENT]
    assert len(set(names)) == len(names)
    for m in MUTANTS:
        assert m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            tree = ast.parse((ROOT / path).read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name in defined, (m.name, test)
