"""Every library name that README spells out in backticks exists."""

import importlib
import pkgutil
import re

import gramcode
from source_walk import ROOT

# a dotted name, optionally followed by a call's arguments: `GramSet.positions(values)`
DOTTED = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")


def _heads():
    """gramcode's modules and the classes the package exports, by name."""
    heads = {
        info.name: importlib.import_module(f"gramcode.{info.name}")
        for info in pkgutil.iter_modules(gramcode.__path__)
    }
    heads.update((name, obj) for name, obj in vars(gramcode).items() if isinstance(obj, type))
    return heads


def _unresolved(text):
    """The backticked dotted names in text, headed by a gramcode module or
    exported class, that do not resolve; file names ending in .py are skipped."""
    heads = _heads()
    missing = []
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)  # fenced blocks pair no spans
    for span in re.findall(r"`([^`]+)`", prose):
        match = DOTTED.fullmatch(span)
        if not match or span.endswith(".py"):
            continue
        head, *rest = match.group(1).split(".")
        if head not in heads:
            continue
        obj = heads[head]
        try:
            for part in rest:
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(match.group(1))
    return missing


def test_readme_names_resolve():
    assert _unresolved((ROOT / "README.md").read_text()) == []


def test_readme_name_detector():
    text = (
        "```\ngramcode `x.y` `\n```\n"
        "`grams.gram_values` `grams.gram_value` `GramSet.position(value)` "
        "`GramSet.positions(values)` `channel.py` `fractions.Fraction` `lattice.nothing` "
        "`enumerate\n--closed`"
    )
    assert _unresolved(text) == ["grams.gram_value", "GramSet.position", "lattice.nothing"]
