"""Each packed layout is read only by the module that lays it out.

The orbit tables and their packed lanes belong to `encoding`, the packed
line table to `core` and the 4-point certificate tables to `realizability`.
Every other module asks its owner through a function that hides the layout
(`encoding.orbit` and `_pattern_images`, `core._packed_lines`,
`realizability._sign` and `_reversal`), so a change to one layout edits one
module.
"""

import ast
from pathlib import Path

import pytest

import qmlines

OWNERS = {
    "_orbit_table": "encoding.py",
    "_lanes": "encoding.py",
    "_pack_lanes": "encoding.py",
    "_packed_table": "core.py",
    "_PackedTable": "core.py",
    "_certificate_tables": "realizability.py",
}

SOURCES = sorted(Path(qmlines.__file__).parent.glob("*.py"))


def _names(tree):
    """Every name that tree imports, binds, reads or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_every_owner_is_a_source_file():
    assert {p.name for p in SOURCES} >= set(OWNERS.values())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_layout_names_occur_only_in_their_owner(path):
    names = set(_names(ast.parse(path.read_text(), str(path))))
    strays = sorted(name for name, owner in OWNERS.items() if name in names and path.name != owner)
    assert strays == []
    owned = {name for name, owner in OWNERS.items() if owner == path.name}
    assert owned <= names
