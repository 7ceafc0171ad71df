"""Rules that have one home in the package stay in it.

Numerical rank is decided by ``_hulls._singular_rank`` alone, and exact line
search is the closed form in ``stepsize.line_search``.  A second rank rule
(numpy's ``matrix_rank``, with its own threshold) or an approximate line
search brought back anywhere in ``src/fwpoly`` fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "fwpoly").glob("*.py"))
BANNED = {"matrix_rank", "golden_section"}


def _identifiers(tree):
    """Every name a module binds, reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_sources_found():
    assert len(SRC) > 5


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_second_rank_rule_or_approximate_line_search(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"{path.name}:{line} {name}" for name, line in _identifiers(tree)
            if name in BANNED]
    assert not hits


def test_guard_catches_both():
    tree = ast.parse("import numpy as np\nr = np.linalg.matrix_rank(M)\n"
                     "def golden_section(phi, lo, hi):\n    pass\n")
    assert {n for n, _ in _identifiers(tree)} >= BANNED
